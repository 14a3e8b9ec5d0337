package underlay

// refValidate and refAdmit are the shared-capacity replay that Validate
// ran before it became core.Replay plus the physical-link charge, kept
// verbatim under renamed identifiers as the reference for
// TestValidateMatchesReference.

import (
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"

	"ocd/internal/core"
	"ocd/internal/heuristics"
	"ocd/internal/sim"
	"ocd/internal/tokenset"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

// refAdmit checks one move against possession, overlay capacity, and the
// shared physical capacities, committing its usage if accepted.
func (n *Network) refAdmit(inst *core.Instance, possess []tokenset.Set, physUsed, overlayUsed map[[2]int]int, mv core.Move) bool {
	if mv.Token < 0 || mv.Token >= inst.NumTokens {
		return false
	}
	key := [2]int{mv.From, mv.To}
	path, ok := n.paths[key]
	if !ok {
		return false
	}
	if overlayUsed[key] >= n.Overlay.Cap(mv.From, mv.To) {
		return false
	}
	if !possess[mv.From].Has(mv.Token) {
		return false
	}
	for _, pa := range path {
		if physUsed[pa]+1 > n.Phys.Cap(pa[0], pa[1]) {
			return false
		}
	}
	overlayUsed[key]++
	for _, pa := range path {
		physUsed[pa]++
	}
	return true
}

// refValidate replays a schedule under the shared-physical-capacity
// semantics.
func (n *Network) refValidate(inst *core.Instance, sched *core.Schedule) error {
	possess := inst.InitialPossession()
	for i, st := range sched.Steps {
		physUsed := make(map[[2]int]int)
		overlayUsed := make(map[[2]int]int)
		for _, mv := range st {
			if !n.refAdmit(inst, possess, physUsed, overlayUsed, mv) {
				return fmt.Errorf("underlay: step %d move %v violates shared capacity or possession", i, mv)
			}
		}
		for _, mv := range st {
			possess[mv.To].Add(mv.Token)
		}
	}
	if !core.Done(inst, possess) {
		return core.ErrUnsuccessful
	}
	return nil
}

// failedMove finds the step and move in a replay error, whichever
// validator wrote it.
var failedMove = regexp.MustCompile(`step (\d+) move (-?\d+-\[-?\d+\]->-?\d+)`)

// verdict renders a replay's answer as "ok", the step and move it failed
// on, or "rejected" for a failure that names no move.
func verdict(err error) string {
	if err == nil {
		return "ok"
	}
	if m := failedMove.FindStringSubmatch(err.Error()); m != nil {
		return "step " + m[1] + " move " + m[2]
	}
	return "rejected"
}

// TestValidateRejectsForeignInstance: Validate rejects an instance over a
// graph other than the overlay with Run's error, where it used to index
// past a smaller instance's possession or replay against the wrong arcs.
func TestValidateRejectsForeignInstance(t *testing.T) {
	phys, hosts := dumbbell(t, 2)
	net, err := Build(phys, hosts, [][2]int{{0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	sched := &core.Schedule{Steps: []core.Step{{{From: 0, To: 2, Token: 0}}}}
	for _, n := range []int{2, 4} {
		g, err := topology.Line(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		inst := workload.SingleFile(g, 1)
		_, runErr := net.Run(inst, heuristics.Local, sim.Options{})
		if err := net.Validate(inst, sched); err == nil || runErr == nil || err.Error() != runErr.Error() {
			t.Errorf("n=%d: Validate err = %v, want Run's %v", n, err, runErr)
		}
	}
}

// physicalLoad counts the moves of st on each physical link, or reports
// false when st overloads an overlay arc or a physical link.
func physicalLoad(n *Network, st core.Step) (overlay, phys map[[2]int]int, ok bool) {
	overlay, phys = map[[2]int]int{}, map[[2]int]int{}
	for _, mv := range st {
		if overlay[[2]int{mv.From, mv.To}]++; overlay[[2]int{mv.From, mv.To}] > n.Overlay.Cap(mv.From, mv.To) {
			return nil, nil, false
		}
		for _, pa := range n.Path(mv.From, mv.To) {
			if phys[pa]++; phys[pa] > n.Phys.Cap(pa[0], pa[1]) {
				return nil, nil, false
			}
		}
	}
	return overlay, phys, true
}

// mutate returns a copy of sched with one seeded mutation: a dropped,
// duplicated or retargeted move, an out-of-range vertex or token, or moves
// added to a step until one goes over a full physical link. The added
// moves copy a sender and token of the step onto the sender's other
// overlay arcs, so only the shared links can reject them.
func mutate(rng *rand.Rand, n *Network, inst *core.Instance, sched *core.Schedule) *core.Schedule {
	out := &core.Schedule{Steps: slices.Clone(sched.Steps)}
	i := rng.Intn(len(out.Steps))
	for len(out.Steps[i]) == 0 {
		i = rng.Intn(len(out.Steps))
	}
	st := slices.Clone(out.Steps[i])
	j := rng.Intn(len(st))
	nv, m := inst.N(), inst.NumTokens
	switch rng.Intn(8) {
	case 0:
		st = slices.Delete(st, j, j+1)
	case 1:
		st = slices.Insert(st, rng.Intn(len(st)+1), st[j])
	case 2:
		st[j].To = rng.Intn(nv)
	case 3:
		st[j].Token = rng.Intn(m)
	case 4:
		st[j].To = []int{-1, nv, nv + 7}[rng.Intn(3)]
	case 5:
		st[j].Token = []int{-1, m}[rng.Intn(2)]
	default:
		overlay, phys, ok := physicalLoad(n, st)
		if !ok {
			break
		}
		var extra []core.Move
		for _, mv := range st {
			for _, a := range n.Overlay.Out(mv.From) {
				extra = append(extra, core.Move{From: mv.From, To: a.To, Token: mv.Token})
			}
		}
		rng.Shuffle(len(extra), func(a, b int) { extra[a], extra[b] = extra[b], extra[a] })
		for _, mv := range extra {
			key := [2]int{mv.From, mv.To}
			if overlay[key] >= n.Overlay.Cap(mv.From, mv.To) {
				continue
			}
			overlay[key]++
			st = append(st, mv)
			full := false
			for _, pa := range n.Path(mv.From, mv.To) {
				phys[pa]++
				full = full || phys[pa] > n.Phys.Cap(pa[0], pa[1])
			}
			if full {
				break
			}
		}
	}
	out.Steps[i] = st
	return out
}

// TestValidateMatchesReference replays every schedule of the underlay
// rows of internal/sim's golden engine table (six strategies on a random
// 14-host network), then 1,200 seeded mutations of the completed ones,
// under Validate and under the replay it replaced. Both must accept or
// reject alike and on the same step and move.
func TestValidateMatchesReference(t *testing.T) {
	net, err := RandomNetwork(60, 14, 2, topology.DefaultCaps, 9)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.SingleFile(net.Overlay, 16)
	// Round robin stops at the step limit, incomplete; the mutations start
	// from the completed schedules.
	var golden, completed []*core.Schedule
	for _, factory := range append(heuristics.All(), heuristics.LocalDelayed(2)) {
		res, err := net.Run(inst, factory, sim.Options{Seed: 11, IdlePatience: 30})
		if err != nil {
			t.Fatal(err)
		}
		if golden = append(golden, res.Schedule); res.Completed {
			completed = append(completed, res.Schedule)
		}
	}
	physical, accepted := 0, 0
	check := func(name string, sched *core.Schedule) {
		t.Helper()
		err := net.Validate(inst, sched)
		refErr := net.refValidate(inst, sched)
		if got, want := verdict(err), verdict(refErr); got != want {
			t.Fatalf("%s: Validate says %s (%v), reference %s (%v)", name, got, err, want, refErr)
		}
		if err == nil {
			accepted++
		} else if strings.Contains(err.Error(), "physical link") {
			physical++
		}
	}
	for i, sched := range golden {
		check(fmt.Sprintf("golden schedule %d", i), sched)
	}
	if accepted != len(completed) {
		t.Fatalf("%d golden schedules replay valid, %d runs completed", accepted, len(completed))
	}
	rng := rand.New(rand.NewSource(1))
	const mutations = 1200
	for k := 0; k < mutations; k++ {
		check(fmt.Sprintf("mutation %d", k), mutate(rng, net, inst, completed[rng.Intn(len(completed))]))
	}
	accepted -= len(completed)
	t.Logf("%d of %d mutations replay valid, %d fail on a physical link", accepted, mutations, physical)
	if accepted == 0 || physical == 0 {
		t.Errorf("want mutations that replay valid (%d) and ones over a full physical link (%d)", accepted, physical)
	}
}
