package heuristics

import (
	"math/bits"
	"testing"

	"ocd/internal/core"
	"ocd/internal/sim"
)

// refBandwidth is Bandwidth's planner as it stood before the per-token
// needer sets: it drives the same per-run state as bandwidthStrategy, but
// finds a token's needers by testing every wanter's possession. It is the
// whole-run reference for TestBandwidthRunsMatchReference.
type refBandwidth struct{ *bandwidthStrategy }

var newRefBandwidth = sim.WrapStrategy(Bandwidth, func(_ *core.Instance, s sim.Strategy) (sim.Strategy, error) {
	return refBandwidth{s.(*bandwidthStrategy)}, nil
})

func (r refBandwidth) Plan(st *sim.State) []core.Move {
	b := r.bandwidthStrategy
	if b.changes.Delta(st) {
		for _, mv := range st.Delivered {
			b.gain(mv.To, mv.Token)
		}
		b.retargeted.Clear()
		for _, mv := range st.Delivered {
			if !b.retargeted.Has(mv.Token) {
				b.retargeted.Add(mv.Token)
				r.retarget(st, mv.Token)
			}
		}
	} else {
		b.rebuild(st)
		for t := range b.targets {
			r.retarget(st, t)
		}
	}
	inst := st.Inst
	b.rem.reset(inst.G)
	b.moves = b.moves[:0]
	for t, targets := range b.targets {
		for _, v := range targets {
			in := inst.G.In(int(v))
			inIDs := inst.G.InArcIDs(int(v))
			best, bestLeft := -1, 0
			var bestID int32
			for i, a := range in {
				if !st.Possess[a.From].Has(t) {
					continue
				}
				if l := b.rem.leftID(inIDs[i]); l > bestLeft {
					best, bestLeft, bestID = a.From, l, inIDs[i]
				}
			}
			if best == -1 {
				continue
			}
			b.rem.takeID(bestID)
			b.moves = append(b.moves, core.Move{From: best, To: int(v), Token: t})
		}
	}
	return b.moves
}

func (r refBandwidth) retarget(st *sim.State, t int) {
	b := r.bandwidthStrategy
	b.gen++
	if b.gen == 0 {
		clear(b.need)
		clear(b.reached)
		clear(b.picked)
		b.gen = 1
	}
	gen := b.gen
	b.needers = b.needers[:0]
	for _, v := range b.wanters[t] {
		if !st.Possess[v].Has(t) {
			b.needers = append(b.needers, v)
			b.need[v] = gen
		}
	}
	targets := b.targets[t][:0]
	if len(b.needers) == 0 {
		b.targets[t] = targets
		return
	}
	left := len(b.needers)
	b.queue = b.queue[:0]
	for k, set := range b.oneHop[t*b.words : (t+1)*b.words] {
		for ; set != 0; set &= set - 1 {
			v := k<<6 | bits.TrailingZeros64(set)
			b.reached[v], b.label[v] = gen, int32(v)
			if b.need[v] == gen {
				left--
			}
			b.queue = append(b.queue, int32(v))
		}
	}
	g := st.Inst.G
	for head := 0; left > 0 && head < len(b.queue); head++ {
		u := b.queue[head]
		for _, a := range g.Out(int(u)) {
			if b.reached[a.To] != gen {
				b.reached[a.To], b.label[a.To] = gen, b.label[u]
				if b.need[a.To] == gen {
					left--
				}
				b.queue = append(b.queue, int32(a.To))
			}
		}
	}
	for _, d := range b.needers {
		if b.reached[d] != gen {
			continue
		}
		if target := b.label[d]; b.picked[target] != gen {
			b.picked[target] = gen
			targets = append(targets, target)
		}
	}
	b.targets[t] = targets
}

// TestBandwidthRunsMatchReference runs Bandwidth beside refBandwidth on
// plannerInstances under each engine of compareEngines, and requires
// move-for-move identical schedules.
func TestBandwidthRunsMatchReference(t *testing.T) {
	names, insts := plannerInstances(t)
	opts := sim.Options{Seed: 5, MaxSteps: 120, IdlePatience: 8}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			compareEngines(t, insts[name], Bandwidth, newRefBandwidth, opts)
		})
	}
}
