// Package fault implements the paper's §6 failure scenarios as composable,
// deterministic fault plans: per-arc heterogeneous message loss (uniform
// Bernoulli, per-arc rates, and a bursty Gilbert–Elliott channel),
// crash-stop and crash-recovery vertex failures with a configurable
// state-loss policy, and gossip loss for the message-passing protocol.
//
// Every model is a pure function of (seed, step) — stochastic trajectories
// such as the Gilbert–Elliott channel state or the crash/recover chain are
// derived by hashing (seed, step, identity) and memoized, never drawn from
// a shared mutable PRNG — so a faulted run is exactly replayable from its
// plan: identical seeds produce identical fault traces and therefore
// identical schedules, and a recorded schedule can be post-validated
// against the plan (see Validate in this package).
package fault

import (
	"fmt"

	"ocd/internal/dynamic"
	"ocd/internal/graph"
)

// mix hashes (seed, a, b, c, d) into a uniform 64-bit value — the
// deterministic randomness source for every model in this package. Each
// operand is folded in through a full murmur3 fmix64 round: per-move draws
// (the k operand) must be independent even when every other operand is
// identical, which weaker boost-style accumulation does not deliver.
func mix(seed int64, a, b, c, d int) uint64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, x := range [4]int{a, b, c, d} {
		h ^= uint64(x)
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		h *= 0xc4ceb9fe1a85ec53
		h ^= h >> 33
	}
	return h
}

// frac converts a hash to [0,1).
func frac(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

// LossModel decides, deterministically, whether a move is lost in transit.
type LossModel interface {
	Name() string
	// Drop reports whether the k-th accepted move on arc from→to at the
	// given step is lost. k indexes the accepted moves of that arc within
	// the step (including moves that are themselves dropped), so each move
	// gets an independent deterministic draw.
	Drop(step, from, to, k int) bool
}

// NoLoss delivers everything — the fault-free baseline.
type NoLoss struct{}

// Name implements LossModel.
func (NoLoss) Name() string { return "no-loss" }

// Drop implements LossModel.
func (NoLoss) Drop(int, int, int, int) bool { return false }

// Bernoulli drops each move independently with probability P — the §6
// uniform lossy channel. It is the loss model behind ocdsim -loss and the
// loss-coding experiment.
type Bernoulli struct {
	P    float64
	Seed int64
}

// Name implements LossModel.
func (m Bernoulli) Name() string { return fmt.Sprintf("bernoulli(%.2f)", m.P) }

// Drop implements LossModel.
func (m Bernoulli) Drop(step, from, to, k int) bool {
	return frac(mix(m.Seed, step, from^(to<<16), to, k)) < m.P
}

// PerArc drops moves with a per-arc probability, modelling heterogeneous
// link quality: lossy access links next to clean backbone links.
type PerArc struct {
	// Rates maps [2]int{from, to} to that arc's loss probability.
	Rates map[[2]int]float64
	// Default applies to arcs absent from Rates.
	Default float64
	Seed    int64
}

// Name implements LossModel.
func (m PerArc) Name() string {
	return fmt.Sprintf("per-arc(%d arcs, default %.2f)", len(m.Rates), m.Default)
}

// Drop implements LossModel.
func (m PerArc) Drop(step, from, to, k int) bool {
	p, ok := m.Rates[[2]int{from, to}]
	if !ok {
		p = m.Default
	}
	return frac(mix(m.Seed, step, from^(to<<16), to, k)) < p
}

// chain is a deterministic two-state Markov trajectory per identity pair:
// state false→true with probability p01, true→false with probability p10,
// transitions driven by hashed (seed, step, id) draws. Trajectories are
// memoized so arbitrary-step queries stay amortized O(1); two chains built
// with the same parameters produce byte-identical trajectories. The
// identity queried last keeps its trajectory's position, so a run of
// queries on one identity (the moves of one arc) hashes no map key, and a
// trajectory grows in place.
type chain struct {
	seed     int64
	p01, p10 float64
	// index maps an identity to its trajectory in trajs.
	index map[[2]int]int
	trajs [][]bool
	// cur is the position in trajs of identity (a, b), the one queried
	// last, or -1 before the first query.
	a, b, cur int
}

func newChain(seed int64, p01, p10 float64) *chain {
	return &chain{seed: seed, p01: p01, p10: p10, index: make(map[[2]int]int), cur: -1}
}

// state returns the chain state at step for identity (a, b). All chains
// start in state false at step 0.
func (c *chain) state(step, a, b int) bool {
	if step < 0 {
		return false
	}
	if c.cur < 0 || a != c.a || b != c.b {
		i, ok := c.index[[2]int{a, b}]
		if !ok {
			i = len(c.trajs)
			c.index[[2]int{a, b}] = i
			c.trajs = append(c.trajs, append([]bool(nil), false))
		}
		c.a, c.b, c.cur = a, b, i
	}
	s := c.trajs[c.cur]
	if step < len(s) {
		return s[step]
	}
	for len(s) <= step {
		t := len(s) - 1
		var next bool
		if s[t] {
			next = frac(mix(c.seed, t, a, b, 1)) >= c.p10
		} else {
			next = frac(mix(c.seed, t, a, b, 0)) < c.p01
		}
		s = append(s, next)
	}
	c.trajs[c.cur] = s
	return s[step]
}

// GilbertElliott is the classic bursty-loss channel: each arc carries an
// independent two-state Markov chain (good/bad); moves are dropped with
// LossGood in the good state and LossBad in the bad state. Bursts model
// §6's "dynamic channel conditions (as in wireless networks)" far better
// than uniform Bernoulli loss. Construct with NewGilbertElliott; the value
// memoizes per-arc trajectories and is not safe for concurrent use.
type GilbertElliott struct {
	// PGoodBad is the per-step probability of entering the bad state;
	// PBadGood of leaving it. LossGood/LossBad are the per-move drop
	// probabilities in each state.
	PGoodBad, PBadGood float64
	LossGood, LossBad  float64
	Seed               int64
	c                  *chain
}

// NewGilbertElliott returns a bursty loss channel with the given transition
// and loss parameters.
func NewGilbertElliott(pGoodBad, pBadGood, lossGood, lossBad float64, seed int64) *GilbertElliott {
	return &GilbertElliott{
		PGoodBad: pGoodBad, PBadGood: pBadGood,
		LossGood: lossGood, LossBad: lossBad,
		Seed: seed,
		c:    newChain(seed, pGoodBad, pBadGood),
	}
}

// Name implements LossModel.
func (m *GilbertElliott) Name() string {
	return fmt.Sprintf("gilbert-elliott(%.2f→bad, loss %.2f/%.2f)", m.PGoodBad, m.LossGood, m.LossBad)
}

// Drop implements LossModel.
func (m *GilbertElliott) Drop(step, from, to, k int) bool {
	p := m.LossGood
	if m.c.state(step, from, to) {
		p = m.LossBad
	}
	return frac(mix(m.Seed, step, from^(to<<16), to, 2+k)) < p
}

// CrashModel decides, deterministically, which vertices are down at each
// step and whether a down vertex will ever return.
type CrashModel interface {
	Name() string
	// Down reports whether v is crashed (unable to send, receive, or plan)
	// at step.
	Down(step, v int) bool
	// Permanent reports whether v is down at step and will never recover —
	// crash-stop semantics. The engine's unsatisfiability detection removes
	// permanently-down vertices from the reachability graph.
	Permanent(step, v int) bool
}

// NoCrashes keeps every vertex up.
type NoCrashes struct{}

// Name implements CrashModel.
func (NoCrashes) Name() string { return "no-crashes" }

// Down implements CrashModel.
func (NoCrashes) Down(int, int) bool { return false }

// Permanent implements CrashModel.
func (NoCrashes) Permanent(int, int) bool { return false }

// CrashEvent scripts one failure: vertex V goes down at step At and
// recovers at step RecoverAt (exclusive). RecoverAt < 0 means crash-stop:
// the vertex never returns.
type CrashEvent struct {
	V         int
	At        int
	RecoverAt int
}

// CrashSchedule is an explicit scripted crash plan — the deterministic
// ground truth for targeted scenarios (kill the sole holder, partition a
// cluster) and regression tests.
type CrashSchedule struct {
	Events []CrashEvent
}

// Name implements CrashModel.
func (m CrashSchedule) Name() string { return fmt.Sprintf("scripted(%d events)", len(m.Events)) }

// Down implements CrashModel.
func (m CrashSchedule) Down(step, v int) bool {
	for _, e := range m.Events {
		if e.V == v && step >= e.At && (e.RecoverAt < 0 || step < e.RecoverAt) {
			return true
		}
	}
	return false
}

// Permanent implements CrashModel.
func (m CrashSchedule) Permanent(step, v int) bool {
	for _, e := range m.Events {
		if e.V == v && e.RecoverAt < 0 && step >= e.At {
			return true
		}
	}
	return false
}

// RandomCrashes fails vertices by an independent two-state chain: an up
// vertex crashes with probability CrashP per step, a down vertex recovers
// with probability RecoverP per step (RecoverP = 0 turns every crash into
// a crash-stop). Vertices in Protect — typically the sources — never fail.
// Construct with NewRandomCrashes or NewRandomChurn; the value memoizes
// per-vertex trajectories and is not safe for concurrent use.
type RandomCrashes struct {
	CrashP, RecoverP float64
	Seed             int64
	Protect          []int
	c                *chain
	// salt is the chain identity operand: -1 for crashes, -2 for churn,
	// so the two draw independent trajectories from the same seed.
	salt int
}

// NewRandomCrashes returns the stochastic crash-recovery model.
func NewRandomCrashes(crashP, recoverP float64, seed int64, protect ...int) *RandomCrashes {
	return &RandomCrashes{
		CrashP: crashP, RecoverP: recoverP, Seed: seed,
		Protect: append([]int(nil), protect...),
		c:       newChain(seed, crashP, recoverP),
		salt:    -1,
	}
}

// NewRandomChurn returns the crash model of membership churn: a present
// member leaves with probability leaveP per step and an absent one rejoins
// with probability rejoinP (0 makes every departure permanent). Run it
// with StateLoss DropAll, so a member that leaves loses everything it
// downloaded and rejoins empty. Its chain is salted apart from
// NewRandomCrashes, so the same seed draws an independent trajectory.
func NewRandomChurn(leaveP, rejoinP float64, seed int64, protect ...int) *RandomCrashes {
	m := NewRandomCrashes(leaveP, rejoinP, seed, protect...)
	m.salt = -2
	return m
}

// Name implements CrashModel.
func (m *RandomCrashes) Name() string {
	return fmt.Sprintf("random-crashes(%.3f up→down, %.2f down→up)", m.CrashP, m.RecoverP)
}

// Down implements CrashModel.
func (m *RandomCrashes) Down(step, v int) bool {
	for _, u := range m.Protect {
		if u == v {
			return false
		}
	}
	return m.c.state(step, v, m.salt)
}

// Permanent implements CrashModel.
func (m *RandomCrashes) Permanent(step, v int) bool {
	return m.RecoverP == 0 && m.Down(step, v)
}

// StateLoss selects what a vertex's possession looks like after a crash —
// the §6 "arrivals and departures" question of whether a rejoining peer
// still has what it downloaded.
type StateLoss int

const (
	// KeepState freezes possession across downtime: the vertex returns
	// with everything it had (durable storage).
	KeepState StateLoss = iota
	// DropDownloads reverts the vertex to its initial have set on crash:
	// downloaded tokens were volatile, the original content survives on
	// disk. The engine charges the destroyed deliveries to WastedMoves.
	DropDownloads
	// DropAll wipes possession entirely on crash — the vertex rejoins
	// empty, as a member does after membership churn (NewRandomChurn). A
	// sole holder crashing under DropAll makes its tokens extinct, the
	// strongest unsatisfiability scenario.
	DropAll
)

// String names the policy for tables and logs.
func (s StateLoss) String() string {
	switch s {
	case DropDownloads:
		return "drop-downloads"
	case DropAll:
		return "drop-all"
	default:
		return "keep-state"
	}
}

// GossipModel decides, deterministically, whether one per-turn knowledge
// exchange between neighbors is lost. It is consumed by the
// message-passing Local (heuristics.ProtocolLocal), not by the engine:
// token moves and gossip messages fail independently.
type GossipModel interface {
	Name() string
	// Drop reports whether the knowledge message from→to at step is lost.
	Drop(step, from, to int) bool
}

// GossipLoss drops each knowledge exchange independently with
// probability P.
type GossipLoss struct {
	P    float64
	Seed int64
}

// Name implements GossipModel.
func (m GossipLoss) Name() string { return fmt.Sprintf("gossip-loss(%.2f)", m.P) }

// Drop implements GossipModel.
func (m GossipLoss) Drop(step, from, to int) bool {
	return frac(mix(m.Seed, step, from, to, 3)) < m.P
}

// Plan composes the fault dimensions of one run. The zero value is the
// fault-free plan; nil fields mean "no faults of that kind".
type Plan struct {
	// Loss drops token moves in transit.
	Loss LossModel
	// Crashes takes vertices down (and possibly back up).
	Crashes CrashModel
	// StateLoss is applied to a vertex's possession at the moment it
	// crashes.
	StateLoss StateLoss
	// Partitions severs arcs while both endpoints stay up.
	Partitions PartitionModel
	// Capacity varies arc capacities between turns; nil leaves capacities
	// static. It is how the §6 changing-conditions models of
	// internal/dynamic run: Run enforces them and Validate replays them
	// (rebuild a PossessionAware model fresh for the replay). Crashed
	// vertices and severed arcs override whatever the capacity model
	// says — they carry nothing.
	Capacity dynamic.Model
	// Gossip is carried along for protocol-local, which
	// experiments.NamedStrategy builds as heuristics.ProtocolLocal(Drop);
	// the engine itself does not consult it.
	Gossip GossipModel
}

// normalized returns the plan with nil models replaced by the fault-free
// defaults, so the engine never branches on nil.
func (p Plan) normalized() Plan {
	if p.Loss == nil {
		p.Loss = NoLoss{}
	}
	if p.Crashes == nil {
		p.Crashes = NoCrashes{}
	}
	if p.Partitions == nil {
		p.Partitions = NoPartitions{}
	}
	if p.Capacity == nil {
		p.Capacity = dynamic.Static{}
	}
	return p
}

// Name renders the plan for tables and logs.
func (p Plan) Name() string {
	q := p.normalized()
	s := fmt.Sprintf("%s + %s + %s", q.Loss.Name(), q.Crashes.Name(), p.StateLoss)
	if p.Partitions != nil {
		s += " + " + q.Partitions.Name()
	}
	if q.Capacity.Name() != (dynamic.Static{}).Name() {
		s += " + " + q.Capacity.Name()
	}
	if p.Gossip != nil {
		s += " + " + p.Gossip.Name()
	}
	return s
}

// DownAt reports whether v is crashed at step under the plan. It is the
// predicate the invariant monitor's down-vertex silence check consumes
// (trace.InvariantConfig.Down).
func (p Plan) DownAt(step, v int) bool {
	return p.normalized().Crashes.Down(step, v)
}

// EffectiveCapacity returns the plan's effective capacity for base arc a
// at step: zero when an endpoint is down or the arc is severed, else the
// capacity model's (clamped) value — exactly the admission bound the
// engine enforces. It is the hook the invariant monitor's capacity check
// consumes (trace.InvariantConfig.Capacity).
func (p Plan) EffectiveCapacity(step int, a graph.Arc) int {
	q := p.normalized()
	if q.Crashes.Down(step, a.From) || q.Crashes.Down(step, a.To) ||
		q.Partitions.Severed(step, a.From, a.To) {
		return 0
	}
	c := q.Capacity.Cap(step, a)
	if c < 0 {
		c = 0
	}
	return c
}

// AtIntensity builds the canonical chaos plan at intensity x ∈ [0,1]: a
// Gilbert–Elliott channel whose bad state appears and bites more often as
// x grows, plus crash-recovery failures with volatile downloads. Vertices
// in protect (typically the sources) never crash, so the sweep measures
// degradation rather than trivial extinction; pair it with a
// CrashSchedule for the sole-holder scenarios. Intensity 0 is fault-free.
func AtIntensity(x float64, seed int64, protect ...int) Plan {
	if x <= 0 {
		return Plan{}
	}
	return Plan{
		Loss:      NewGilbertElliott(0.10*x, 0.25, 0.05*x, 0.4+0.5*x, seed),
		Crashes:   NewRandomCrashes(0.03*x, 0.25, seed+1, protect...),
		StateLoss: DropDownloads,
		Gossip:    GossipLoss{P: 0.5 * x, Seed: seed + 2},
	}
}
