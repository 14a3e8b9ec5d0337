package fault

// Arc-level partitions — the second robustness ring on top of the crash
// and loss models in fault.go. Partitions sever arcs without touching the
// vertices behind them: the endpoints keep planning and keep their state.
// (Membership churn, which removes whole members, is a crash plan: see
// NewRandomChurn.) Partition models follow the package contract: each is
// a pure function of (seed, step, identity), memoized where a trajectory
// is sequential, so a partitioned run replays byte-identically from its
// plan.

import "fmt"

// PartitionModel decides, deterministically, which arcs are severed at
// each step and whether a cut will ever heal.
type PartitionModel interface {
	Name() string
	// Severed reports whether the arc from→to carries nothing at step.
	// Partitions are directed: severing from→to says nothing about
	// to→from (sever both directions for a full link cut).
	Severed(step, from, to int) bool
	// Permanent reports whether the arc from→to is severed at step and
	// will never heal. The engine's reachability detection removes
	// permanently severed arcs from the liveness graph, exactly as it
	// removes permanently crashed vertices.
	Permanent(step, from, to int) bool
}

// NoPartitions keeps every arc connected.
type NoPartitions struct{}

// Name implements PartitionModel.
func (NoPartitions) Name() string { return "no-partitions" }

// Severed implements PartitionModel.
func (NoPartitions) Severed(int, int, int) bool { return false }

// Permanent implements PartitionModel.
func (NoPartitions) Permanent(int, int, int) bool { return false }

// PartitionEvent scripts one cut: the arc From→To is severed from step At
// until step HealAt (exclusive). HealAt < 0 means the cut never heals.
type PartitionEvent struct {
	From, To int
	At       int
	HealAt   int
}

// PartitionSchedule is an explicit scripted partition plan — the
// deterministic ground truth for targeted scenarios (cut the only path to
// a receiver, isolate a cluster for exactly k steps) and regression tests.
type PartitionSchedule struct {
	Events []PartitionEvent
}

// Name implements PartitionModel.
func (m PartitionSchedule) Name() string {
	return fmt.Sprintf("partition-schedule(%d events)", len(m.Events))
}

// Severed implements PartitionModel.
func (m PartitionSchedule) Severed(step, from, to int) bool {
	for _, e := range m.Events {
		if e.From == from && e.To == to && step >= e.At && (e.HealAt < 0 || step < e.HealAt) {
			return true
		}
	}
	return false
}

// Permanent implements PartitionModel.
func (m PartitionSchedule) Permanent(step, from, to int) bool {
	for _, e := range m.Events {
		if e.From == from && e.To == to && e.HealAt < 0 && step >= e.At {
			return true
		}
	}
	return false
}

// CutEdge scripts a full bidirectional link cut: both directions of the
// edge u—v severed over [at, healAt).
func CutEdge(u, v, at, healAt int) []PartitionEvent {
	return []PartitionEvent{
		{From: u, To: v, At: at, HealAt: healAt},
		{From: v, To: u, At: at, HealAt: healAt},
	}
}

// RandomPartitions splits the overlay into K sides (a seeded hash of the
// vertex ID picks each vertex's side) and severs every cross-side arc
// during partition episodes. When no episode is active, one starts with
// probability StartP per step and lasts HealAfter steps; HealAfter < 0
// makes the first episode permanent — the network never re-merges.
// Construct with NewRandomPartitions; the value memoizes the episode
// trajectory and is not safe for concurrent use.
type RandomPartitions struct {
	K         int
	StartP    float64
	HealAfter int
	Seed      int64

	// active memoizes the episode trajectory: active[t] reports whether a
	// partition episode covers step t. rem is the internal state after
	// step len(active)-1: remaining severed steps (-1 = permanent).
	active []bool
	rem    int
}

// NewRandomPartitions returns the stochastic k-way partition model. k < 2
// is clamped to 2 (a 1-way partition severs nothing).
func NewRandomPartitions(k int, startP float64, healAfter int, seed int64) *RandomPartitions {
	if k < 2 {
		k = 2
	}
	return &RandomPartitions{K: k, StartP: startP, HealAfter: healAfter, Seed: seed}
}

// Name implements PartitionModel.
func (m *RandomPartitions) Name() string {
	heal := fmt.Sprintf("heal %d", m.HealAfter)
	if m.HealAfter < 0 {
		heal = "never heals"
	}
	return fmt.Sprintf("random-partitions(k=%d, start %.2f, %s)", m.K, m.StartP, heal)
}

// Side returns the side vertex v lands on, in [0, K).
func (m *RandomPartitions) Side(v int) int {
	return int(mix(m.Seed, v, -2, 0, 5) % uint64(m.K))
}

// activeAt extends the memoized episode trajectory up to step and reports
// whether an episode covers it. The trajectory is computed strictly
// sequentially from step 0, so query order never changes it.
func (m *RandomPartitions) activeAt(step int) bool {
	if step < 0 {
		return false
	}
	for len(m.active) <= step {
		t := len(m.active)
		if m.rem != 0 {
			m.active = append(m.active, true)
			if m.rem > 0 {
				m.rem--
			}
			continue
		}
		if frac(mix(m.Seed, t, -1, 0, 4)) < m.StartP {
			m.active = append(m.active, true)
			if m.HealAfter < 0 {
				m.rem = -1
			} else {
				m.rem = m.HealAfter - 1
				if m.rem < 0 {
					m.rem = 0
				}
			}
		} else {
			m.active = append(m.active, false)
		}
	}
	return m.active[step]
}

// Severed implements PartitionModel.
func (m *RandomPartitions) Severed(step, from, to int) bool {
	return m.activeAt(step) && m.Side(from) != m.Side(to)
}

// Permanent implements PartitionModel.
func (m *RandomPartitions) Permanent(step, from, to int) bool {
	return m.HealAfter < 0 && m.Severed(step, from, to)
}
