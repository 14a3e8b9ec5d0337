// Package dynamic implements the paper's §6 "Changing network conditions"
// open problem as capacity models: arc capacities vary between turns under
// pluggable models (cross traffic, link failures, periodic load, and a
// possession-aware adversary). The models run through the fault engine as
// fault.Plan.Capacity, which enforces the per-step effective capacities.
// Arrivals and departures are crash plans, not capacity models:
// fault.RandomCrashes, and membership churn as fault.NewRandomChurn under
// the DropAll state-loss policy.
//
// All models are deterministic functions of (seed, step, arc), so a run
// can be validated after the fact by replaying the model (fault.Validate).
package dynamic

import (
	"fmt"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/tokenset"
)

// Model yields the effective capacity of an arc at a timestep. Returning 0
// removes the arc for that step.
type Model interface {
	Name() string
	Cap(step int, a graph.Arc) int
}

// PossessionAware is implemented by models (e.g. the adversary) that react
// to the current distribution state. Observe is called once per timestep
// before any Cap query for that step.
type PossessionAware interface {
	Observe(step int, possess []tokenset.Set)
}

// Static leaves every capacity unchanged — the baseline model.
type Static struct{}

// Name implements Model.
func (Static) Name() string { return "static" }

// Cap implements Model.
func (Static) Cap(_ int, a graph.Arc) int { return a.Cap }

// hash64 mixes (seed, step, from, to) into a uniform-ish 64-bit value, the
// deterministic randomness source shared by the stochastic models.
func hash64(seed int64, step, from, to int) uint64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for _, x := range [3]int{step, from, to} {
		h ^= uint64(x) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xff51afd7ed558ccd
	}
	h ^= h >> 33
	return h
}

// frac converts a hash to [0,1).
func frac(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

// CrossTraffic reduces each arc's capacity each step by a random share of
// competing traffic, never below 1 (the link stays usable, just congested).
type CrossTraffic struct {
	// MaxShare is the largest fraction of capacity cross traffic may
	// consume, in [0,1].
	MaxShare float64
	// Seed makes the model deterministic.
	Seed int64
}

// Name implements Model.
func (m CrossTraffic) Name() string { return fmt.Sprintf("cross-traffic(%.2f)", m.MaxShare) }

// Cap implements Model.
func (m CrossTraffic) Cap(step int, a graph.Arc) int {
	share := frac(hash64(m.Seed, step, a.From, a.To)) * m.MaxShare
	eff := int(float64(a.Cap) * (1 - share))
	if eff < 1 {
		eff = 1
	}
	return eff
}

// LinkFailure removes each arc independently with probability P each step
// (dynamic channel conditions / denial-of-service in §6's list).
type LinkFailure struct {
	P    float64
	Seed int64
}

// Name implements Model.
func (m LinkFailure) Name() string { return fmt.Sprintf("link-failure(%.2f)", m.P) }

// Cap implements Model.
func (m LinkFailure) Cap(step int, a graph.Arc) int {
	if frac(hash64(m.Seed, step, a.From, a.To)) < m.P {
		return 0
	}
	return a.Cap
}

// Periodic models diurnal load: capacity dips to Floor×cap at the trough
// of each period and recovers linearly.
type Periodic struct {
	Period int
	// Floor is the minimum remaining fraction of capacity, in (0,1].
	Floor float64
}

// Name implements Model.
func (m Periodic) Name() string { return fmt.Sprintf("periodic(%d)", m.Period) }

// Cap implements Model.
func (m Periodic) Cap(step int, a graph.Arc) int {
	if m.Period <= 1 {
		return a.Cap
	}
	pos := step % m.Period
	half := m.Period / 2
	var depth float64 // 0 at peak, 1 at trough
	if pos <= half {
		depth = float64(pos) / float64(half)
	} else {
		depth = float64(m.Period-pos) / float64(m.Period-half)
	}
	factor := 1 - depth*(1-m.Floor)
	eff := int(float64(a.Cap) * factor)
	if eff < 1 {
		eff = 1
	}
	return eff
}

// Adversary cuts the arcs it predicts are most useful each step: the arcs
// that could carry the most new tokens. It is the §6 "adversarial network
// conditions" scenario. The adversary is budgeted at K arcs per step but
// never cuts more than half of the useful frontier — an unbounded
// omniscient adversary can trivially cut every useful arc and deadlock any
// algorithm, which demonstrates nothing.
type Adversary struct {
	K    int
	inst *core.Instance
	cut  map[[2]int]bool
}

// NewAdversary builds an adversary cutting k arcs per step against inst.
func NewAdversary(inst *core.Instance, k int) *Adversary {
	return &Adversary{K: k, inst: inst, cut: make(map[[2]int]bool)}
}

// Name implements Model.
func (a *Adversary) Name() string { return fmt.Sprintf("adversary(%d)", a.K) }

// Observe implements PossessionAware: pick the K arcs with the highest
// immediate value = |useful tokens| the arc could carry this step.
func (a *Adversary) Observe(_ int, possess []tokenset.Set) {
	type scored struct {
		key   [2]int
		value int
	}
	var best []scored
	for _, arc := range a.inst.G.Arcs() {
		v := possess[arc.From].DifferenceCount(possess[arc.To])
		if v == 0 {
			continue
		}
		best = append(best, scored{key: [2]int{arc.From, arc.To}, value: v})
	}
	// Partial selection of the top K.
	for i := 0; i < len(best); i++ {
		for j := i + 1; j < len(best); j++ {
			if best[j].value > best[i].value {
				best[i], best[j] = best[j], best[i]
			}
		}
	}
	for k := range a.cut {
		delete(a.cut, k)
	}
	budget := a.K
	if half := len(best) / 2; budget > half {
		budget = half
	}
	for i := 0; i < budget; i++ {
		a.cut[best[i].key] = true
	}
}

// Cap implements Model.
func (a *Adversary) Cap(_ int, arc graph.Arc) int {
	if a.cut[[2]int{arc.From, arc.To}] {
		return 0
	}
	return arc.Cap
}
