package trace

// Runtime invariant monitor: a sanitizer for engine refactors. Attached as
// the kernel's Observer, it independently re-checks the model invariants
// the kernel is supposed to enforce — sender possession, per-arc capacity,
// down-vertex silence, token conservation — every step, and reports
// breaches as structured InvariantViolation records. A nil Observer costs
// the kernel nothing, so the monitor is strictly opt-in; with it attached,
// a zero-violation run is machine-checkable evidence that an engine change
// preserved the §3.1 semantics.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/sim"
	"ocd/internal/tokenset"
)

// Violation kinds reported by the InvariantMonitor.
const (
	// ViolationPossession: a move was admitted whose sender did not possess
	// the token at admission time.
	ViolationPossession = "possession"
	// ViolationCapacity: an arc carried more accepted moves in one step
	// than its effective capacity.
	ViolationCapacity = "capacity"
	// ViolationDownSilence: a move was admitted with a crashed endpoint
	// (membership churn is a crash plan too).
	ViolationDownSilence = "down-silence"
	// ViolationConservation: a vertex possesses a token it neither started
	// with nor ever took delivery of — tokens appeared out of nothing.
	ViolationConservation = "conservation"
)

// InvariantViolation is one structured breach record, JSONL-serializable
// alongside the step traces.
type InvariantViolation struct {
	Step int    `json:"step"`
	Kind string `json:"kind"`
	// From/To/Token identify the offending move for the per-move kinds;
	// conservation breaches set To to the hoarding vertex and Token to one
	// offending token, with From = -1.
	From   int    `json:"from"`
	To     int    `json:"to"`
	Token  int    `json:"token"`
	Detail string `json:"detail,omitempty"`
}

func (v InvariantViolation) String() string {
	return fmt.Sprintf("step %d %s (%d→%d tok %d): %s", v.Step, v.Kind, v.From, v.To, v.Token, v.Detail)
}

// InvariantConfig adapts the monitor to an engine's fault semantics. The
// zero value checks against the static model: base-graph capacities,
// nothing down.
type InvariantConfig struct {
	// Down, when non-nil, reports whether vertex v is crashed at step;
	// any admitted move touching a down endpoint is a violation.
	// Fault-engine runs pass fault.Plan.DownAt.
	Down func(step, v int) bool
	// Capacity, when non-nil, returns the effective capacity of base arc a
	// at step (fault-engine runs pass fault.Plan.EffectiveCapacity);
	// nil means the arc's static capacity.
	Capacity func(step int, a graph.Arc) int
}

// maxViolations caps the retained records so a badly broken engine cannot
// balloon memory; further breaches only bump Dropped.
const maxViolations = 100

// InvariantMonitor implements sim.Observer. One monitor serves one run.
// Construct with NewInvariantMonitor.
type InvariantMonitor struct {
	inst *core.Instance
	cfg  InvariantConfig

	arcsByID []graph.Arc // dense arc ID → base arc
	//ocd:scratch accepted moves per arc ID, this step
	used []int
	//ocd:scratch arc IDs with non-zero usage, for O(touched) reset
	touched  []int
	lastStep int

	// everDelivered[v] accumulates every token v took delivery of; the
	// conservation invariant is possess[v] ⊆ have[v] ∪ everDelivered[v],
	// which state-loss wipes (they only remove tokens) cannot break.
	everDelivered []tokenset.Set
	scratch       tokenset.Set

	// Violations holds the first maxViolations breaches in detection
	// order; Dropped counts the rest.
	Violations []InvariantViolation
	Dropped    int
}

var _ sim.Observer = (*InvariantMonitor)(nil)

// NewInvariantMonitor builds a monitor for runs of inst (the base instance
// the engine was invoked with).
func NewInvariantMonitor(inst *core.Instance, cfg InvariantConfig) *InvariantMonitor {
	arcs := inst.G.Arcs()
	byID := make([]graph.Arc, inst.G.NumArcs())
	for _, a := range arcs {
		byID[inst.G.ArcID(a.From, a.To)] = a
	}
	n := inst.N()
	m := &InvariantMonitor{
		inst:          inst,
		cfg:           cfg,
		arcsByID:      byID,
		used:          make([]int, inst.G.NumArcs()),
		lastStep:      -1,
		everDelivered: make([]tokenset.Set, n),
		scratch:       tokenset.New(inst.NumTokens),
	}
	for v := 0; v < n; v++ {
		m.everDelivered[v] = tokenset.New(inst.NumTokens)
	}
	return m
}

func (m *InvariantMonitor) report(v InvariantViolation) {
	if len(m.Violations) >= maxViolations {
		m.Dropped++
		return
	}
	m.Violations = append(m.Violations, v)
}

// OnMove implements sim.Observer: possession, capacity, and down-silence
// checks at admission time. Lost moves consumed capacity, so they count
// toward the per-arc usage exactly as delivered ones do.
func (m *InvariantMonitor) OnMove(step int, mv core.Move, arcID int, _ bool, st *sim.State) {
	if step != m.lastStep {
		for _, id := range m.touched {
			m.used[id] = 0
		}
		m.touched = m.touched[:0]
		m.lastStep = step
	}
	if !st.Possess[mv.From].Has(mv.Token) {
		m.report(InvariantViolation{
			Step: step, Kind: ViolationPossession, From: mv.From, To: mv.To, Token: mv.Token,
			Detail: "sender did not possess the token at admission",
		})
	}
	if m.used[arcID] == 0 {
		m.touched = append(m.touched, arcID)
	}
	m.used[arcID]++
	arc := m.arcsByID[arcID]
	capacity := arc.Cap
	if m.cfg.Capacity != nil {
		capacity = m.cfg.Capacity(step, arc)
	}
	if m.used[arcID] > capacity {
		m.report(InvariantViolation{
			Step: step, Kind: ViolationCapacity, From: mv.From, To: mv.To, Token: mv.Token,
			Detail: fmt.Sprintf("arc carried %d accepted moves, capacity %d", m.used[arcID], capacity),
		})
	}
	if m.cfg.Down != nil && (m.cfg.Down(step, mv.From) || m.cfg.Down(step, mv.To)) {
		m.report(InvariantViolation{
			Step: step, Kind: ViolationDownSilence, From: mv.From, To: mv.To, Token: mv.Token,
			Detail: "move admitted with a down endpoint",
		})
	}
}

// OnReject implements sim.Observer: rejected moves break no invariant.
func (m *InvariantMonitor) OnReject(int, core.Move, *sim.State) {}

// OnStep implements sim.Observer: the token-conservation sweep after the
// step's deliveries have applied.
func (m *InvariantMonitor) OnStep(step int, delivered core.Step, st *sim.State) {
	for _, mv := range delivered {
		m.everDelivered[mv.To].Add(mv.Token)
	}
	for v, p := range st.Possess {
		m.scratch.SetDifference(p, m.inst.Have[v])
		m.scratch.DifferenceWith(m.everDelivered[v])
		if m.scratch.Empty() {
			continue
		}
		tok := -1
		m.scratch.ForEach(func(t int) bool { tok = t; return false })
		m.report(InvariantViolation{
			Step: step, Kind: ViolationConservation, From: -1, To: v, Token: tok,
			Detail: fmt.Sprintf("%d token(s) possessed but never held initially nor delivered", m.scratch.Count()),
		})
	}
}

// Err returns nil when the run broke no invariant, and otherwise an error
// summarizing the breach count and quoting the first violation.
func (m *InvariantMonitor) Err() error {
	total := len(m.Violations) + m.Dropped
	if total == 0 {
		return nil
	}
	return fmt.Errorf("trace: %d invariant violation(s), first: %s", total, m.Violations[0])
}

// EncodeViolationsJSONL writes one violation per line.
func EncodeViolationsJSONL(w io.Writer, recs []InvariantViolation) error {
	enc := json.NewEncoder(w)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return fmt.Errorf("trace: encode violations: %w", err)
		}
	}
	return nil
}

// DecodeViolationsJSONL reads a violation log back, rejecting records with
// an unknown kind or negative step.
func DecodeViolationsJSONL(r io.Reader) ([]InvariantViolation, error) {
	dec := json.NewDecoder(r)
	var out []InvariantViolation
	for {
		var rec InvariantViolation
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return nil, fmt.Errorf("trace: decode violations: %w", err)
		}
		switch rec.Kind {
		case ViolationPossession, ViolationCapacity, ViolationDownSilence, ViolationConservation:
		default:
			return nil, fmt.Errorf("trace: violation line %d has unknown kind %q", len(out), rec.Kind)
		}
		if rec.Step < 0 {
			return nil, fmt.Errorf("trace: violation line %d has negative step", len(out))
		}
		out = append(out, rec)
	}
}
