package trace

// Step traces: the first consumer of the simulation kernel's Observer
// hooks. A StepCollector rides along a run and condenses each timestep into
// one StepRecord — traffic counters, arc-utilization summary, and the
// per-token holder spread — which serializes as JSONL (one JSON object per
// line), the append-friendly format downstream analysis tooling streams.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"ocd/internal/core"
	"ocd/internal/sim"
)

// StepRecord is one JSONL line of a step trace: the condensed view of a
// single executed timestep. Idle timesteps are recorded too (all-zero
// traffic, possibly non-zero rejects).
type StepRecord struct {
	// Step is the 0-based timestep index; records are contiguous from 0.
	Step int `json:"step"`
	// Moves counts delivered moves; Losses the accepted moves dropped in
	// transit; Rejects the proposed moves the engine discarded.
	Moves   int `json:"moves"`
	Losses  int `json:"losses"`
	Rejects int `json:"rejects"`
	// ArcsUsed is the number of distinct arcs that carried accepted
	// traffic; MaxArcLoad the heaviest single arc's accepted moves.
	ArcsUsed   int `json:"arcs_used"`
	MaxArcLoad int `json:"max_arc_load"`
	// Utilization is accepted traffic (delivered + lost, both consume
	// capacity) over the base graph's total capacity. Under a dynamic
	// capacity model the denominator stays the base capacity, so dips in
	// effective capacity read as dips in utilization.
	Utilization float64 `json:"utilization"`
	// MinHolders/MeanHolders/MaxHolders summarize the per-token holder
	// spread |{v : t ∈ p(v)}| at the end of the step — the rarity signal
	// the rarest-first heuristics steer by.
	MinHolders  int     `json:"min_holders"`
	MeanHolders float64 `json:"mean_holders"`
	MaxHolders  int     `json:"max_holders"`
}

// StepCollector implements sim.Observer, accumulating one StepRecord per
// executed timestep into Records. One collector serves one run.
type StepCollector struct {
	totalCap int
	//ocd:scratch accepted moves per base arc ID, this step
	arcLoad []int
	//ocd:scratch arc IDs with non-zero load, for O(touched) reset
	touched []int
	moves   int
	losses  int
	rejects int
	// Records holds the finished per-step records in step order.
	Records []StepRecord
}

var _ sim.Observer = (*StepCollector)(nil)

// NewStepCollector builds a collector for runs over inst (the base
// instance the engine was invoked with).
func NewStepCollector(inst *core.Instance) *StepCollector {
	total := 0
	for _, c := range inst.G.CapsByID() {
		total += c
	}
	return &StepCollector{
		totalCap: total,
		arcLoad:  make([]int, inst.G.NumArcs()),
	}
}

// OnMove implements sim.Observer.
func (c *StepCollector) OnMove(_ int, _ core.Move, arcID int, lost bool, _ *sim.State) {
	if c.arcLoad[arcID] == 0 {
		c.touched = append(c.touched, arcID)
	}
	c.arcLoad[arcID]++
	if lost {
		c.losses++
	} else {
		c.moves++
	}
}

// OnReject implements sim.Observer.
func (c *StepCollector) OnReject(int, core.Move, *sim.State) { c.rejects++ }

// OnStep implements sim.Observer: it closes out the step's record.
func (c *StepCollector) OnStep(step int, _ core.Step, st *sim.State) {
	rec := StepRecord{
		Step:     step,
		Moves:    c.moves,
		Losses:   c.losses,
		Rejects:  c.rejects,
		ArcsUsed: len(c.touched),
	}
	for _, id := range c.touched {
		if c.arcLoad[id] > rec.MaxArcLoad {
			rec.MaxArcLoad = c.arcLoad[id]
		}
		c.arcLoad[id] = 0
	}
	if c.totalCap > 0 {
		rec.Utilization = float64(c.moves+c.losses) / float64(c.totalCap)
	}
	if counts := st.HaveCounts(); len(counts) > 0 {
		rec.MinHolders = counts[0]
		sum := 0
		for _, n := range counts {
			if n < rec.MinHolders {
				rec.MinHolders = n
			}
			if n > rec.MaxHolders {
				rec.MaxHolders = n
			}
			sum += n
		}
		rec.MeanHolders = float64(sum) / float64(len(counts))
	}
	c.Records = append(c.Records, rec)
	c.touched = c.touched[:0]
	c.moves, c.losses, c.rejects = 0, 0, 0
}

// EncodeStepTraceJSONL writes one JSON object per line — the JSONL format
// streaming consumers expect.
func EncodeStepTraceJSONL(w io.Writer, recs []StepRecord) error {
	enc := json.NewEncoder(w)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return fmt.Errorf("trace: encode step trace: %w", err)
		}
	}
	return nil
}

// stepLine is one decoded step-trace line. Its pointer-typed Step shadows
// StepRecord's, so a line without "step" is told apart from step 0.
type stepLine struct {
	StepRecord
	Step *int `json:"step"`
}

// DecodeStepTraceJSONL reads a step trace back, rejecting structurally
// broken input: every line must be an object with a "step", records must
// be contiguous from step 0, counters and holder statistics must be
// non-negative, and min_holders must not exceed max_holders.
func DecodeStepTraceJSONL(r io.Reader) ([]StepRecord, error) {
	dec := json.NewDecoder(r)
	var out []StepRecord
	for {
		var line *stepLine
		if err := dec.Decode(&line); err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return nil, fmt.Errorf("trace: decode step trace: %w", err)
		}
		if line == nil {
			return nil, fmt.Errorf("trace: step trace line %d is null", len(out))
		}
		if line.Step == nil {
			return nil, fmt.Errorf("trace: step trace line %d has no step", len(out))
		}
		rec := line.StepRecord
		rec.Step = *line.Step
		if rec.Step != len(out) {
			return nil, fmt.Errorf("trace: step trace line %d has step %d, want contiguous steps from 0",
				len(out), rec.Step)
		}
		if rec.Moves < 0 || rec.Losses < 0 || rec.Rejects < 0 || rec.ArcsUsed < 0 || rec.MaxArcLoad < 0 {
			return nil, fmt.Errorf("trace: step trace line %d has negative counters: %+v", len(out), rec)
		}
		if rec.Utilization < 0 || rec.MinHolders < 0 || rec.MeanHolders < 0 || rec.MaxHolders < 0 {
			return nil, fmt.Errorf("trace: step trace line %d has a negative utilization or holder count: %+v", len(out), rec)
		}
		if rec.MinHolders > rec.MaxHolders {
			return nil, fmt.Errorf("trace: step trace line %d has min_holders %d above max_holders %d",
				len(out), rec.MinHolders, rec.MaxHolders)
		}
		out = append(out, rec)
	}
}
