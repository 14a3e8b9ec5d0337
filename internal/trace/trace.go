// Package trace serializes OCD instances and schedules to a stable JSON
// format, so generated workloads can be archived, diffed, and replayed
// across runs and tools.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"ocd/internal/core"
	"ocd/internal/graph"
)

// instanceJSON is the on-disk representation of an instance.
type instanceJSON struct {
	Vertices  int       `json:"vertices"`
	NumTokens int       `json:"numTokens"`
	Arcs      []arcJSON `json:"arcs"`
	Have      [][]int   `json:"have"`
	Want      [][]int   `json:"want"`
}

type arcJSON struct {
	From int `json:"from"`
	To   int `json:"to"`
	Cap  int `json:"cap"`
}

type moveJSON struct {
	From  int `json:"from"`
	To    int `json:"to"`
	Token int `json:"token"`
}

type scheduleJSON struct {
	Steps [][]moveJSON `json:"steps"`
}

// EncodeInstance writes the instance as JSON.
func EncodeInstance(w io.Writer, inst *core.Instance) error {
	if err := inst.Check(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	out := instanceJSON{
		Vertices:  inst.N(),
		NumTokens: inst.NumTokens,
		Have:      make([][]int, inst.N()),
		Want:      make([][]int, inst.N()),
	}
	for _, a := range inst.G.Arcs() {
		out.Arcs = append(out.Arcs, arcJSON{From: a.From, To: a.To, Cap: a.Cap})
	}
	for v := 0; v < inst.N(); v++ {
		out.Have[v] = inst.Have[v].Slice()
		out.Want[v] = inst.Want[v].Slice()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// DecodeInstance reads an instance from JSON and validates it.
func DecodeInstance(r io.Reader) (*core.Instance, error) {
	var in instanceJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("trace: decode instance: %w", err)
	}
	if in.Vertices < 0 || in.NumTokens < 0 {
		return nil, fmt.Errorf("trace: negative dimensions (%d vertices, %d tokens)",
			in.Vertices, in.NumTokens)
	}
	if len(in.Have) != in.Vertices || len(in.Want) != in.Vertices {
		return nil, fmt.Errorf("trace: have/want arrays sized %d/%d for %d vertices",
			len(in.Have), len(in.Want), in.Vertices)
	}
	g := graph.New(in.Vertices)
	for _, a := range in.Arcs {
		if err := g.AddArc(a.From, a.To, a.Cap); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	inst := core.NewInstance(g, in.NumTokens)
	for v := 0; v < in.Vertices; v++ {
		for _, t := range in.Have[v] {
			if t < 0 || t >= in.NumTokens {
				return nil, fmt.Errorf("trace: have token %d out of range at vertex %d", t, v)
			}
			inst.Have[v].Add(t)
		}
		for _, t := range in.Want[v] {
			if t < 0 || t >= in.NumTokens {
				return nil, fmt.Errorf("trace: want token %d out of range at vertex %d", t, v)
			}
			inst.Want[v].Add(t)
		}
	}
	if err := inst.Check(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return inst, nil
}

// EncodeSchedule writes the schedule as JSON.
func EncodeSchedule(w io.Writer, sched *core.Schedule) error {
	out := scheduleJSON{Steps: make([][]moveJSON, len(sched.Steps))}
	for i, st := range sched.Steps {
		out.Steps[i] = make([]moveJSON, len(st))
		for j, mv := range st {
			out.Steps[i][j] = moveJSON{From: mv.From, To: mv.To, Token: mv.Token}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// DecodeSchedule reads a schedule from JSON. Pair with core.Validate to
// check it against an instance.
func DecodeSchedule(r io.Reader) (*core.Schedule, error) {
	var in scheduleJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("trace: decode schedule: %w", err)
	}
	sched := &core.Schedule{Steps: make([]core.Step, len(in.Steps))}
	for i, st := range in.Steps {
		sched.Steps[i] = make(core.Step, len(st))
		for j, mv := range st {
			sched.Steps[i][j] = core.Move{From: mv.From, To: mv.To, Token: mv.Token}
		}
	}
	return sched, nil
}
