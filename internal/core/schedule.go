package core

import (
	"errors"
	"fmt"

	"ocd/internal/tokenset"
)

// Move assigns one token to one arc for one timestep (§3.1).
type Move struct {
	From  int
	To    int
	Token int
}

func (m Move) String() string {
	return fmt.Sprintf("%d-[%d]->%d", m.From, m.Token, m.To)
}

// Step is the set of simultaneous moves of one timestep.
type Step []Move

// Schedule is a distribution schedule: a sequence of timesteps.
type Schedule struct {
	Steps []Step
}

// Makespan returns the number of timesteps (τ, the FOCD objective).
func (s *Schedule) Makespan() int { return len(s.Steps) }

// Moves returns the total number of moves (bandwidth, the EOCD objective).
func (s *Schedule) Moves() int {
	n := 0
	for _, st := range s.Steps {
		n += len(st)
	}
	return n
}

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{Steps: make([]Step, len(s.Steps))}
	for i, st := range s.Steps {
		c.Steps[i] = append(Step(nil), st...)
	}
	return c
}

// Append adds a timestep to the end of the schedule.
func (s *Schedule) Append(st Step) {
	s.Steps = append(s.Steps, st)
}

// ValidationError describes a constraint violation found by Validate.
type ValidationError struct {
	Step   int
	Move   Move
	Reason string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("core: step %d move %v: %s", e.Step, e.Move, e.Reason)
}

// ErrUnsuccessful is returned by Validate when the schedule obeys all move
// constraints but leaves some want set unsatisfied.
var ErrUnsuccessful = errors.New("core: schedule does not satisfy all wants")

// Simulate plays the schedule from the instance's initial possession and
// returns the possession sets after every timestep: result[i] is p_{i}
// with result[0] = h. It does not check constraints; use Validate for that.
func Simulate(inst *Instance, sched *Schedule) [][]tokenset.Set {
	history := make([][]tokenset.Set, 0, len(sched.Steps)+1)
	cur := inst.InitialPossession()
	history = append(history, clonePossession(cur))
	for _, st := range sched.Steps {
		for _, mv := range st {
			cur[mv.To].Add(mv.Token)
		}
		history = append(history, clonePossession(cur))
	}
	return history
}

func clonePossession(p []tokenset.Set) []tokenset.Set {
	c := make([]tokenset.Set, len(p))
	for i := range p {
		c[i] = p[i].Clone()
	}
	return c
}

// Validate checks the schedule against the §3.1 constraints:
//
//   - every move uses an existing arc,
//   - Capacity: at most c(u,v) tokens per arc per timestep,
//   - Possession: a vertex only sends tokens it possesses at the start of
//     the timestep,
//
// and finally that the schedule is successful (w(v) ⊆ p_t(v) for all v).
// The first violated constraint is reported.
func Validate(inst *Instance, sched *Schedule) error {
	cur, err := replayConstraints(inst, sched)
	if err != nil {
		return err
	}
	if !Done(inst, cur) {
		return ErrUnsuccessful
	}
	return nil
}

// ValidateConstraints checks the same move-level constraints as Validate
// but does not require the schedule to satisfy every want. Partial
// schedules — a faulted run that terminated gracefully with unsatisfiable
// receivers, or a run cut off at a step limit — must still be legal move
// sequences under the static model; this is the check they pass.
func ValidateConstraints(inst *Instance, sched *Schedule) error {
	_, err := replayConstraints(inst, sched)
	return err
}

// replayConstraints replays the schedule checking arc existence, capacity,
// and possession, returning the final possession. Capacity is counted per
// arc ID; each run of moves on one arc is looked up once.
func replayConstraints(inst *Instance, sched *Schedule) ([]tokenset.Set, error) {
	if err := inst.Check(); err != nil {
		return nil, err
	}
	cur := inst.InitialPossession()
	used := make([]int, inst.G.NumArcs())
	arcs := inst.G.ArcRun()
	for i, st := range sched.Steps {
		clear(used)
		for _, mv := range st {
			if mv.Token < 0 || mv.Token >= inst.NumTokens {
				return nil, &ValidationError{Step: i, Move: mv, Reason: "token out of range"}
			}
			id := arcs.ID(mv.From, mv.To)
			if id < 0 {
				return nil, &ValidationError{Step: i, Move: mv, Reason: "arc does not exist"}
			}
			capacity := inst.G.CapByID(id)
			used[id]++
			if used[id] > capacity {
				return nil, &ValidationError{
					Step: i, Move: mv,
					Reason: fmt.Sprintf("capacity %d exceeded", capacity),
				}
			}
			if !cur[mv.From].Has(mv.Token) {
				return nil, &ValidationError{
					Step: i, Move: mv,
					Reason: "sender does not possess token at start of timestep",
				}
			}
		}
		for _, mv := range st {
			cur[mv.To].Add(mv.Token)
		}
	}
	return cur, nil
}

// Successful reports whether playing the schedule satisfies every want set,
// without checking move-level constraints.
func Successful(inst *Instance, sched *Schedule) bool {
	cur := inst.InitialPossession()
	for _, st := range sched.Steps {
		for _, mv := range st {
			cur[mv.To].Add(mv.Token)
		}
	}
	return Done(inst, cur)
}
