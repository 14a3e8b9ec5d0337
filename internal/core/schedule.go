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

// ValidationError describes the first move that Replay found breaking a
// constraint.
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

// Rules are what an engine adds to the §3.1 replay; the zero Rules is the
// static model. Both hooks are optional.
type Rules struct {
	// BeginStep runs at the top of each timestep, before its moves are
	// checked. It may edit possession (a crash wiping a vertex's state) or
	// only observe it.
	BeginStep func(step int, possess []tokenset.Set)
	// CheckMove runs for each move on an existing arc, after the range and
	// arc checks and before capacity and possession. It returns the arc's
	// capacity at this step, which replaces the static c(u,v), and why the
	// move breaks one of the engine's own rules, or "".
	CheckMove func(step int, mv Move, arcID int) (capacity int, reason string)
}

// Replay plays the schedule from the instance's initial possession and
// checks every move, in this order: token range; vertex range and arc
// existence; rules.CheckMove; at most the arc's capacity per timestep;
// and that the sender possessed the token at the start of the timestep.
// A step's deliveries take effect once all its moves pass. Replay returns
// the final possession, Instance.Check's error, or the first violation as
// a *ValidationError. Arcs are looked up once per run of moves on one pair
// and capacity is counted per arc ID, so a run split by another arc
// cannot reset it.
func Replay(inst *Instance, sched *Schedule, rules Rules) ([]tokenset.Set, error) {
	if err := inst.Check(); err != nil {
		return nil, err
	}
	cur := inst.InitialPossession()
	used := make([]int, inst.G.NumArcs())
	arcs := inst.G.ArcRun()
	for i, st := range sched.Steps {
		if rules.BeginStep != nil {
			rules.BeginStep(i, cur)
		}
		clear(used)
		for _, mv := range st {
			if mv.Token < 0 || mv.Token >= inst.NumTokens {
				return nil, &ValidationError{Step: i, Move: mv, Reason: "token out of range"}
			}
			id := arcs.ID(mv.From, mv.To)
			if id < 0 {
				reason := "arc does not exist"
				if n := inst.N(); mv.From < 0 || mv.From >= n || mv.To < 0 || mv.To >= n {
					reason = "vertex out of range"
				}
				return nil, &ValidationError{Step: i, Move: mv, Reason: reason}
			}
			capacity := inst.G.CapByID(id)
			if rules.CheckMove != nil {
				var reason string
				if capacity, reason = rules.CheckMove(i, mv, id); reason != "" {
					return nil, &ValidationError{Step: i, Move: mv, Reason: reason}
				}
			}
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

// Validate is Replay under the static §3.1 model, the zero Rules, plus the
// success check: the final possession must satisfy every want set
// (w(v) ⊆ p_t(v) for all v), or it returns ErrUnsuccessful.
func Validate(inst *Instance, sched *Schedule) error {
	final, err := Replay(inst, sched, Rules{})
	if err != nil {
		return err
	}
	if !Done(inst, final) {
		return ErrUnsuccessful
	}
	return nil
}

// ValidateConstraints is Replay under the static model without the success
// check. Partial schedules — a faulted run that terminated gracefully with
// unsatisfiable receivers, or a run cut off at a step limit — must still be
// legal move sequences under the static model; this is the check they pass.
func ValidateConstraints(inst *Instance, sched *Schedule) error {
	_, err := Replay(inst, sched, Rules{})
	return err
}
