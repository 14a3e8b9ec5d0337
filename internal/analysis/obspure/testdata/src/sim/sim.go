// Package sim is a fixture stand-in for ocd/internal/sim: the State the
// kernel shares with its hooks, and the Observer / StepInterceptor
// contracts the obspure analyzer enforces.
package sim

// Move and Step mirror the core types the kernel hands to hooks.
type Move struct{ From, To, Token int }

// Step is the delivered-moves slice the kernel reuses between steps.
type Step []Move

// Set mimics tokenset.Set: mutators change the receiver in place.
type Set struct{ bits []uint64 }

func (s Set) Add(t int)              {}
func (s Set) Clear()                 {}
func (s Set) CopyFrom(o Set)         {}
func (s Set) Has(t int) bool         { return false }
func (s Set) Count() int             { return 0 }
func (s Set) UnionWith(o Set)        {}
func (s Set) SetDifference(a, b Set) {}

// State is the kernel's live run state.
type State struct {
	Possess []Set
	Step    int
	counts  []int
}

func (s *State) HaveCounts() []int { return s.counts }
func (s *State) Missing(v int) Set { return Set{} }
func (s *State) Deliver(mv Move)   {}
func (s *State) InvalidateCounts() { s.counts = nil }

// Observer receives per-step callbacks; implementations must be
// read-only.
type Observer interface {
	OnStep(step int, delivered Step, st *State)
	OnMove(step int, mv Move, arcID int, lost bool, st *State)
	OnReject(step int, mv Move, st *State)
}

// StepInterceptor hooks engine semantics into the timestep; only PreStep
// may mutate the state, and only through the sanctioned methods.
type StepInterceptor interface {
	PreStep(step int, st *State)
	StopEarly(step int, st *State) bool
	OnIdleLimit(step int, st *State) bool
}
