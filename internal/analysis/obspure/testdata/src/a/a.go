// Package a exercises the obspure analyzer: observers that write
// through (or retain) the kernel state must be flagged, interceptors may
// mutate only through sanctioned methods and only in PreStep, and the
// read-only idioms of the real InvariantMonitor must stay silent.
package a

import "sim"

// cleanObserver mirrors trace.InvariantMonitor's read-only patterns.
type cleanObserver struct {
	scratch sim.Set
	seen    []int
}

func (c *cleanObserver) OnStep(step int, delivered sim.Step, st *sim.State) {
	for v, p := range st.Possess {
		// Reading through the state and mutating the observer's own
		// scratch is the sanctioned pattern.
		c.scratch.SetDifference(p, p)
		_ = v
	}
	if counts := st.HaveCounts(); len(counts) > 0 {
		c.seen = append(c.seen, counts[0])
	}
}

func (c *cleanObserver) OnMove(step int, mv sim.Move, arcID int, lost bool, st *sim.State) {
	if !st.Possess[mv.From].Has(mv.Token) {
		c.seen = append(c.seen, mv.Token)
	}
}

func (c *cleanObserver) OnReject(step int, mv sim.Move, st *sim.State) {}

// dirtyObserver commits every forbidden write.
type dirtyObserver struct {
	stash    sim.Step
	lastStep *sim.State
}

func (d *dirtyObserver) OnStep(step int, delivered sim.Step, st *sim.State) {
	st.Step = step        // want `OnStep writes through \*sim\.State \(field store Step\)`
	d.stash = delivered   // want `OnStep retains state or the delivered slice`
	d.lastStep = st       // want `OnStep retains state or the delivered slice`
	st.InvalidateCounts() // want `OnStep calls State\.InvalidateCounts`
	mutateElsewhere(st)   // want `OnStep passes \*sim\.State to a callee`
}

func (d *dirtyObserver) OnMove(step int, mv sim.Move, arcID int, lost bool, st *sim.State) {
	st.Possess[mv.To].Add(mv.Token) // want `OnMove mutates state through Add`
	st.Deliver(mv)                  // want `OnMove calls State\.Deliver`
}

func (d *dirtyObserver) OnReject(step int, mv sim.Move, st *sim.State) {
	st.Possess[mv.To] = sim.Set{} // want `OnReject writes through \*sim\.State \(element store\)`
	p := st.Possess[mv.From]
	p.Clear() // want `OnReject mutates state through Clear`
}

func mutateElsewhere(st *sim.State) { st.Step++ }

// cleanInterceptor mirrors the fault kernel: sanctioned mutation in
// PreStep, read-only decisions elsewhere.
type cleanInterceptor struct {
	down []bool
}

func (f *cleanInterceptor) PreStep(step int, st *sim.State) {
	for v := range f.down {
		if f.down[v] {
			st.Possess[v].Clear() // sanctioned: tokenset mutator in PreStep
		}
	}
	st.InvalidateCounts() // sanctioned: State mutator in PreStep
}

func (f *cleanInterceptor) StopEarly(step int, st *sim.State) bool {
	return settled(st.Possess)
}

func (f *cleanInterceptor) OnIdleLimit(step int, st *sim.State) bool {
	return settled(st.Possess)
}

func settled(possess []sim.Set) bool { return len(possess) == 0 }

// dirtyInterceptor makes structural writes and mutates outside PreStep.
type dirtyInterceptor struct{}

func (f *dirtyInterceptor) PreStep(step int, st *sim.State) {
	st.Possess[0] = sim.Set{} // want `PreStep writes through \*sim\.State \(element store\)`
	st.Possess = nil          // want `PreStep writes through \*sim\.State \(field store Possess\)`
}

func (f *dirtyInterceptor) StopEarly(step int, st *sim.State) bool {
	st.InvalidateCounts() // want `StopEarly calls State\.InvalidateCounts`
	return false
}

func (f *dirtyInterceptor) OnIdleLimit(step int, st *sim.State) bool {
	st.Possess[0].Clear() // want `OnIdleLimit mutates state through Clear`
	return false
}

// notAHook has an OnStep method but implements neither interface (wrong
// signature), so it is not checked.
type notAHook struct{}

func (n *notAHook) OnStep(st *sim.State) { st.Step++ }
