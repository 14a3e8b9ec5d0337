package ilp

import (
	"errors"
	"fmt"

	"ocd/internal/core"
)

// SolveFOCD finds the minimum makespan via the time-indexed program:
// the Decisional FOCD problem (§3.2) asks whether a schedule of length τ*
// exists, which is exactly the feasibility of the τ*-horizon program.
// Starting from the admissible §5.1 lower bound, the horizon grows
// geometrically until feasible and the answer is then pinned by binary
// search — O(log τ*) ILP feasibility probes in total.
//
// It returns a schedule of optimal length together with the optimum. The
// schedule additionally has minimum bandwidth among schedules of that
// length (the program's objective), which SolveFOCD reports as well.
func SolveFOCD(inst *core.Instance, opts Options) (*core.Schedule, int, error) {
	if err := inst.Check(); err != nil {
		return nil, 0, err
	}
	if core.Done(inst, inst.InitialPossession()) {
		return &core.Schedule{}, 0, nil
	}
	arrivals := core.NewArrivals(inst, nil)
	if !arrivals.Satisfiable() {
		return nil, 0, fmt.Errorf("ilp: %w", errUnsat)
	}
	lo := arrivals.Bound()
	if lo < 1 {
		lo = 1
	}
	horizon := inst.TheoremOneHorizon()

	// Geometric search for a feasible horizon.
	hi := lo
	var hiSched *core.Schedule
	for {
		sched, _, err := solveAt(inst, hi, opts)
		if err == nil {
			hiSched = sched
			break
		}
		if !errors.Is(err, ErrInfeasible) {
			return nil, 0, err
		}
		if hi >= horizon {
			return nil, 0, fmt.Errorf("ilp: infeasible within the Theorem 1 horizon %d", horizon)
		}
		lo = hi + 1
		hi *= 2
		if hi > horizon {
			hi = horizon
		}
	}
	// Binary search for the smallest feasible τ in [lo, hi].
	for lo < hi {
		mid := (lo + hi) / 2
		sched, _, err := solveAt(inst, mid, opts)
		switch {
		case err == nil:
			hi = mid
			hiSched = sched
		case errors.Is(err, ErrInfeasible):
			lo = mid + 1
		default:
			return nil, 0, err
		}
	}
	return hiSched, hi, nil
}

var errUnsat = errors.New("instance unsatisfiable")

func solveAt(inst *core.Instance, tau int, opts Options) (*core.Schedule, int, error) {
	prog, err := Build(inst, tau)
	if err != nil {
		return nil, 0, err
	}
	return prog.Solve(opts)
}
