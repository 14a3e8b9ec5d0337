package lp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// poolProblem draws a feasible, bounded LP: nonnegative rows and right-hand
// sides keep x = 0 feasible, and finite upper bounds keep it bounded.
func poolProblem(seed int64, m, n int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := &Problem{C: make([]float64, n), Up: make([]float64, n), B: make([]float64, m)}
	for j := 0; j < n; j++ {
		p.C[j] = -float64(1 + rng.Intn(9))
		p.Up[j] = float64(1 + rng.Intn(3))
	}
	for i := 0; i < m; i++ {
		var row Row
		for j := 0; j < n; j++ {
			if v := float64(rng.Intn(4)); v != 0 {
				row.Cols = append(row.Cols, j)
				row.Vals = append(row.Vals, v)
			}
		}
		p.A = append(p.A, row)
		p.B[i] = float64(2 + rng.Intn(8))
	}
	return p
}

// poolRun is what one solver produced: a cold solve; a warm resolve
// with the first variable fixed at zero; and, with that variable free
// again, a resolve from the cold optimum's basis restored.
type poolRun struct {
	cold, warm, restored *Solution
	ws                   *workspace
}

func solveAndRelease(p *Problem) (poolRun, error) {
	s, err := NewSolver(p)
	if err != nil {
		return poolRun{}, err
	}
	defer s.Release()
	// The test keeps the workspace to detect its reuse and to poison it
	// once released.
	r := poolRun{ws: s.workspace}
	if r.cold, err = s.Solve(); err != nil {
		return r, err
	}
	snap := s.Snapshot()
	if err := s.SetBounds(0, 0, 0); err != nil {
		return r, err
	}
	if r.warm, err = s.Resolve(); err != nil {
		return r, err
	}
	if err := s.SetBounds(0, 0, p.Up[0]); err != nil {
		return r, err
	}
	if err := s.Restore(snap); err != nil {
		return r, err
	}
	r.restored, err = s.Resolve()
	return r, err
}

// poison overwrites every array of a released workspace, to its full
// capacity, with values no solver may start from: NaN, out-of-range
// indices, true marks and nil rows. A NewSolver that read any of them
// before writing it could not reproduce a fresh solver's results.
func poison(ws *workspace) {
	nan, bad := math.NaN(), math.MaxInt32
	fill(ws.tableau, nan)
	fill(ws.c, nan)
	fill(ws.lo, nan)
	fill(ws.up, nan)
	fill(ws.b, nan)
	fill(ws.cost, nan)
	fill(ws.rhsRows, bad)
	fill(ws.basis, bad)
	fill(ws.rowOf, bad)
	fill(ws.nz, bad)
	fill(ws.leaving, bad)
	fill(ws.entering, bad)
	fill(ws.atUp, true)
	fill(ws.mark, true)
	fill(ws.rows, nil)
}

// fill sets every element of buf, up to its capacity, to v.
func fill[T any](buf []T, v T) {
	buf = buf[:cap(buf)]
	for k := range buf {
		buf[k] = v
	}
}

// sameSolution reports how got differs from want, or "" if it does not:
// status, objective, X and iteration count must be exactly equal.
func sameSolution(got, want *Solution) string {
	if got.Status != want.Status || got.Iterations != want.Iterations ||
		math.Float64bits(got.Objective) != math.Float64bits(want.Objective) || len(got.X) != len(want.X) {
		return fmt.Sprintf("got %v obj %v in %d iterations, want %v obj %v in %d",
			got.Status, got.Objective, got.Iterations, want.Status, want.Objective, want.Iterations)
	}
	for j := range want.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
			return fmt.Sprintf("x%d = %v, want %v", j, got.X[j], want.X[j])
		}
	}
	return ""
}

func drainWorkspaces() {
	for workspaces.Get() != nil {
	}
}

// TestPooledTableauSolvesLikeFresh solves a larger LP, a smaller one and
// the larger one again, each in a workspace released by the solve
// before, and checks every solve, resolve and restore against a solver
// built in a fresh workspace. Every array of a released workspace is
// poisoned, so a reuse that read one before overwriting it could not
// reproduce the fresh results.
func TestPooledTableauSolvesLikeFresh(t *testing.T) {
	large, small := poolProblem(1, 14, 20), poolProblem(2, 5, 7)
	fresh := map[*Problem]poolRun{}
	for _, p := range []*Problem{large, small} {
		drainWorkspaces()
		r, err := solveAndRelease(p)
		if err != nil {
			t.Fatal(err)
		}
		if r.cold.Status != Optimal || r.cold.Iterations == 0 {
			t.Fatalf("fixture LP is %v after %d iterations; want a non-trivial optimum", r.cold.Status, r.cold.Iterations)
		}
		fresh[p] = r
	}

	reused := 0
	var last *workspace
	for round := 0; round < 10; round++ {
		for i, p := range []*Problem{large, small, large} {
			if last != nil {
				poison(last)
			}
			r, err := solveAndRelease(p)
			if err != nil {
				t.Fatal(err)
			}
			if r.ws == last {
				reused++
			}
			last = r.ws
			if diff := sameRun(r, fresh[p]); diff != "" {
				t.Fatalf("round %d solve %d %s", round, i, diff)
			}
		}
	}
	if reused == 0 {
		t.Error("no solver reused a released workspace")
	}
}

// sameRun reports how two runs' solutions differ, or "" if they do not.
func sameRun(got, want poolRun) string {
	for _, c := range []struct {
		name      string
		got, want *Solution
	}{{"cold", got.cold, want.cold}, {"warm", got.warm, want.warm}, {"restored", got.restored, want.restored}} {
		if diff := sameSolution(c.got, c.want); diff != "" {
			return c.name + ": " + diff
		}
	}
	return ""
}

// TestPooledTableauConcurrent runs the same sequence from several
// goroutines sharing the pool; under -race it checks that no array of a
// workspace is handed to a second solver while the first still uses it.
func TestPooledTableauConcurrent(t *testing.T) {
	large, small := poolProblem(1, 14, 20), poolProblem(2, 5, 7)
	want := map[*Problem]poolRun{}
	for _, p := range []*Problem{large, small} {
		r, err := solveAndRelease(p)
		if err != nil {
			t.Fatal(err)
		}
		want[p] = r
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for _, p := range []*Problem{large, small, large} {
					r, err := solveAndRelease(p)
					if err != nil {
						errs <- err.Error()
						return
					}
					if diff := sameRun(r, want[p]); diff != "" {
						errs <- diff
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestReleaseTwiceIsNoop(t *testing.T) {
	s, err := NewSolver(poolProblem(3, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	s.Release()
	s.Release()
	if s.workspace != nil {
		t.Error("a released solver still holds its workspace")
	}
}
