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
		row := make([]float64, n)
		for j := range row {
			row[j] = float64(rng.Intn(4))
		}
		p.A = append(p.A, row)
		p.B[i] = float64(2 + rng.Intn(8))
	}
	return p
}

// poolRun is what one solver produced: a cold solve, then a warm resolve
// with the first variable fixed at zero.
type poolRun struct {
	cold, warm *Solution
	tableau    *[]float64
}

func solveAndRelease(p *Problem) (poolRun, error) {
	s, err := NewSolver(p)
	if err != nil {
		return poolRun{}, err
	}
	defer s.Release()
	//ocd:scratchok the test keeps the backing to detect its reuse and to poison it once released
	r := poolRun{tableau: s.tableau}
	if r.cold, err = s.Solve(); err != nil {
		return r, err
	}
	if err := s.SetBounds(0, 0, 0); err != nil {
		return r, err
	}
	r.warm, err = s.Resolve()
	return r, err
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

func drainTableaus() {
	for tableaus.Get() != nil {
	}
}

// TestPooledTableauSolvesLikeFresh solves a larger LP, a smaller one and
// the larger one again, each on a tableau released by the solve before,
// and checks every solve against a solver built on a fresh tableau. A
// released tableau is poisoned with NaN, so a reuse that skipped clearing
// it could not reproduce the fresh results.
func TestPooledTableauSolvesLikeFresh(t *testing.T) {
	large, small := poolProblem(1, 14, 20), poolProblem(2, 5, 7)
	fresh := map[*Problem]poolRun{}
	for _, p := range []*Problem{large, small} {
		drainTableaus()
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
	var last *[]float64
	for round := 0; round < 10; round++ {
		for i, p := range []*Problem{large, small, large} {
			if last != nil {
				for k := range *last {
					(*last)[k] = math.NaN()
				}
			}
			r, err := solveAndRelease(p)
			if err != nil {
				t.Fatal(err)
			}
			if r.tableau == last {
				reused++
			}
			last = r.tableau
			for _, c := range []struct {
				name      string
				got, want *Solution
			}{{"cold", r.cold, fresh[p].cold}, {"warm", r.warm, fresh[p].warm}} {
				if diff := sameSolution(c.got, c.want); diff != "" {
					t.Fatalf("round %d solve %d %s: %s", round, i, c.name, diff)
				}
			}
		}
	}
	if reused == 0 {
		t.Error("no solver reused a released tableau")
	}
}

// TestPooledTableauConcurrent runs the same sequence from several
// goroutines sharing the pool; under -race it checks that a tableau is
// never handed to a second solver while the first still uses it.
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
					if diff := sameSolution(r.cold, want[p].cold); diff != "" {
						errs <- diff
						return
					}
					if diff := sameSolution(r.warm, want[p].warm); diff != "" {
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
	if s.rows != nil || s.tableau != nil {
		t.Error("a released solver still holds its tableau")
	}
}
