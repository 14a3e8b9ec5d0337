package lp

import (
	"errors"
	"math"
	"testing"
)

// fuzzValues are the numbers a fuzzed problem is made of: small integers
// and fractions of both signs, both zeros, and the non-finite values
// NewSolver must reject.
var fuzzValues = [16]float64{
	0, 1, -1, 2, -2, 0.5, -0.25, 3, -4, 1.5, math.Copysign(0, -1), 7,
	math.NaN(), math.Inf(1), math.Inf(-1), -0.75,
}

// decodeRowsInput turns fuzz bytes into a problem of at most 4 variables
// and 3 rows whose rows may be malformed. The first two bytes give n, m
// and which of Lo and Up are present; then per row a byte gives its
// entry count and whether Vals comes one short or one long, and one byte
// per entry gives its column, in [−1, n], and its value. Costs,
// right-hand sides and bounds follow, one byte each; past the input's
// end every byte reads 0.
func decodeRowsInput(data []byte) *Problem {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	h := next()
	n, m := 1+h%4, (h/4)%4
	flags := next()
	p := &Problem{C: make([]float64, n), A: make([]Row, m), B: make([]float64, m)}
	for i := range p.A {
		b := next()
		k := b % (n + 2)
		for e := 0; e < k; e++ {
			v := next()
			p.A[i].Cols = append(p.A[i].Cols, v%(n+2)-1)
			p.A[i].Vals = append(p.A[i].Vals, fuzzValues[(v/8)%16])
		}
		switch (b / 16) % 8 {
		case 6:
			if k > 0 {
				p.A[i].Vals = p.A[i].Vals[:k-1]
			}
		case 7:
			p.A[i].Vals = append(p.A[i].Vals, 1)
		}
	}
	for j := range p.C {
		p.C[j] = fuzzValues[next()%16]
	}
	for i := range p.B {
		p.B[i] = fuzzValues[next()%16]
	}
	if flags&1 != 0 {
		p.Lo = make([]float64, n)
		for j := range p.Lo {
			p.Lo[j] = fuzzValues[next()%16]
		}
	}
	if flags&2 != 0 {
		p.Up = make([]float64, n)
		for j := range p.Up {
			p.Up[j] = fuzzValues[next()%16]
		}
	}
	return p
}

// errClass names which of NewSolver's input errors err is.
func errClass(err error) string {
	for _, e := range []error{ErrDimensions, ErrNotFinite, ErrBounds} {
		if errors.Is(err, e) {
			return e.Error()
		}
	}
	if err != nil {
		return "other: " + err.Error()
	}
	return "none"
}

// FuzzNewSolverRows builds fuzzed small problems, malformed rows among
// them, through NewSolver and through denseNewSolver, the dense set-up it
// replaced: both must fail with the same error, or build == tableaux and
// solve to the same solution. A panic fails the target.
func FuzzNewSolverRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x0b, 0x02, 0x02, 0x0d, 0x1a, 0x03, 0x0e, 0x15, 0x28,
		0x02, 0x04, 0x01, 0x02, 0x07, 0x0b, 0x03, 0x07, 0x01, 0x0b}) // a valid 2×4 program
	f.Add([]byte{0x06, 0x00, 0x61, 0x0b, 0x11})                         // Vals one short
	f.Add([]byte{0x06, 0x00, 0x70, 0x0b, 0x11})                         // Vals one long
	f.Add([]byte{0x06, 0x00, 0x02, 0x0b, 0x0b})                         // a column twice
	f.Add([]byte{0x06, 0x00, 0x01, 0x60})                               // a NaN coefficient
	f.Add([]byte{0x06, 0x00, 0x01, 0x09})                               // a column past the last
	f.Add([]byte{0x06, 0x01, 0x01, 0x0b, 0x01, 0x01, 0x01, 0x01, 0x0e}) // an infinite lower bound
	f.Add([]byte{0x00, 0x02, 0x01, 0x0d})                               // an infinite upper bound
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeRowsInput(data)
		s, err := NewSolver(p)
		ref, refErr := denseNewSolver(p)
		if got, want := errClass(err), errClass(refErr); got != want {
			t.Fatalf("NewSolver error %q, reference %q on %+v", got, want, p)
		}
		if err != nil {
			return
		}
		defer s.Release()
		if d := stateDiff(s, ref); d != "" {
			t.Fatalf("after construction: %s on %+v", d, p)
		}
		sol, err := s.Solve()
		refSol, refErr := ref.Solve()
		if errClass(err) != errClass(refErr) {
			t.Fatalf("solve error %v, reference %v", err, refErr)
		}
		if err == nil {
			if diff := sameSolution(sol, refSol); diff != "" {
				t.Fatalf("solve: %s", diff)
			}
		}
	})
}
