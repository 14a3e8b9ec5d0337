package topology

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestRandomStronglyConnected(t *testing.T) {
	for _, n := range []int{2, 5, 20, 100} {
		for seed := int64(0); seed < 3; seed++ {
			g, err := Random(n, DefaultCaps, seed)
			if err != nil {
				t.Fatalf("Random(%d, seed=%d): %v", n, seed, err)
			}
			if g.N() != n {
				t.Errorf("n=%d: got %d vertices", n, g.N())
			}
			if !g.StronglyConnected() {
				t.Errorf("Random(%d, seed=%d) not strongly connected", n, seed)
			}
		}
	}
}

func TestRandomCapacitiesInRange(t *testing.T) {
	g, err := Random(50, CapRange{Min: 3, Max: 15}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range g.Arcs() {
		if a.Cap < 3 || a.Cap > 15 {
			t.Errorf("capacity %d outside [3,15]", a.Cap)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a, err := Random(40, DefaultCaps, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(40, DefaultCaps, 99)
	if err != nil {
		t.Fatal(err)
	}
	arcsA, arcsB := a.Arcs(), b.Arcs()
	if len(arcsA) != len(arcsB) {
		t.Fatalf("arc counts differ: %d vs %d", len(arcsA), len(arcsB))
	}
	for i := range arcsA {
		if arcsA[i] != arcsB[i] {
			t.Fatalf("arc %d differs: %v vs %v", i, arcsA[i], arcsB[i])
		}
	}
}

func TestRandomEdgeDensity(t *testing.T) {
	// The paper chooses p = 2·ln n/n so the expected undirected edge count
	// is n·ln n; allow a generous band.
	n := 200
	g, err := Random(n, DefaultCaps, 5)
	if err != nil {
		t.Fatal(err)
	}
	undirected := g.NumArcs() / 2
	expected := float64(n) * math.Log(float64(n))
	if float64(undirected) < expected/2 || float64(undirected) > expected*2 {
		t.Errorf("edge count %d far from expected %.0f", undirected, expected)
	}
}

func TestRandomErrors(t *testing.T) {
	if _, err := Random(1, DefaultCaps, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := Random(10, CapRange{Min: 0, Max: 5}, 1); err == nil {
		t.Error("zero min capacity accepted")
	}
	if _, err := Random(10, CapRange{Min: 5, Max: 2}, 1); err == nil {
		t.Error("inverted capacity range accepted")
	}
}

func TestTransitStub(t *testing.T) {
	for _, n := range []int{20, 50, 150} {
		g, err := TransitStubN(n, DefaultCaps, 3)
		if err != nil {
			t.Fatalf("TransitStubN(%d): %v", n, err)
		}
		if !g.StronglyConnected() {
			t.Errorf("TransitStubN(%d) not strongly connected", n)
		}
		// Target size is approximate: within 2x.
		if g.N() < n/2 || g.N() > 2*n+20 {
			t.Errorf("TransitStubN(%d) produced %d vertices", n, g.N())
		}
		for _, a := range g.Arcs() {
			if a.Cap < DefaultCaps.Min || a.Cap > DefaultCaps.Max {
				t.Errorf("capacity %d outside range", a.Cap)
			}
		}
	}
}

func TestTransitStubDeterministic(t *testing.T) {
	a, _ := TransitStubN(60, DefaultCaps, 11)
	b, _ := TransitStubN(60, DefaultCaps, 11)
	if a.N() != b.N() || a.NumArcs() != b.NumArcs() {
		t.Fatal("transit-stub generation not deterministic")
	}
}

func TestTransitStubNErrors(t *testing.T) {
	for _, n := range []int{-3, 0, 1} {
		g, err := TransitStubN(n, DefaultCaps, 1)
		if err == nil {
			t.Errorf("TransitStubN(%d) accepted: %d vertices", n, g.N())
			continue
		}
		if want := fmt.Sprintf("got %d", n); !strings.Contains(err.Error(), want) {
			t.Errorf("TransitStubN(%d) error %q does not name n", n, err)
		}
	}
	// The smallest accepted size still builds the default one-domain graph.
	g, err := TransitStubN(2, DefaultCaps, 1)
	if err != nil {
		t.Fatalf("TransitStubN(2): %v", err)
	}
	if g.N() != 40 {
		t.Errorf("TransitStubN(2) produced %d vertices, want 40", g.N())
	}
}

func TestTransitStubParamErrors(t *testing.T) {
	if _, err := TransitStub(TransitStubParams{TransitDomains: 0, TransitSize: 1, StubSize: 1, Caps: DefaultCaps}, 1); err == nil {
		t.Error("zero transit domains accepted")
	}
	p := DefaultTransitStub(50)
	p.Caps = CapRange{Min: -1, Max: 3}
	if _, err := TransitStub(p, 1); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestFixtures(t *testing.T) {
	tests := []struct {
		name      string
		build     func() (int, error)
		wantArcs  int
		connected bool
	}{
		{"line", func() (int, error) {
			g, err := Line(5, 2)
			if err != nil {
				return 0, err
			}
			if !g.StronglyConnected() {
				t.Error("line not strongly connected")
			}
			return g.NumArcs(), nil
		}, 8, true},
		{"ring", func() (int, error) {
			g, err := Ring(5, 1)
			if err != nil {
				return 0, err
			}
			if got := g.Diameter(); got != 2 {
				t.Errorf("ring diameter = %d, want 2", got)
			}
			return g.NumArcs(), nil
		}, 10, true},
		{"star", func() (int, error) {
			g, err := Star(5, 1)
			if err != nil {
				return 0, err
			}
			if got := g.Diameter(); got != 2 {
				t.Errorf("star diameter = %d, want 2", got)
			}
			return g.NumArcs(), nil
		}, 8, true},
		{"complete", func() (int, error) {
			g, err := Complete(4, 1)
			if err != nil {
				return 0, err
			}
			if got := g.Diameter(); got != 1 {
				t.Errorf("complete diameter = %d, want 1", got)
			}
			return g.NumArcs(), nil
		}, 12, true},
		{"grid", func() (int, error) {
			g, err := Grid(3, 3, 1)
			if err != nil {
				return 0, err
			}
			if got := g.Diameter(); got != 4 {
				t.Errorf("grid diameter = %d, want 4", got)
			}
			return g.NumArcs(), nil
		}, 24, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			arcs, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			if arcs != tc.wantArcs {
				t.Errorf("arcs = %d, want %d", arcs, tc.wantArcs)
			}
		})
	}
}

func TestFixtureErrors(t *testing.T) {
	if _, err := Line(0, 1); err == nil {
		t.Error("Line(0) accepted")
	}
	if _, err := Ring(2, 1); err == nil {
		t.Error("Ring(2) accepted")
	}
	if _, err := Star(1, 1); err == nil {
		t.Error("Star(1) accepted")
	}
	if _, err := Complete(1, 1); err == nil {
		t.Error("Complete(1) accepted")
	}
	if _, err := Grid(0, 3, 1); err == nil {
		t.Error("Grid(0,3) accepted")
	}
}
