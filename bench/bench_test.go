package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ocd"
)

// small is a reduced scale for every workload, fast enough for -race.
var small = map[string]scale{
	"static-grid":      {sizes: []int{24}, graphs: 1, repeats: 1},
	"multifile-sparse": {sizes: []int{24}, graphs: 1, repeats: 1},
	"faulted":          {sizes: []int{24}, graphs: 1, repeats: 1, physN: 40, hosts: 8},
	"solver":           {tiny: 4},
}

// TestWorkloads runs every workload at a reduced size serially, in
// parallel, and traced: every check passes, the three output digests agree,
// and the traced pass yields every per-layer metric.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			st := newTracer(time.Now(), -1)
			root := st.begin("bench.setup", -1)
			jobs, err := w.setup(3, small[w.name], st)
			st.end(root)
			if err != nil {
				t.Fatal(err)
			}
			serial := mustPass(t, jobs, 1, false)
			parallel := mustPass(t, jobs, 2, false)
			traced := mustPass(t, jobs, 2, true)
			if a, b, c := digest(serial.outs), digest(parallel.outs), digest(traced.outs); a != b || a != c {
				t.Errorf("digests differ: serial %x, parallel %x, traced %x", a, b, c)
			}
			vals := layerValues(st.spans, parallel, traced, runtimeStats{})
			for _, d := range perLayer() {
				v, ok := vals[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v (present %v)", d.name, v, ok)
				}
			}
		})
	}
}

func mustPass(t *testing.T, jobs []job, workers int, traced bool) pass {
	t.Helper()
	p, err := runPass(jobs, 3, len(jobs), workers, 0, traced)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.outs) != len(jobs) {
		t.Fatalf("%d of %d cells ran", len(p.outs), len(jobs))
	}
	if n := reportFailures(io.Discard, p.outs); n > 0 {
		reportFailures(testWriter{t}, p.outs)
		t.Fatalf("%d cells failed", n)
	}
	return p
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(b []byte) (int, error) { w.t.Log(string(b)); return len(b), nil }

// TestCorruptedScheduleFails checks that each verifier rejects a broken
// schedule and that the failure is counted.
func TestCorruptedScheduleFails(t *testing.T) {
	g, err := ocd.RandomTopology(20, ocd.DefaultCaps, 5)
	if err != nil {
		t.Fatal(err)
	}
	in, err := build(nil, "k", func() (*ocd.Instance, error) { return ocd.SingleFile(g, 16), nil })
	if err != nil {
		t.Fatal(err)
	}
	f, err := ocd.HeuristicFactory("local")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ocd.RunStrategy(in.inst, f, ocd.RunOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, fail := verifyStatic(nil, in, res); fail != "" {
		t.Fatalf("valid run failed: %s", fail)
	}
	res.Schedule.Steps = res.Schedule.Steps[:len(res.Schedule.Steps)-1]
	_, fail := verifyStatic(nil, in, res)
	if fail == "" {
		t.Fatal("truncated schedule passed verifyStatic")
	}
	if n := reportFailures(io.Discard, []outcome{{key: "k", fail: fail}, {key: "ok"}}); n != 1 {
		t.Fatalf("counted %d failures, want 1", n)
	}

	plan := faultPlans[1].build(1)
	fres, err := ocd.RunFaultedStrategy(in.inst, f, plan, ocd.RunOptions{Seed: 1, IdlePatience: 40})
	if err != nil {
		t.Fatal(err)
	}
	first := fres.Schedule.Steps[0][0]
	fres.Schedule.Steps[0] = append(fres.Schedule.Steps[0], ocd.Move{From: first.To, To: first.From, Token: first.Token})
	if fail := verifyFaulted(nil, in, fres, faultPlans[1].build(1)); fail == "" {
		t.Fatal("schedule with an unpossessed send passed verifyFaulted")
	}

	tiny, err := twoStepInstances(1, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	tin, err := build(nil, "tiny", func() (*ocd.Instance, error) { return tiny[0], nil })
	if err != nil {
		t.Fatal(err)
	}
	if o := solve(nil, tin); o.fail != "" {
		t.Fatalf("solver cell failed: %s", o.fail)
	}
	fast, err := ocd.SolveFOCD(tin.inst, ocd.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fail := verifySolver(nil, tin, 3, fast, fast, fast, fast.Moves()+1); fail == "" {
		t.Fatal("an ILP objective off by one passed verifySolver")
	}
}

// TestSelfTimes checks the span arithmetic: a span's self time is its busy
// time minus its direct children's, and an aggregate span sums its calls.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{}
	root := tr.begin("cell", -1)
	run := tr.begin("run", root)
	plan := tr.aggregate("plan", run)
	tr.add(plan, 10, 15)
	tr.add(plan, 20, 40)
	check := tr.begin("check", root)
	tr.spans[root].Start, tr.spans[root].End, tr.spans[root].Busy = 0, 100, 100
	tr.spans[run].Start, tr.spans[run].End, tr.spans[run].Busy = 5, 65, 60
	tr.spans[check].Start, tr.spans[check].End, tr.spans[check].Busy = 70, 80, 10
	if s := tr.spans[plan]; s.Calls != 2 || s.Busy != 25 || s.Start != 10 || s.End != 40 {
		t.Fatalf("aggregate span = %+v, want 2 calls, busy 25 over [10, 40]", s)
	}
	self := make(map[string]int64)
	addSelfTimes(self, tr.spans)
	for _, w := range []struct {
		name string
		self int64
	}{{"cell", 30}, {"run", 35}, {"plan", 25}, {"check", 10}} {
		if self[w.name] != w.self {
			t.Errorf("self[%s] = %d, want %d", w.name, self[w.name], w.self)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "solver", "-trace", "2"},
		{"-workload", "solver", "-seconds", "0"},
		{"-workload", "solver", "extra"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("run(%q) succeeded", args)
		}
	}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeSpans(filepath.Join(file, "spans"), "solver", nil); err == nil {
		t.Error("writing spans under a regular file succeeded")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads the benchmark emits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer()}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark emits %d", len(c.got), len(c.want))
			continue
		}
		for i, d := range c.want {
			if g := c.got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("BENCHMARK.json metric %d = %+v, want %+v", i, g, d)
			}
		}
	}
}
