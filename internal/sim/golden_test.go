package sim_test

// Golden equivalence tests for the step-kernel consolidation: each of the
// three engines (baseline, fault, underlay) is run on seeded transit-stub
// instances for every heuristic — the fault engine also under Bernoulli
// loss, two §6 capacity models of internal/dynamic, the chaos plan, a
// crash-stop source and membership churn — and the observable outcome —
// makespan, moves, rejected, lost, an FNV-1a hash of the full schedule
// and whether the run completed — is pinned against values recorded on
// the pre-kernel engines. Any divergence means the consolidation changed behavior, not
// just structure.
//
// To regenerate the table after an intentional semantic change, run:
//
//	OCD_GOLDEN_PRINT=1 go test ./internal/sim -run TestGoldenEngineEquivalence -v
//
// and paste the printed table over goldenEngineTable below. Regenerating is
// a deliberate act: it asserts the behavior change was intended.

import (
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"ocd/internal/core"
	"ocd/internal/dynamic"
	"ocd/internal/fault"
	"ocd/internal/heuristics"
	"ocd/internal/sim"
	"ocd/internal/topology"
	"ocd/internal/underlay"
	"ocd/internal/workload"
)

// hashSchedule folds every step boundary and move of a schedule into an
// FNV-1a digest, so two schedules hash equal iff they are move-for-move
// identical.
func hashSchedule(sched *core.Schedule) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(x int) {
		v := uint64(x)
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, st := range sched.Steps {
		writeInt(-1) // step boundary marker
		for _, mv := range st {
			writeInt(mv.From)
			writeInt(mv.To)
			writeInt(mv.Token)
		}
	}
	return h.Sum64()
}

// summarize renders one run outcome as a single golden line.
func summarize(res *sim.Result, err error) string {
	if res == nil {
		return fmt.Sprintf("err=%v", err)
	}
	errTag := "nil"
	if err != nil {
		errTag = "stalled"
	}
	return fmt.Sprintf("steps=%d moves=%d rejected=%d lost=%d hash=%016x err=%s completed=%t",
		res.Steps, res.Moves, res.Rejected, res.Lost, hashSchedule(res.Schedule), errTag, res.Completed)
}

// goldenEngineRuns executes the fixed engine × heuristic grid and renders
// one line per cell.
func goldenEngineRuns(t *testing.T) string {
	t.Helper()
	g, err := topology.TransitStubN(36, topology.DefaultCaps, 7)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.SingleFile(g, 24)

	net, err := underlay.RandomNetwork(60, 14, 2, topology.DefaultCaps, 9)
	if err != nil {
		t.Fatal(err)
	}
	instU := workload.SingleFile(net.Overlay, 16)

	instM, err := workload.MultiSender(g, 64, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	// 130 tokens span three tokenset words, the last one partial, so the
	// multiword rows pin every planner's word-by-word paths.
	instW, err := workload.MultiSender(g, 130, 5, 11)
	if err != nil {
		t.Fatal(err)
	}

	// The paper's five, then Local planning from peer views two turns
	// stale, which shares Local's planner but not its delta path.
	names := append(heuristics.Names(), "local-delayed-2")
	factories := append(heuristics.All(), heuristics.LocalDelayed(2))

	var b strings.Builder
	for i, factory := range factories {
		name := names[i]

		res, err := sim.Run(inst, factory, sim.Options{Seed: 11, IdlePatience: 20, Prune: true})
		fmt.Fprintf(&b, "base/%s: %s\n", name, summarize(res, err))

		fres, err := fault.Run(inst, factory, fault.Plan{Loss: fault.Bernoulli{P: 0.15, Seed: 11}},
			sim.Options{Seed: 11, IdlePatience: 30})
		fmt.Fprintf(&b, "fault-bernoulli/%s: %s\n", name, sumFault(fres, err))

		fres, err = fault.Run(inst, factory, fault.Plan{Capacity: dynamic.CrossTraffic{MaxShare: 0.6, Seed: 3}},
			sim.Options{Seed: 11, IdlePatience: 30})
		fmt.Fprintf(&b, "dynamic-cross/%s: %s\n", name, summarize(fres.Result, err))

		fres, err = fault.Run(inst, factory, fault.Plan{Capacity: dynamic.NewAdversary(inst, g.NumArcs()/8)},
			sim.Options{Seed: 11, IdlePatience: 30})
		fmt.Fprintf(&b, "dynamic-adversary/%s: %s\n", name, summarize(fres.Result, err))

		fres, err = fault.Run(inst, factory, fault.AtIntensity(0.35, 13, 0),
			sim.Options{Seed: 11, IdlePatience: 40})
		fmt.Fprintf(&b, "fault-chaos/%s: %s\n", name, sumFault(fres, err))

		fres, err = fault.Run(inst, factory, fault.Plan{
			Crashes: fault.CrashSchedule{Events: []fault.CrashEvent{
				{V: 0, At: 4, RecoverAt: -1},
			}},
			StateLoss: fault.DropAll,
		}, sim.Options{Seed: 11, IdlePatience: 40})
		fmt.Fprintf(&b, "fault-crash/%s: %s\n", name, sumFault(fres, err))

		fres, err = fault.Run(inst, factory, fault.Plan{
			Crashes:   fault.NewRandomChurn(0.01, 0.5, 21, 0),
			StateLoss: fault.DropAll,
		}, sim.Options{Seed: 11, IdlePatience: 40})
		fmt.Fprintf(&b, "fault-churn/%s: %s\n", name, sumFault(fres, err))

		ures, err := net.Run(instU, factory, sim.Options{Seed: 11, IdlePatience: 30})
		fmt.Fprintf(&b, "underlay/%s: %s\n", name, summarize(ures, err))

		res, err = sim.Run(instM, factory, sim.Options{Seed: 11, IdlePatience: 20})
		fmt.Fprintf(&b, "base-multisender/%s: %s\n", name, summarize(res, err))

		fres, err = fault.Run(instM, factory, fault.Plan{Capacity: dynamic.LinkFailure{P: 0.1, Seed: 3}},
			sim.Options{Seed: 11, IdlePatience: 30})
		fmt.Fprintf(&b, "dynamic-link-multisender/%s: %s\n", name, summarize(fres.Result, err))

		res, err = sim.Run(instW, factory, sim.Options{Seed: 11, IdlePatience: 20})
		fmt.Fprintf(&b, "base-multiword/%s: %s\n", name, summarize(res, err))

		fres, err = fault.Run(instW, factory, fault.Plan{
			Crashes: fault.CrashSchedule{Events: []fault.CrashEvent{
				{V: 0, At: 4, RecoverAt: -1},
			}},
			StateLoss: fault.DropAll,
		}, sim.Options{Seed: 11, IdlePatience: 40})
		fmt.Fprintf(&b, "fault-crash-multiword/%s: %s\n", name, sumFault(fres, err))
	}
	return b.String()
}

func sumFault(res *fault.Result, err error) string {
	if res == nil {
		return fmt.Sprintf("err=%v", err)
	}
	// Every engine finalizes its metrics, even on a stall; the graceful
	// flag is part of the pinned behavior.
	return fmt.Sprintf("%s graceful=%v", summarize(res.Result, err), res.Graceful)
}

func TestGoldenEngineEquivalence(t *testing.T) {
	got := goldenEngineRuns(t)
	if os.Getenv("OCD_GOLDEN_PRINT") != "" {
		fmt.Print(got)
		return
	}
	want := strings.TrimPrefix(goldenEngineTable, "\n")
	if got == want {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(want, "\n")
	for i := range gotLines {
		if i >= len(wantLines) {
			t.Errorf("extra line %d: %s", i, gotLines[i])
			continue
		}
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got: %s\nwant: %s", i, gotLines[i], wantLines[i])
		}
	}
	if len(wantLines) > len(gotLines) {
		t.Errorf("missing %d lines", len(wantLines)-len(gotLines))
	}
}

// goldenEngineTable was recorded on the pre-kernel engines (commit
// f592303); the unified kernel must reproduce it byte for byte. The
// fault-bernoulli rows were recorded later, on the fault engine (DESIGN.md,
// "One way to perturb a network"). The fault-churn rows were recorded on
// the fault engine's separate membership-churn model, before churn became
// a crash plan with DropAll; the crash plan reproduces them unedited.
// The base-multisender and dynamic-link-multisender rows pin multi-file
// instances, where tokens start at several sources; they were recorded
// before the strategies began planning from each step's deliveries.
// The local-delayed-2 rows pin stale-view planning under every engine;
// they were recorded while the delayed variant still kept its own copy of
// Local's request rule. The completed= field was added to every row
// without changing any other: only underlay/roundrobin is false, a run
// cut off at the underlay engine's 4H + patience step limit of 862.
// The base-multiword and fault-crash-multiword rows pin a 130-token
// multi-sender instance, three tokenset words with the last one partial,
// under sim.Run and under the fault-crash rows' DropAll crash plan; they
// were recorded before Global's pick began walking its candidates a word
// at a time through per-turn level sets, and are not to be edited for it.
// Their fault-crash rows are completed=false graceful=true: the run stops
// once every remaining want has lost its last live holder.
const goldenEngineTable = `
base/roundrobin: steps=12 moves=7999 rejected=0 lost=0 hash=deff66d945966b21 err=nil completed=true
fault-bernoulli/roundrobin: steps=33 moves=24975 rejected=0 lost=3730 hash=cd5cba267784f3f2 err=nil completed=true graceful=false
dynamic-cross/roundrobin: steps=21 moves=9758 rejected=0 lost=0 hash=29a86cc46a8089b1 err=nil completed=true
dynamic-adversary/roundrobin: steps=62 moves=39009 rejected=0 lost=0 hash=51f1bee87de23b28 err=nil completed=true
fault-chaos/roundrobin: steps=314 moves=234114 rejected=0 lost=20114 hash=9990d09f4aa0d15b err=nil completed=true graceful=false
fault-crash/roundrobin: steps=12 moves=6895 rejected=0 lost=0 hash=a63f3a589c6d5499 err=nil completed=true graceful=false
fault-churn/roundrobin: steps=16 moves=11112 rejected=0 lost=0 hash=c8f4d49b27b51409 err=nil completed=true graceful=false
underlay/roundrobin: steps=862 moves=91997 rejected=207885 lost=0 hash=3542a99fa61f8c61 err=nil completed=false
base-multisender/roundrobin: steps=40 moves=31185 rejected=0 lost=0 hash=2493e311242d1043 err=nil completed=true
dynamic-link-multisender/roundrobin: steps=41 moves=28515 rejected=0 lost=0 hash=f57176569874db74 err=nil completed=true
base-multiword/roundrobin: steps=65 moves=51225 rejected=0 lost=0 hash=9b7f238087318389 err=nil completed=true
fault-crash-multiword/roundrobin: steps=65 moves=42807 rejected=0 lost=0 hash=50b4d42f474f452c err=nil completed=false graceful=true
base/random: steps=11 moves=974 rejected=0 lost=0 hash=e31e07aa661ad489 err=nil completed=true
fault-bernoulli/random: steps=13 moves=1162 rejected=0 lost=192 hash=323bef5d8f1a5be8 err=nil completed=true graceful=false
dynamic-cross/random: steps=19 moves=968 rejected=0 lost=0 hash=28845ccabc3baf86 err=nil completed=true
dynamic-adversary/random: steps=46 moves=964 rejected=0 lost=0 hash=695d1568009b86dc err=nil completed=true
fault-chaos/random: steps=184 moves=3362 rejected=0 lost=252 hash=0a1fee599fc5bcd1 err=nil completed=true graceful=false
fault-crash/random: steps=11 moves=965 rejected=0 lost=0 hash=13a57f04472c3c6a err=nil completed=true graceful=false
fault-churn/random: steps=16 moves=1067 rejected=0 lost=0 hash=aeb7796f6fcacbc4 err=nil completed=true graceful=false
underlay/random: steps=10 moves=253 rejected=387 lost=0 hash=39213da23a77b351 err=nil completed=true
base-multisender/random: steps=24 moves=2577 rejected=0 lost=0 hash=376c2909596da9c3 err=nil completed=true
dynamic-link-multisender/random: steps=27 moves=2575 rejected=0 lost=0 hash=7e591b777e08817d err=nil completed=true
base-multiword/random: steps=48 moves=5196 rejected=0 lost=0 hash=65a205ef9578e957 err=nil completed=true
fault-crash-multiword/random: steps=47 moves=4313 rejected=0 lost=0 hash=ec55c244df7d416e err=nil completed=false graceful=true
base/local: steps=11 moves=936 rejected=0 lost=0 hash=27422782b91fce41 err=nil completed=true
fault-bernoulli/local: steps=13 moves=1115 rejected=0 lost=179 hash=2351633cf1bd001d err=nil completed=true graceful=false
dynamic-cross/local: steps=19 moves=936 rejected=0 lost=0 hash=66f41fe4d7a5455f err=nil completed=true
dynamic-adversary/local: steps=45 moves=936 rejected=0 lost=0 hash=9a2ad81082432d3f err=nil completed=true
fault-chaos/local: steps=184 moves=2753 rejected=0 lost=204 hash=3b48ca48609433c8 err=nil completed=true graceful=false
fault-crash/local: steps=11 moves=936 rejected=0 lost=0 hash=9166cbb9c51c2fdc err=nil completed=true graceful=false
fault-churn/local: steps=15 moves=1008 rejected=0 lost=0 hash=b393d25fefa88a8d err=nil completed=true graceful=false
underlay/local: steps=9 moves=208 rejected=170 lost=0 hash=d132562d5b132784 err=nil completed=true
base-multisender/local: steps=12 moves=2295 rejected=0 lost=0 hash=20537fc6496fac94 err=nil completed=true
dynamic-link-multisender/local: steps=12 moves=2133 rejected=0 lost=0 hash=03a7c70dcffd9e5c err=nil completed=true
base-multiword/local: steps=31 moves=5015 rejected=0 lost=0 hash=ba777b63a5d74897 err=nil completed=true
fault-crash-multiword/local: steps=23 moves=3986 rejected=0 lost=0 hash=f6f8b5a7bd2c2a97 err=nil completed=false graceful=true
base/bandwidth: steps=11 moves=936 rejected=0 lost=0 hash=24d212ba6685218c err=nil completed=true
fault-bernoulli/bandwidth: steps=13 moves=1111 rejected=0 lost=175 hash=84d7e443aadee8ae err=nil completed=true graceful=false
dynamic-cross/bandwidth: steps=19 moves=936 rejected=0 lost=0 hash=b95e78562b9069ce err=nil completed=true
dynamic-adversary/bandwidth: steps=45 moves=936 rejected=0 lost=0 hash=ce5a968c07a624a1 err=nil completed=true
fault-chaos/bandwidth: steps=184 moves=2764 rejected=0 lost=215 hash=d752603a8c8c7cb5 err=nil completed=true graceful=false
fault-crash/bandwidth: steps=11 moves=936 rejected=0 lost=0 hash=3fbd68faa2e05bc0 err=nil completed=true graceful=false
fault-churn/bandwidth: steps=15 moves=1008 rejected=0 lost=0 hash=333908d6c87b1781 err=nil completed=true graceful=false
underlay/bandwidth: steps=8 moves=208 rejected=142 lost=0 hash=49d18fc228474d05 err=nil completed=true
base-multisender/bandwidth: steps=11 moves=816 rejected=0 lost=0 hash=e50427217d32f052 err=nil completed=true
dynamic-link-multisender/bandwidth: steps=14 moves=820 rejected=0 lost=0 hash=980a9047d409566b err=nil completed=true
base-multiword/bandwidth: steps=18 moves=1514 rejected=0 lost=0 hash=0390fc3d29b3f226 err=nil completed=true
fault-crash-multiword/bandwidth: steps=18 moves=1345 rejected=0 lost=0 hash=74594123b651d709 err=nil completed=false graceful=true
base/global: steps=11 moves=936 rejected=0 lost=0 hash=d2b9d795811129f2 err=nil completed=true
fault-bernoulli/global: steps=13 moves=1115 rejected=0 lost=179 hash=16eec66fb25c3cdb err=nil completed=true graceful=false
dynamic-cross/global: steps=19 moves=936 rejected=0 lost=0 hash=04828daf54f63583 err=nil completed=true
dynamic-adversary/global: steps=45 moves=936 rejected=0 lost=0 hash=411db6a3fe247931 err=nil completed=true
fault-chaos/global: steps=184 moves=2760 rejected=0 lost=211 hash=0466b97462cd3d66 err=nil completed=true graceful=false
fault-crash/global: steps=11 moves=936 rejected=0 lost=0 hash=452c5cfe2600cced err=nil completed=true graceful=false
fault-churn/global: steps=15 moves=1008 rejected=0 lost=0 hash=30d52281521eae2c err=nil completed=true graceful=false
underlay/global: steps=8 moves=208 rejected=168 lost=0 hash=bec595151032bff4 err=nil completed=true
base-multisender/global: steps=11 moves=2244 rejected=0 lost=0 hash=1ffc7a4d4b37ac5d err=nil completed=true
dynamic-link-multisender/global: steps=14 moves=2258 rejected=0 lost=0 hash=a4b9ac4a28043830 err=nil completed=true
base-multiword/global: steps=31 moves=5015 rejected=0 lost=0 hash=da34a7d5a8bcef97 err=nil completed=true
fault-crash-multiword/global: steps=22 moves=3945 rejected=0 lost=0 hash=1e224af22c1fed7d err=nil completed=false graceful=true
base/local-delayed-2: steps=18 moves=936 rejected=0 lost=0 hash=d4c286202f7272c5 err=nil completed=true
fault-bernoulli/local-delayed-2: steps=20 moves=1098 rejected=0 lost=162 hash=7fd65f52e7790f0a err=nil completed=true graceful=false
dynamic-cross/local-delayed-2: steps=25 moves=936 rejected=0 lost=0 hash=3a01aa23b15dbf6c err=nil completed=true
dynamic-adversary/local-delayed-2: steps=80 moves=936 rejected=0 lost=0 hash=6f5cbcba9f530625 err=nil completed=true
fault-chaos/local-delayed-2: steps=184 moves=2799 rejected=7 lost=266 hash=24d6fcee43f60d53 err=nil completed=true graceful=false
fault-crash/local-delayed-2: steps=18 moves=936 rejected=0 lost=0 hash=ad69a3358cd716e7 err=nil completed=true graceful=false
fault-churn/local-delayed-2: steps=27 moves=1144 rejected=14 lost=0 hash=2ebc69f3838a2601 err=nil completed=true graceful=false
underlay/local-delayed-2: steps=13 moves=208 rejected=132 lost=0 hash=ec3e0a76d5be9eb4 err=nil completed=true
base-multisender/local-delayed-2: steps=21 moves=2411 rejected=0 lost=0 hash=8a381b7351ae60fb err=nil completed=true
dynamic-link-multisender/local-delayed-2: steps=21 moves=2355 rejected=0 lost=0 hash=611d8ea780f8c7a1 err=nil completed=true
base-multiword/local-delayed-2: steps=41 moves=5027 rejected=0 lost=0 hash=e36029236bf3f592 err=nil completed=true
fault-crash-multiword/local-delayed-2: steps=36 moves=3513 rejected=0 lost=0 hash=b2895c45355c5987 err=nil completed=false graceful=true
`
