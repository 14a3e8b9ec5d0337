// Package analysis hosts the repository's custom static analyzers.
//
// The paper's empirical claims (heuristic rankings, Fig. 1-style sweeps)
// are reproducible only if every simulator run is a pure function of its
// seed, and the fault plans of internal/fault promise byte-identical
// replay. The runtime property tests check that promise per run; the
// analyzers here enforce it at compile time for every future change:
//
//   - detrand forbids wall-clock and global-PRNG randomness inside the
//     deterministic packages, requiring all randomness to flow through an
//     injected *rand.Rand.
//   - maporder flags range-over-map loops whose bodies reach
//     ordering-sensitive sinks (appends, writers, channel sends, float or
//     string accumulation) unless annotated with //ocd:orderinvariant.
//   - checkederr requires callers to consume the errors of every schedule
//     replay: core.Replay, core.Validate, core.ValidateConstraints,
//     fault.Validate and the underlay's Network.Validate, and the facade's
//     ocd.Validate, ocd.ValidateConstraints and ocd.ValidateFaulted.
//   - scratchalias forbids references to designated reusable scratch
//     buffers (//ocd:scratch, or "scratch"-prefixed names) from escaping
//     the call that filled them; safe sites carry //ocd:scratchok.
//   - obspure proves sim.Observer implementations read-only on
//     *sim.State (no writes, no retention of the state or the delivered
//     slice, no handing the state to unvetted callees) and confines
//     StepInterceptor mutation to sanctioned methods called from
//     PreStep.
//   - prngshare keeps every *rand.Rand single-owner: no goroutine
//     handoff, no channel send, no runner cell capturing a stream
//     instead of deriving one from its seed; safe sites carry
//     //ocd:prngok.
//
// The analyzers are wired into `go vet` through cmd/ocdlint, a vettool
// built on golang.org/x/tools/go/analysis/unitchecker:
//
//	go build -o /tmp/ocdlint ./cmd/ocdlint
//	go vet -vettool=/tmp/ocdlint ./...
//
// Each analyzer lives in its own subpackage with analyzertest-based tests
// whose testdata fixtures carry `// want` expectations, mirroring the
// upstream analysistest convention.
package analysis
