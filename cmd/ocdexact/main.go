// Command ocdexact computes certified optimal schedules for small OCD
// instances using the schedule-space branch-and-bound and the §3.4
// time-indexed integer program.
//
//	ocdexact -gadget figure1            # the paper's Figure 1 tension
//	ocdexact -n 4 -tokens 2 -seed 3     # a random tiny instance
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"ocd"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ocdexact:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ocdexact", flag.ContinueOnError)
	var (
		gadget  = fs.String("gadget", "", "named instance: figure1 (overrides -n/-tokens)")
		n       = fs.Int("n", 4, "vertices of the random tiny instance")
		tokens  = fs.Int("tokens", 2, "tokens of the random tiny instance")
		seed    = fs.Int64("seed", 1, "random seed")
		budget  = fs.Int("budget", 0, "search node budget (0 = default)")
		withILP = fs.Bool("ilp", true, "cross-check with the time-indexed ILP")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *n < 2:
		return fmt.Errorf("-n must be at least 2, got %d", *n)
	case *tokens < 1:
		return fmt.Errorf("-tokens must be at least 1, got %d", *tokens)
	case *budget < 0:
		return fmt.Errorf("-budget must be non-negative, got %d", *budget)
	}

	var inst *ocd.Instance
	switch *gadget {
	case "figure1":
		inst = ocd.Figure1Instance()
	case "":
		inst = randomTiny(*n, *tokens, *seed)
	default:
		return fmt.Errorf("unknown gadget %q", *gadget)
	}

	opts := ocd.ExactOptions{MaxNodes: *budget}
	fast, err := ocd.SolveFOCD(inst, opts)
	if err != nil {
		return fmt.Errorf("focd: %w", err)
	}
	fmt.Fprintf(stdout, "FOCD optimum: tau=%d (schedule uses %d moves)\n",
		fast.Makespan(), fast.Moves())

	cheap, err := ocd.SolveEOCD(inst, 0, opts)
	if err != nil {
		return fmt.Errorf("eocd: %w", err)
	}
	fmt.Fprintf(stdout, "EOCD optimum: bandwidth=%d (schedule takes %d timesteps)\n",
		cheap.Moves(), cheap.Makespan())

	atFast, err := ocd.SolveEOCD(inst, fast.Makespan(), opts)
	if err != nil {
		return fmt.Errorf("eocd@tau*: %w", err)
	}
	fmt.Fprintf(stdout, "min bandwidth at tau*=%d: %d moves\n", fast.Makespan(), atFast.Moves())

	if *withILP && fast.Makespan() == 0 {
		// The time-indexed program needs a horizon of at least one step.
		fmt.Fprintln(stdout, "ILP skipped: the instance is satisfied without moves")
	} else if *withILP {
		for _, tau := range []int{fast.Makespan(), cheap.Makespan()} {
			sched, obj, err := ocd.SolveILP(inst, tau)
			if err != nil {
				return fmt.Errorf("ilp tau=%d: %w", tau, err)
			}
			fmt.Fprintf(stdout, "ILP tau=%d: bandwidth=%d timesteps=%d\n",
				tau, obj, sched.Makespan())
		}
	}
	return nil
}

// randomTiny builds a small random connected instance for the exact
// solvers.
func randomTiny(n, m int, seed int64) *ocd.Instance {
	rng := rand.New(rand.NewSource(seed))
	g := ocd.NewGraph(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		_ = g.AddEdge(perm[i], perm[rng.Intn(i)], 1+rng.Intn(2))
	}
	inst := ocd.NewInstance(g, m)
	for t := 0; t < m; t++ {
		inst.Have[rng.Intn(n)].Add(t)
		inst.Want[rng.Intn(n)].Add(t)
	}
	return inst
}
