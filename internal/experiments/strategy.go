package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"ocd/internal/baselines"
	"ocd/internal/fault"
	"ocd/internal/heuristics"
	"ocd/internal/sim"
)

// NamedStrategy resolves a strategy name. It is the one parser of strategy
// names: ocd.HeuristicFactory, the fault sweeps and the architectures table
// all resolve through it. It accepts
//   - the paper's five heuristics and their aliases (heuristics.Named);
//   - "tree" and "forest-K", the §2 single-tree and K-stripe architectures;
//   - "local-delayed-K", Local planning from peer views K turns stale;
//   - "protocol-local", the §4.1 message-passing Local, which gossips over
//     plan.Gossip when the plan has one;
//   - "retry-<name>", any of the above wrapped in the retry-with-backoff
//     sender.
//
// The engine applies the plan's other models itself; callers without a
// plan pass the zero plan.
func NamedStrategy(name string, plan fault.Plan) (sim.Factory, error) {
	if f, ok := heuristics.Named(name); ok {
		return f, nil
	}
	switch name {
	case "tree":
		return baselines.Tree, nil
	case "protocol-local":
		if plan.Gossip != nil {
			return heuristics.ProtocolLocal(plan.Gossip.Drop), nil
		}
		return heuristics.ProtocolLocal(nil), nil
	}
	if inner, ok := strings.CutPrefix(name, "retry-"); ok {
		f, err := NamedStrategy(inner, plan)
		if err != nil {
			return nil, err
		}
		return fault.WithRetry(f, fault.RetryOptions{}), nil
	}
	if k, ok := strings.CutPrefix(name, "forest-"); ok {
		stripes, err := strconv.Atoi(k)
		if err != nil || stripes < 1 {
			return nil, fmt.Errorf("experiments: bad forest stripe count in %q", name)
		}
		return baselines.Forest(stripes), nil
	}
	if d, ok := strings.CutPrefix(name, "local-delayed-"); ok {
		delay, err := strconv.Atoi(d)
		if err != nil || delay < 0 {
			return nil, fmt.Errorf("experiments: bad delay in %q", name)
		}
		return heuristics.LocalDelayed(delay), nil
	}
	return nil, fmt.Errorf("experiments: unknown strategy %q (have %v plus tree, forest-K, protocol-local, local-delayed-K, retry-<name>)",
		name, heuristics.Names())
}

// checkStrategies requires a non-empty list of names NamedStrategy
// resolves.
func checkStrategies(v any) error {
	names := v.([]string)
	if len(names) == 0 {
		return fmt.Errorf("must name at least one heuristic")
	}
	for _, name := range names {
		if _, err := NamedStrategy(name, fault.Plan{}); err != nil {
			return err
		}
	}
	return nil
}
