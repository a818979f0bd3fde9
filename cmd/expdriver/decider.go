package main

import (
	"fmt"
	"os"
	"time"

	"adaptio/internal/benchfmt"
	"adaptio/internal/core"
	"adaptio/internal/experiments"
)

// runDeciderMatrix is the `-decider-matrix` entry point: the Table II
// completion-time grid under every registered decider policy plus the
// never-probe sentinel (experiments.SentinelPolicy), printed as the per-policy comparison table and
// optionally written as a benchfmt JSON artifact (-json-out) in the schema
// of the committed BENCH_decider.json baseline. The run is fully
// deterministic in -seed, so the artifact is byte-reproducible and
// cmd/benchdiff -mode decider can gate it against the baseline.
//
// The two-axis acceptance bound (docs/deciders.md) is enforced here too:
// each learned policy must stay within-or-better on completion time in
// every cell AND waste strictly fewer probes than AlgorithmOne over the
// grid. Exit codes: 0 bound holds, 1 a policy violates it, 2 run errors.
func runDeciderMatrix(seed uint64, jsonOut string) int {
	start := time.Now()
	res, err := experiments.DeciderMatrix(experiments.DeciderMatrixConfig{Seed: seed})
	if err != nil {
		fmt.Fprintf(os.Stderr, "expdriver: decider matrix: %v\n", err)
		return 2
	}
	fmt.Print(res.Render())
	fmt.Printf("  wall %v\n", time.Since(start).Round(time.Millisecond))

	code := 0
	for _, policy := range res.Policies {
		if policy == core.PolicyAlgorithmOne || policy == experiments.SentinelPolicy {
			continue
		}
		violations := res.CheckBound(policy, core.PolicyAlgorithmOne, experiments.DefaultThroughputTolerance)
		for _, v := range violations {
			fmt.Printf("decider-matrix: FAIL: %s violates the %s axis: %s\n", v.Policy, v.Axis, v.Detail)
			code = 1
		}
		if len(violations) == 0 {
			p, w := res.Totals(policy)
			fmt.Printf("decider-matrix: %s holds the two-axis bound (%d probes, %d wasted)\n", policy, p, w)
		}
	}

	if jsonOut != "" {
		f := res.ToBenchFile("decider policy matrix: Table II per policy (cmd/expdriver -decider-matrix)", "current")
		if err := benchfmt.WriteFile(jsonOut, f); err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: %v\n", err)
			return 2
		}
		fmt.Printf("  artifact written to %s\n", jsonOut)
	}
	return code
}
