// Provisioning (§V future work): find the cheapest deployment that meets
// consistency, throughput and failure constraints, then validate the
// chosen plan in simulation.
package main

import (
	"fmt"
	"time"

	"repro"
)

func main() {
	catalog := repro.DefaultNodeCatalog()
	workload := repro.ProvisionWorkload{
		OpsPerSecond: 6000,
		ReadFraction: 0.8,
		WriteRate:    25, // writes/s against a read's key
		BaseLatency:  2 * time.Millisecond,
	}

	fmt.Println("constraint sweep: cheapest feasible deployment per requirement")
	fmt.Printf("%-44s %s\n", "constraints", "plan")
	for _, c := range []repro.ProvisionConstraints{
		{RF: 3, ReadLevel: 1, WriteLevel: 1, MaxStaleRate: 0.20, MinThroughput: 6000, FailureBudget: 0},
		{RF: 3, ReadLevel: 1, WriteLevel: 1, MaxStaleRate: 0.05, MinThroughput: 6000, FailureBudget: 0},
		{RF: 3, ReadLevel: 2, WriteLevel: 2, MaxStaleRate: 0.01, MinThroughput: 6000, FailureBudget: 1},
		{RF: 5, ReadLevel: 3, WriteLevel: 3, MaxStaleRate: 0.00, MinThroughput: 9000, FailureBudget: 2},
	} {
		best, considered := repro.OptimizeProvision(catalog, workload, c, 100)
		label := fmt.Sprintf("RF%d R%d/W%d stale≤%.0f%% thr≥%.0f fail≤%d",
			c.RF, c.ReadLevel, c.WriteLevel, 100*c.MaxStaleRate, c.MinThroughput, c.FailureBudget)
		if best.Feasible {
			fmt.Printf("%-44s %s\n", label, best.String())
		} else {
			fmt.Printf("%-44s no feasible plan in %d candidates\n", label, len(considered))
		}
	}

	// Show why cheaper plans were rejected for the strictest constraint.
	c := repro.ProvisionConstraints{RF: 3, ReadLevel: 1, WriteLevel: 1,
		MaxStaleRate: 0.05, MinThroughput: 6000, FailureBudget: 0}
	fmt.Print("\ncandidate ladder for the 5-percent staleness constraint (m1.large):\n")
	_, ladder := repro.OptimizeProvision(catalog[1:2], workload, c, 12)
	for _, p := range ladder {
		fmt.Printf("  %2d nodes: $%.2f/h  %-8s %s\n", p.Nodes, p.HourlyCost,
			map[bool]string{true: "FEASIBLE", false: "rejected"}[p.Feasible], p.Reason)
	}
}
