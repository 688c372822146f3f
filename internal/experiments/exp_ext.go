package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/freshness"
	"repro/internal/kv"
	"repro/internal/netsim"
	"repro/internal/provision"
	"repro/internal/stats"
	"repro/internal/ycsb"
)

// Extension experiments for the paper's §V future-work directions.

// RunExtProvisioning reproduces the Ext-2 series: the optimizer's
// cheapest plan per constraint set, validated by simulating the chosen
// deployment and comparing predicted against measured throughput and
// staleness. The simulated throughput counts only the operations that
// succeeded; the failed share beside it is what timed out or found too
// few replicas.
func RunExtProvisioning(seed uint64) *Table {
	catalog := provision.DefaultCatalog()
	w := provision.Workload{
		OpsPerSecond: 3000,
		ReadFraction: 0.8,
		WriteRate:    20,
		BaseLatency:  1500 * time.Microsecond,
	}
	t := NewTable("Ext-2 (§V): provisioning under constraints (predicted vs simulated)",
		"constraints", "plan", "pred thr", "sim goodput", "sim failed", "pred stale", "sim stale")
	for _, c := range []provision.Constraints{
		{RF: 3, ReadLevel: 1, WriteLevel: 1, MaxStaleRate: 0.25, MinThroughput: 3000},
		{RF: 3, ReadLevel: 2, WriteLevel: 2, MaxStaleRate: 0.02, MinThroughput: 3000, FailureBudget: 1},
	} {
		best, _ := provision.Optimize(catalog, w, c, 100)
		if !best.Feasible {
			t.Add(constraintLabel(c), "infeasible", "-", "-", "-", "-", "-")
			continue
		}
		m := simulatePlan(best, w, c, seed)
		failed := m.Timeouts + m.Unavailable
		t.Add(constraintLabel(c), fmt.Sprintf("%d×%s", best.Nodes, best.Type.Name),
			fmt.Sprintf("%.0f", best.PredThroughput),
			fmt.Sprintf("%.0f", float64(m.Ops-failed)/m.Elapsed().Seconds()),
			pct(float64(failed)/float64(m.Ops)), pct(best.PredStaleRate), pct(m.StaleRate()))
	}
	return t
}

func constraintLabel(c provision.Constraints) string {
	return fmt.Sprintf("RF%d R%d/W%d stale≤%.0f%% thr≥%.0f fail≤%d",
		c.RF, c.ReadLevel, c.WriteLevel, 100*c.MaxStaleRate, c.MinThroughput, c.FailureBudget)
}

// simulatePlan builds the planned deployment and offers the workload at
// its target rate (open loop), returning the measured window's metrics.
func simulatePlan(plan provision.Plan, w provision.Workload, c provision.Constraints, seed uint64) *ycsb.Metrics {
	p := Platform{
		Name:  "plan",
		Build: func() *netsim.Topology { return netsim.EC2TwoAZ(plan.Nodes) },
		Nodes: plan.Nodes, RF: c.RF,
		// Open-loop arrivals draw from stream issued % Threads, so the
		// stream count shapes the run like any other input.
		Threads: 16,
		Records: 20000, Ops: uint64(w.OpsPerSecond * 20), ValueBytes: 1024,
		DatasetGB: 1, CrossDCFrac: 0.5,
		ReadService:   stats.NewLogNormal(plan.Type.ReadServiceMean, 0.6),
		WriteService:  stats.NewLogNormal(plan.Type.WriteServiceMean, 0.6),
		CoordOverhead: stats.NewLogNormal(200*time.Microsecond, 0.3),
		Concurrency:   plan.Type.Concurrency,
	}
	rg := newRig(p, seed, nil, nil)
	rg.sess = kv.StaticSession{Cluster: rg.cl,
		ReadLevel: kv.Count(c.ReadLevel), WriteLevel: kv.Count(c.WriteLevel)}
	ph := Phase{Name: "plan", Workload: ycsb.Mix(p.Records, w.ReadFraction, ycsb.DistZipfian, 0.99),
		Ops: p.Ops, Threads: p.Threads, Seed: rg.seed, Rate: w.OpsPerSecond}
	runner := rg.newRunner(ph)
	rg.load(runner)
	return rg.drive(runner, ph).Metrics
}

// RunExtFreshness reproduces the Ext-3 series: deadline compliance and
// enforcement overhead per guarantee tier, with writes at ONE.
func RunExtFreshness(p Platform, seed uint64) *Table {
	t := NewTable("Ext-3 (§V): freshness deadline guarantees — "+p.Name,
		"guarantee", "compliance (no audit)", "compliance (enforced)", "audits", "throughput(op/s)")

	guarantees := []freshness.Guarantee{freshness.Gold, freshness.Silver, freshness.Bronze}
	// One bare baseline, which every guarantee's compliance is measured
	// on, and one enforced run per guarantee, fanned out as one flat
	// batch; enforcers land in a per-spec slot.
	enforcers := make([]*freshness.Enforcer, len(guarantees))
	specs := []RunSpec{{
		Platform: p,
		Tuner:    core.StaticTuner{Read: kv.One, Write: kv.One},
		Seed:     seed,
	}}
	for i, g := range guarantees {
		specs = append(specs, RunSpec{
			Platform: p,
			Tuner:    core.StaticTuner{Read: kv.One, Write: kv.One},
			Seed:     seed,
			Wrap: func(sess kv.Session, cl *kv.Cluster, clock ycsb.Clock) kv.Session {
				enf := freshness.NewEnforcer(sess, cl, clock.(freshness.Clock), g)
				enforcers[i] = enf
				return enf
			},
		})
	}
	results := RunAll(specs)
	base := results[0]
	for i, g := range guarantees {
		res := results[1+i]
		baseCompliance := freshness.Compliance(base.Cluster.Oracle(), g)
		compliance := freshness.Compliance(res.Cluster.Oracle(), g)
		_, audits := enforcers[i].Stats()
		t.Add(g.String(), pct(baseCompliance), pct(compliance), audits,
			fmt.Sprintf("%.0f", res.Metrics.Throughput()))
	}
	t.Note("audit reads repair laggard replicas before the deadline; compliance is the oracle-measured fraction of writes fully propagated in time")
	return t
}
