package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/freshness"
	"repro/internal/kv"
	"repro/internal/netsim"
	"repro/internal/power"
	"repro/internal/provision"
	"repro/internal/stats"
	"repro/internal/ycsb"
)

// Extension experiments for the paper's §V future-work directions.

// scaledLaw slows a latency law by a constant factor (CPU frequency
// scaling applied to service times).
type scaledLaw struct {
	inner  netsim.Law
	factor float64
}

func (l scaledLaw) Sample(src *stats.Source) time.Duration {
	return time.Duration(float64(l.inner.Sample(src)) * l.factor)
}

func (l scaledLaw) Mean() time.Duration {
	return time.Duration(float64(l.inner.Mean()) * l.factor)
}

// RunExtPower reproduces the Ext-1 series: energy per consistency level
// under each CPU governor. Governors slow service times by their
// frequency ratio and change the power curve; energy integrates the
// measured per-node utilization.
func RunExtPower(p Platform, seed uint64) *Table {
	model := power.DefaultModel()
	type cell struct {
		lvl kv.Level
		g   power.Governor
	}
	var cells []cell
	specs := []RunSpec{}
	for _, lvl := range []kv.Level{kv.One, kv.Quorum, kv.All} {
		for _, g := range []power.Governor{power.Performance, power.OnDemand, power.Powersave} {
			slow := model.ServiceSlowdown(g, 0.5)
			cells = append(cells, cell{lvl, g})
			specs = append(specs, RunSpec{
				Platform: p,
				Tuner:    core.StaticTuner{Read: lvl, Write: lvl},
				Seed:     seed,
				Mutate: func(c *kv.Config) {
					c.ReadService = scaledLaw{c.ReadService, slow}
					c.WriteService = scaledLaw{c.WriteService, slow}
				},
			})
		}
	}
	t := NewTable("Ext-1 (§V): power consumption per consistency level — "+p.Name,
		"level", "governor", "throughput(op/s)", "avg util", "avg W/node", "total J", "J/op")
	for i, res := range RunAll(specs) {
		lvl, g := cells[i].lvl, cells[i].g
		elapsed := res.Metrics.Elapsed()
		var usages []power.NodeUsage
		var utilSum float64
		for _, id := range res.Cluster.Topology().Nodes() {
			u := res.Cluster.Node(id).Utilization(elapsed)
			utilSum += u
			usages = append(usages, power.NodeUsage{Utilization: u, Elapsed: elapsed})
		}
		rep := power.ClusterEnergy(model, g, usages, res.Metrics.Ops)
		t.Add(lvl.String(), g.String(), fmt.Sprintf("%.0f", res.Metrics.Throughput()),
			pct(utilSum/float64(len(usages))), fmt.Sprintf("%.1f", rep.AvgWatts),
			fmt.Sprintf("%.0f", rep.Joules), fmt.Sprintf("%.3f", rep.JoulesPer))
	}
	t.Note("stronger levels keep nodes busy longer per operation: more joules per op at equal workload")
	return t
}

// RunExtProvisioning reproduces the Ext-2 series: the optimizer's
// cheapest plan per constraint set, validated by simulating the chosen
// deployment and comparing predicted against measured throughput and
// staleness.
func RunExtProvisioning(seed uint64) *Table {
	catalog := provision.DefaultCatalog()
	w := provision.Workload{
		OpsPerSecond: 3000,
		ReadFraction: 0.8,
		WriteRate:    20,
		BaseLatency:  1500 * time.Microsecond,
	}
	t := NewTable("Ext-2 (§V): provisioning under constraints (predicted vs simulated)",
		"constraints", "plan", "pred thr", "sim thr", "pred stale", "sim stale")
	for _, c := range []provision.Constraints{
		{RF: 3, ReadLevel: 1, WriteLevel: 1, MaxStaleRate: 0.25, MinThroughput: 3000},
		{RF: 3, ReadLevel: 2, WriteLevel: 2, MaxStaleRate: 0.02, MinThroughput: 3000, FailureBudget: 1},
	} {
		best, _ := provision.Optimize(catalog, w, c, 100)
		if !best.Feasible {
			t.Add(constraintLabel(c), "infeasible", "-", "-", "-", "-")
			continue
		}
		thr, stale := simulatePlan(best, w, c, seed)
		t.Add(constraintLabel(c), fmt.Sprintf("%d×%s", best.Nodes, best.Type.Name),
			fmt.Sprintf("%.0f", best.PredThroughput), fmt.Sprintf("%.0f", thr),
			pct(best.PredStaleRate), pct(stale))
	}
	return t
}

func constraintLabel(c provision.Constraints) string {
	return fmt.Sprintf("RF%d R%d/W%d stale≤%.0f%% thr≥%.0f fail≤%d",
		c.RF, c.ReadLevel, c.WriteLevel, 100*c.MaxStaleRate, c.MinThroughput, c.FailureBudget)
}

// simulatePlan builds the planned deployment and offers the workload at
// its target rate (open loop), measuring what the plan actually delivers.
func simulatePlan(plan provision.Plan, w provision.Workload, c provision.Constraints, seed uint64) (thr, stale float64) {
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
	m := rg.drive(runner, ph).Metrics
	return m.Throughput(), m.StaleRate()
}

// RunExtFreshness reproduces the Ext-3 series: deadline compliance and
// enforcement overhead per guarantee tier, with writes at ONE.
func RunExtFreshness(p Platform, seed uint64) *Table {
	t := NewTable("Ext-3 (§V): freshness deadline guarantees — "+p.Name,
		"guarantee", "compliance (no audit)", "compliance (enforced)", "audits", "lagging found", "throughput(op/s)")

	guarantees := []freshness.Guarantee{freshness.Gold, freshness.Silver, freshness.Bronze}
	// Two runs per guarantee — bare baseline and enforced — fanned out as
	// one flat batch; enforcers land in a per-spec slot.
	enforcers := make([]*freshness.Enforcer, len(guarantees))
	specs := make([]RunSpec, 0, 2*len(guarantees))
	for i, g := range guarantees {
		i, g := i, g
		specs = append(specs, RunSpec{
			Platform: p,
			Tuner:    core.StaticTuner{Read: kv.One, Write: kv.One},
			Seed:     seed,
		})
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
	for i, g := range guarantees {
		base, res := results[2*i], results[2*i+1]
		baseCompliance := freshness.Compliance(base.Cluster.Oracle(), g)
		compliance := freshness.Compliance(res.Cluster.Oracle(), g)
		_, audits, lagging := enforcers[i].Stats()
		t.Add(g.String(), pct(baseCompliance), pct(compliance), audits, lagging,
			fmt.Sprintf("%.0f", res.Metrics.Throughput()))
	}
	t.Note("audit reads repair laggard replicas before the deadline; compliance is the oracle-measured fraction of writes fully propagated in time")
	return t
}
