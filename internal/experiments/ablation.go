package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/harmony"
	"repro/internal/kv"
	"repro/internal/netsim"
	"repro/internal/ycsb"
)

// Ablations of the store's and the tuner's design choices, each against
// the paper's default. Each returns a rendered table; the study audit in
// EXPERIMENTS.md names the test or golden that holds each one's claim.

// RunAblationDigestReads compares QUORUM reads with and without digest
// reads: digests trade a little latency risk (mismatch refetches) for a
// large cut in replica-to-coordinator bytes. A read-mostly mix is used so
// the read path dominates the traffic being compared.
func RunAblationDigestReads(p Platform, seed uint64) ([2]RunResult, *Table) {
	w := ycsb.Mix(p.Records, 0.95, ycsb.DistZipfian, 0.99)
	w.ValueSize = p.ValueBytes
	specs := make([]RunSpec, 2)
	for i, digest := range []bool{true, false} {
		d := digest
		specs[i] = RunSpec{
			Platform: p,
			Tuner:    core.StaticTuner{Read: kv.Quorum, Write: kv.One},
			Workload: w,
			Seed:     seed,
			Mutate:   func(c *kv.Config) { c.DigestReads = d },
		}
	}
	var results [2]RunResult
	copy(results[:], RunAll(specs))
	t := NewTable("Ablation: digest reads (QUORUM reads, "+p.Name+")",
		"digest reads", "throughput(op/s)", "bytes/op (billed)", "read mean")
	for i, digest := range []bool{true, false} {
		r := results[i]
		perOp := float64(r.Traffic.Bytes[netsim.InterDC]+r.Traffic.Bytes[netsim.InterRegion]) /
			float64(r.DrivenOps)
		t.Add(fmt.Sprint(digest), fmt.Sprintf("%.0f", r.Metrics.Throughput()),
			fmt.Sprintf("%.0f", perOp), r.Metrics.ReadLat.Mean().Round(10*time.Microsecond))
	}
	return results, t
}

// RunAblationReadRepair measures how much read repair and the global
// repair chance curb staleness at level ONE.
func RunAblationReadRepair(p Platform, seed uint64) *Table {
	type variant struct {
		name   string
		repair bool
		global float64
	}
	variants := []variant{
		{"off", false, 0},
		{"contacted-only", true, 0},
		{"contacted+10% global", true, 0.1},
		{"contacted+50% global", true, 0.5},
	}
	specs := make([]RunSpec, len(variants))
	for i, v := range variants {
		v := v
		specs[i] = RunSpec{
			Platform: p,
			Tuner:    core.StaticTuner{Read: kv.One, Write: kv.One},
			Seed:     seed,
			Mutate: func(c *kv.Config) {
				c.ReadRepair = v.repair
				c.GlobalRepairChance = v.global
			},
		}
	}
	t := NewTable("Ablation: read repair (level ONE, "+p.Name+")",
		"read repair", "stale reads", "repair writes", "throughput(op/s)")
	for i, res := range RunAll(specs) {
		t.Add(variants[i].name, pct(res.Metrics.StaleRate()), res.Usage.ReadRepairs,
			fmt.Sprintf("%.0f", res.Metrics.Throughput()))
	}
	return t
}

// RunAblationPerKeyRates compares Harmony's aggregate estimator (the
// paper's) against the per-key refinement: the refinement holds lower
// levels for the same tolerance because reads of cold keys stop
// inheriting hot-key staleness.
func RunAblationPerKeyRates(p Platform, alpha float64, seed uint64) ([2]RunResult, *Table) {
	tuners := []core.Tuner{
		harmony.New(alpha, p.RF),
		harmony.New(alpha, p.RF).PerKey(),
	}
	specs := make([]RunSpec, len(tuners))
	for i, tn := range tuners {
		specs[i] = RunSpec{Platform: p, Tuner: tn, Seed: seed}
	}
	var results [2]RunResult
	copy(results[:], RunAll(specs))
	t := NewTable(fmt.Sprintf("Ablation: aggregate vs per-key estimation (harmony α=%.0f%%, %s)", alpha*100, p.Name),
		"estimator", "avg read k", "stale reads", "throughput(op/s)", "level changes")
	for i, name := range []string{"aggregate (paper)", "per-key (refined)"} {
		r := results[i]
		t.Add(name, fmt.Sprintf("%.2f", r.AvgReadK), pct(r.Metrics.StaleRate()),
			fmt.Sprintf("%.0f", r.Metrics.Throughput()), r.LevelChanges)
	}
	return results, t
}

// RunAblationTargetPolicy compares snitch-like closest-replica reads with
// uniform random replica choice.
func RunAblationTargetPolicy(p Platform, seed uint64) *Table {
	policies := []kv.TargetPolicy{kv.TargetClosest, kv.TargetRandom}
	specs := make([]RunSpec, len(policies))
	for i, pol := range policies {
		pol := pol
		specs[i] = RunSpec{
			Platform: p,
			Tuner:    core.StaticTuner{Read: kv.One, Write: kv.One},
			Seed:     seed,
			Mutate:   func(c *kv.Config) { c.ReadTargets = pol },
		}
	}
	t := NewTable("Ablation: read target policy (level ONE, "+p.Name+")",
		"targets", "read mean", "throughput(op/s)", "stale reads")
	for i, res := range RunAll(specs) {
		name := "closest (snitch)"
		if policies[i] == kv.TargetRandom {
			name = "uniform random"
		}
		t.Add(name, res.Metrics.ReadLat.Mean().Round(10*time.Microsecond),
			fmt.Sprintf("%.0f", res.Metrics.Throughput()), pct(res.Metrics.StaleRate()))
	}
	return t
}
