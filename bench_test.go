// Benchmarks regenerating every table and figure of the paper's
// evaluation (§IV) plus the extension and ablation studies DESIGN.md
// indexes. Each benchmark runs the corresponding experiment at a reduced
// scale (same topologies, mixes and client pressure; fewer operations)
// and reports the headline quantities as benchmark metrics. Run
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for paper-vs-measured numbers. cmd/paperbench
// runs the same experiments at arbitrary scales with full tables.
package repro_test

import (
	"os"
	"testing"

	"repro"
	"repro/internal/experiments"
)

// benchScale trades fidelity for bench runtime; platform minimums keep
// the closed loop meaningful (see Platform.Scaled). The PR-2 fast-path
// overhaul made the event core ~3× faster, which paid for raising the
// experiment benches from 0.004 toward paper fidelity.
const benchScale = 0.01

// perfScale is the fixed scale of the perf-tracking benchmark
// (BenchmarkExpAHarmony): it stays at the original 0.004 so wall-clock
// numbers remain comparable across PRs even when benchScale moves.
const perfScale = 0.004

// verbose mirrors -v: render the full experiment tables to stderr.
func render(b *testing.B, t *experiments.Table) {
	b.Helper()
	if testing.Verbose() {
		t.Render(os.Stderr)
	}
}

// BenchmarkExpAHarmony times one end-to-end Harmony run (the unit of
// work every experiment table repeats): wall-clock per run is the
// simulator-throughput headline the performance work tracks, with the
// virtual-ops-per-wall-second rate reported alongside.
func BenchmarkExpAHarmony(b *testing.B) {
	p := experiments.G5KHarmony().Scaled(perfScale)
	var ops uint64
	for i := 0; i < b.N; i++ {
		res := experiments.Run(experiments.RunSpec{
			Platform: p,
			Tuner:    repro.NewHarmonyTuner(0.20, p.RF),
			Seed:     uint64(i + 1),
		})
		ops += res.Metrics.Ops
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(ops)/secs, "vops/s")
	}
}

// BenchmarkFig1ModelValidation regenerates the Figure-1 model check:
// predicted vs measured stale-read rate on a controlled single-key
// workload. Reported metric: mean absolute prediction error.
func BenchmarkFig1ModelValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, table := experiments.RunFig1Validation(uint64(i + 1))
		render(b, table)
		var absErr float64
		for _, r := range rows {
			d := r.Predicted - r.Measured
			if d < 0 {
				d = -d
			}
			absErr += d
		}
		b.ReportMetric(absErr/float64(len(rows)), "meanAbsErr")
	}
}

// benchExpA shares the §IV-A comparison between the two platforms, each
// at the stale rates the paper tolerates on it (Platform.Tolerances).
func benchExpA(b *testing.B, p experiments.Platform) {
	for i := 0; i < b.N; i++ {
		rows, table := experiments.RunExpA(p.Scaled(benchScale), uint64(i+1))
		render(b, table)
		eventual, strong, harmony := rows[0], rows[1], rows[2]
		b.ReportMetric(harmony.Throughput/strong.Throughput, "thrVsStrong")
		if eventual.StaleRate > 0 {
			b.ReportMetric(1-harmony.StaleRate/eventual.StaleRate, "staleCutVsEventual")
		}
		b.ReportMetric(100*harmony.StaleRate, "harmonyStale%")
	}
}

// BenchmarkExpA_Grid5000 regenerates §IV-A on the 84-node Grid'5000
// preset (paper: stale −~80% vs eventual, throughput up to +45% vs
// strong).
func BenchmarkExpA_Grid5000(b *testing.B) {
	benchExpA(b, experiments.G5KHarmony())
}

// BenchmarkExpA_EC2 regenerates §IV-A on the 20-VM EC2 preset.
func BenchmarkExpA_EC2(b *testing.B) {
	benchExpA(b, experiments.EC2Harmony())
}

// BenchmarkExpB_CostPerLevel regenerates the §IV-B cost-vs-level table
// (paper: ONE cuts the bill up to 48% vs ALL; QUORUM 13%; 21% fresh reads
// at ONE).
func BenchmarkExpB_CostPerLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, table := experiments.RunExpB1(experiments.EC2Cost().Scaled(benchScale), uint64(i+1))
		render(b, table)
		one, quorum := rows[0], rows[len(rows)/2]
		b.ReportMetric(100*(1-one.RelToAll), "oneCut%VsAll")
		b.ReportMetric(100*(1-quorum.RelToAll), "quorumCut%VsAll")
		b.ReportMetric(100*(1-one.StaleRate), "oneFresh%")
	}
}

// BenchmarkExpB_EfficiencyMetric regenerates the §IV-B efficiency samples
// (paper: most-efficient levels keep staleness under 20%).
func BenchmarkExpB_EfficiencyMetric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		samples, table := experiments.RunExpB2Metric(experiments.EC2Cost().Scaled(benchScale), uint64(i+1))
		render(b, table)
		worst := 0.0
		for _, s := range samples {
			if s.Best && s.StaleRate > worst {
				worst = s.StaleRate
			}
		}
		b.ReportMetric(100*worst, "worstEfficientStale%")
	}
}

// BenchmarkExpC_Bismar regenerates the §IV-B Bismar comparison (paper:
// −31% cost vs static QUORUM at 3.5% stale reads).
func BenchmarkExpC_Bismar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, table := experiments.RunExpC(experiments.G5KCost(), benchScale, uint64(i+1))
		render(b, table)
		for _, r := range rows {
			if r.Approach == "bismar" {
				b.ReportMetric(100*(1-r.RelToQuorum), "costCut%VsQuorum")
				b.ReportMetric(100*r.StaleRate, "bismarStale%")
			}
		}
	}
}

// BenchmarkExt_PowerPerLevel regenerates the §V power study.
func BenchmarkExt_PowerPerLevel(b *testing.B) {
	p := experiments.EC2Harmony()
	p.Threads = 64
	for i := 0; i < b.N; i++ {
		table := experiments.RunExtPower(p.Scaled(benchScale), uint64(i+1))
		render(b, table)
	}
}

// BenchmarkExt_Provisioning regenerates the §V provisioning study.
func BenchmarkExt_Provisioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table := experiments.RunExtProvisioning(uint64(i + 1))
		render(b, table)
	}
}

// BenchmarkExt_FreshnessDeadlines regenerates the §V bounded-staleness
// study.
func BenchmarkExt_FreshnessDeadlines(b *testing.B) {
	p := experiments.EC2Harmony()
	p.Threads = 64
	for i := 0; i < b.N; i++ {
		table := experiments.RunExtFreshness(p.Scaled(benchScale), uint64(i+1))
		render(b, table)
	}
}

// BenchmarkAblationDigestReads measures the traffic cut of digest reads.
func BenchmarkAblationDigestReads(b *testing.B) {
	p := experiments.EC2Cost()
	p.Threads = 64
	for i := 0; i < b.N; i++ {
		results, table := experiments.RunAblationDigestReads(p.Scaled(benchScale), uint64(i+1))
		render(b, table)
		withBytes := float64(results[0].Traffic.TotalBytes()) / float64(results[0].Metrics.Ops)
		without := float64(results[1].Traffic.TotalBytes()) / float64(results[1].Metrics.Ops)
		if without > 0 {
			b.ReportMetric(withBytes/without, "bytesRatioDigest")
		}
	}
}

// BenchmarkAblationReadRepair measures read repair's staleness effect.
func BenchmarkAblationReadRepair(b *testing.B) {
	p := experiments.EC2Harmony()
	p.Threads = 64
	for i := 0; i < b.N; i++ {
		table := experiments.RunAblationReadRepair(p.Scaled(benchScale), uint64(i+1))
		render(b, table)
	}
}

// BenchmarkAblationMonitorWindow sweeps the monitoring window.
func BenchmarkAblationMonitorWindow(b *testing.B) {
	p := experiments.G5KHarmony()
	for i := 0; i < b.N; i++ {
		table := experiments.RunAblationMonitorWindow(p.Scaled(benchScale), uint64(i+1))
		render(b, table)
	}
}

// BenchmarkAblationBillingGranularity contrasts hourly and per-second
// instance billing on the Exp-B1 usages.
func BenchmarkAblationBillingGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.RunExpB1(experiments.EC2Cost().Scaled(benchScale), uint64(i+1))
		table := experiments.RunAblationBillingGranularity(rows)
		render(b, table)
	}
}

// BenchmarkAblationPerKeyRates compares the aggregate estimator with the
// per-key refinement.
func BenchmarkAblationPerKeyRates(b *testing.B) {
	p := experiments.G5KHarmony()
	for i := 0; i < b.N; i++ {
		results, table := experiments.RunAblationPerKeyRates(p.Scaled(benchScale), 0.20, uint64(i+1))
		render(b, table)
		b.ReportMetric(results[0].AvgReadK, "aggAvgK")
		b.ReportMetric(results[1].AvgReadK, "perKeyAvgK")
	}
}

// BenchmarkAblationTargetPolicy compares snitch-like closest reads with
// uniform random replica choice.
func BenchmarkAblationTargetPolicy(b *testing.B) {
	p := experiments.G5KHarmony()
	for i := 0; i < b.N; i++ {
		table := experiments.RunAblationTargetPolicy(p.Scaled(benchScale), uint64(i+1))
		render(b, table)
	}
}
