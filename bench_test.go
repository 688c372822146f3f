// Benchmarks regenerating every table and figure of the paper's
// evaluation (§IV) plus the extension, ablation and phase studies:
// BenchmarkStudy runs each entry of experiments.Studies at a reduced scale
// (same topologies, mixes and client pressure; fewer operations). Run
//
//	go test -bench=. -benchmem
//
// (-v renders the tables) and see EXPERIMENTS.md for paper-vs-measured
// numbers. cmd/paperbench runs the same studies at arbitrary scales.
// Two more time one Harmony replay, the unit of work every table
// repeats: BenchmarkExpAHarmony at the scale the performance history was
// recorded at, BenchmarkSimHarmonyReplay at the shape the repository
// benchmark's sim-harmony workload times; BenchmarkSimHarmonySetup times
// that workload's set-up. BenchmarkServingOps times the serve path under
// the RESP server: the store, engine and transport.
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

// BenchmarkSimHarmonyReplay is one replay of the repository benchmark's
// sim-harmony workload, at exactly the shape benchmark/simrun.go times
// (its simScale, simThreads, harmonyAlpha and simWarmup; seeds 1, 2, ...),
// reporting the workload's ops_per_s: what to profile when that metric is
// the target (scripts/microbench.sh has the recipe).
func BenchmarkSimHarmonyReplay(b *testing.B) {
	p := experiments.G5KHarmony().Scaled(0.1)
	p.Threads = 400
	var ops uint64
	for i := 0; i < b.N; i++ {
		res := experiments.Run(experiments.RunSpec{
			Platform: p,
			Tuner:    repro.NewHarmonyTuner(0.20, p.RF),
			Seed:     uint64(i + 1),
			WarmupPc: 0.1,
		})
		ops += res.Metrics.Ops
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(ops)/secs, "ops/s")
	}
}

// BenchmarkServingOps issues QUORUM reads or writes 16 to an Engine.Do
// on TestServingAllocBudget's single-process serving deployment, as the
// RESP server does with a pipeline of 16 commands (each operation
// completes inside its Do); ns/op is per operation. A write copies its
// value first, as the server does. What to profile when the serve path
// is the target (scripts/microbench.sh has the recipe).
func BenchmarkServingOps(b *testing.B) {
	const depth = 16
	for _, name := range []string{"read", "write"} {
		b.Run(name, func(b *testing.B) {
			d, sess, keys := newServedStore(b)
			value := make([]byte, 64)
			var i, k, done, failed int
			onRead := func(r repro.ReadResult) {
				if done++; r.Err != nil || !r.Exists {
					failed++
				}
			}
			onWrite := func(r repro.WriteResult) {
				if done++; r.Err != nil {
					failed++
				}
			}
			batch := func() {
				for j := 0; j < k; j++ {
					i++
					if key := keys[i%len(keys)]; name == "read" {
						sess.Read(key, onRead)
					} else {
						sess.Write(key, append([]byte(nil), value...), onWrite)
					}
				}
			}
			k = depth
			for n := 0; n < 2000; n += k {
				d.Engine.Do(batch) // warm the pools, the op slab and the time plane
			}
			done = 0
			b.ResetTimer()
			for n := 0; n < b.N; n += k {
				k = min(depth, b.N-n)
				d.Engine.Do(batch)
			}
			b.StopTimer()
			if done != b.N || failed != 0 {
				b.Fatalf("%d of %d operations completed, %d failed", done, b.N, failed)
			}
		})
	}
}

// BenchmarkStudy regenerates every study of the registry on its default
// platform; -v renders the tables to stderr.
func BenchmarkStudy(b *testing.B) {
	for _, s := range experiments.Studies {
		b.Run(s.Name, func(b *testing.B) {
			p, err := s.Platform("")
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				for _, t := range s.Run(p, benchScale, uint64(i+1)) {
					if testing.Verbose() {
						t.Render(os.Stderr)
					}
				}
			}
		})
	}
}

// BenchmarkSimHarmonySetup is the set-up the repository benchmark's
// sim-harmony workload times as setup_s, at exactly benchmark/simrun.go's
// shape: the 84-node cluster build, the 300 000-record preload and one
// operation per client thread, under the replay's tuner. What to profile
// when setup_s is the target (scripts/microbench.sh has the recipe).
func BenchmarkSimHarmonySetup(b *testing.B) {
	p := experiments.G5KHarmony().Scaled(0.1)
	p.Threads = 400
	p.Ops = uint64(p.Threads)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.Run(experiments.RunSpec{
			Platform: p,
			Tuner:    repro.NewHarmonyTuner(0.20, p.RF),
			Seed:     uint64(i + 1),
			WarmupPc: 0.1,
		})
	}
}
