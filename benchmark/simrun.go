package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/harmony"
	"repro/internal/kv"
	"repro/internal/ycsb"
)

// The sim leg: the paper's Grid'5000 Harmony evaluation replayed in
// the deterministic simulator, plus the pricing both legs share.

const (
	// simScale shrinks the platform's record and operation counts (84
	// nodes and two sites stay) so several replays fit one run.
	simScale = 0.1
	// simThreads is the client pressure. The paper's 1 600 threads hold
	// this scaled-down platform far past saturation: read latency sits
	// at the 2 s timeout and one seed in five times operations out (at
	// 800 threads, still one in forty). A quarter of them delivers the
	// same virtual throughput with p99 ten times below the timeout on
	// every seed tried, so no operation fails.
	simThreads = 400
	// simWarmup is the share of a replay's operations that complete
	// before measurement begins (RunSpec.WarmupPc).
	simWarmup = 0.1
	// simSecondsPerReplay sizes a run: -seconds over this many replays,
	// a fixed count so that a seed always yields the same virtual
	// results. One replay takes about 4.4 s on the 2-core sandbox.
	simSecondsPerReplay = 4
	// harmonyAlpha is the tolerated stale-read rate the tuner holds.
	harmonyAlpha = 0.20
	// paperOps is the operation count bills are extrapolated to, as the
	// experiment tables do.
	paperOps = 10_000_000
)

func simPlatform() experiments.Platform {
	p := experiments.G5KHarmony().Scaled(simScale)
	p.Threads = simThreads
	return p
}

// latencyTap wraps the session the simulated clients drive and records
// every completion's latency in order, so the run can take percentiles
// of raw virtual nanoseconds; the runner's own histograms step 3 % per
// bucket, which would make most runs read exactly alike.
type latencyTap struct {
	kv.Session
	done *[]completion
}

type completion struct {
	latency time.Duration
	write   bool
	failed  bool
}

func (t latencyTap) Read(key string, cb func(kv.ReadResult)) {
	t.Session.Read(key, func(r kv.ReadResult) {
		*t.done = append(*t.done, completion{latency: r.Latency, failed: r.Err != nil})
		cb(r)
	})
}

func (t latencyTap) Write(key string, value []byte, cb func(kv.WriteResult)) {
	t.Session.Write(key, value, func(r kv.WriteResult) {
		*t.done = append(*t.done, completion{latency: r.Latency, write: true, failed: r.Err != nil})
		cb(r)
	})
}

// simRun replays the platform under Harmony with one seed and returns
// the result with the latencies of the measured reads and writes.
func simRun(p experiments.Platform, seed uint64) (res experiments.RunResult, reads, writes []int64) {
	done := make([]completion, 0, p.Ops)
	res = experiments.Run(experiments.RunSpec{
		Platform: p,
		Tuner:    harmony.New(harmonyAlpha, p.RF),
		Seed:     seed,
		WarmupPc: simWarmup,
		Wrap: func(sess kv.Session, _ *kv.Cluster, _ ycsb.Clock) kv.Session {
			return latencyTap{Session: sess, done: &done}
		},
	})
	// The runner measures what completes after the warm-up operations.
	for _, c := range done[min(len(done), int(float64(p.Ops)*simWarmup)):] {
		switch {
		case c.failed:
		case c.write:
			writes = append(writes, int64(c.latency))
		default:
			reads = append(reads, int64(c.latency))
		}
	}
	return res, reads, writes
}

// simSeed gives the RunSpec.Seed of replay j of n. Which level Harmony
// settles on, and with it the latency tail, differs from seed to seed
// by far more than any bound (p99 of reads: 0.3 s to 0.84 s), so a run
// replays several seeds and takes its latency percentiles over the
// operations of all of them together. All replays but the last use the
// fixed seeds 1, 2, ...: the common inputs on which two commits compare
// exactly. The last is derived from -seed, so that a claim also faces a
// seed not used while the change was written.
func simSeed(seed uint64, j, n int) uint64 {
	if j < n-1 {
		return uint64(j) + 1
	}
	return 1_000_000 + seed
}

// simReplay is what one replay of the platform measured.
type simReplay struct {
	Seed        uint64  `json:"seed"`
	WallS       float64 `json:"wall_s"`
	MeasuredOps uint64  `json:"measured_ops"`
	VirtOpsPerS float64 `json:"virt_ops_per_s"`
	CostPerM    float64 `json:"cost_usd_per_mops"`
	GetP50us    float64 `json:"get_p50_us"`
	GetP95us    float64 `json:"get_p95_us"`
	GetP99us    float64 `json:"get_p99_us"`
	SetP50us    float64 `json:"set_p50_us"`
	SetP95us    float64 `json:"set_p95_us"`
	SetP99us    float64 `json:"set_p99_us"`
	StaleRate   float64 `json:"stale_rate"`
	Failed      uint64  `json:"failed"`
}

func newSimReplay(p experiments.Platform, seed uint64, res experiments.RunResult, wall time.Duration) simReplay {
	m := res.Metrics
	bill, _ := experiments.BillAtPaperScale(p, experiments.Pricing(), res, paperOps)
	return simReplay{
		Seed:        seed,
		WallS:       wall.Seconds(),
		MeasuredOps: m.Ops,
		VirtOpsPerS: m.Throughput(),
		CostPerM:    cost.PerMillionOps(bill, paperOps),
		GetP50us:    float64(m.ReadLat.Quantile(0.50)) / 1e3,
		GetP95us:    float64(m.ReadLat.Quantile(0.95)) / 1e3,
		GetP99us:    float64(m.ReadLat.Quantile(0.99)) / 1e3,
		SetP50us:    float64(m.WriteLat.Quantile(0.50)) / 1e3,
		SetP95us:    float64(m.WriteLat.Quantile(0.95)) / 1e3,
		SetP99us:    float64(m.WriteLat.Quantile(0.99)) / 1e3,
		StaleRate:   m.StaleRate(),
		Failed:      m.Timeouts + m.Unavailable,
	}
}

// simReport is everything an end-to-end sim-harmony run measured.
type simReport struct {
	SetupS  []float64   `json:"setup_s"`
	Replays []simReplay `json:"replays"`
	// Virtual latencies over the measured operations of all replays.
	GetP50us float64 `json:"get_p50_us"`
	GetP95us float64 `json:"get_p95_us"`
	SetP50us float64 `json:"set_p50_us"`
	SetP95us float64 `json:"set_p95_us"`
}

// over returns the median of one figure over the replays.
func (r *simReport) over(f func(simReplay) float64) float64 {
	vs := make([]float64, len(r.Replays))
	for i, rp := range r.Replays {
		vs[i] = f(rp)
	}
	return median(vs)
}

func runSim(seed uint64, seconds int) (*simReport, error) {
	p := simPlatform()
	rep := &simReport{}

	// Set-up: build the 84-node platform and preload its records, with
	// one operation per client thread so the run can end.
	build := p
	build.Ops = uint64(p.Threads)
	for i := 0; i < instances; i++ {
		t0 := time.Now()
		simRun(build, simSeed(seed, 0, 1))
		rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
	}

	var reads, writes []int64
	n := max(1, seconds/simSecondsPerReplay)
	for j := 0; j < n; j++ {
		t0 := time.Now()
		res, r, w := simRun(p, simSeed(seed, j, n))
		rep.Replays = append(rep.Replays, newSimReplay(p, simSeed(seed, j, n), res, time.Since(t0)))
		// The tap and the runner must have measured the same operations.
		if m := res.Metrics; uint64(len(r)) != m.ReadLat.Count() || uint64(len(w)) != m.WriteLat.Count() {
			return nil, fmt.Errorf("latency tap saw %d reads and %d writes, the runner measured %d and %d",
				len(r), len(w), m.ReadLat.Count(), m.WriteLat.Count())
		}
		reads, writes = append(reads, r...), append(writes, w...)
	}
	slices.Sort(reads)
	slices.Sort(writes)
	rep.GetP50us = float64(percentile(reads, 0.50)) / 1e3
	rep.GetP95us = float64(percentile(reads, 0.95)) / 1e3
	rep.SetP50us = float64(percentile(writes, 0.50)) / 1e3
	rep.SetP95us = float64(percentile(writes, 0.95)) / 1e3
	return rep, nil
}

// serveCost prices a serving deployment per million operations: the
// nodes' instance time at the measured throughput plus the metered
// storage I/O per operation, extrapolated to paperOps like the sim's
// bill. Exact instance time (Smooth) keeps the figure proportional to
// the work instead of rounding every run up to one billed hour.
func serveCost(opsPerS float64, nodes int, storedBytes, walBytesPerOp, fsyncsPerOp, compactedBytesPerOp float64) float64 {
	u := cost.Usage{
		Nodes:          nodes,
		Duration:       time.Duration(paperOps / opsPerS * float64(time.Second)),
		StoredBytes:    storedBytes,
		WALBytes:       walBytesPerOp * paperOps,
		Fsyncs:         fsyncsPerOp * paperOps,
		CompactedBytes: compactedBytesPerOp * paperOps,
	}
	return cost.PerMillionOps(experiments.Pricing().Smooth().WithStorageIO().BillFor(u), paperOps)
}
