package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/kv"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/ycsb"
)

// RunSpec describes one experimental run: a platform, a tuner (static or
// adaptive) and a workload.
type RunSpec struct {
	Platform Platform
	Tuner    core.Tuner
	Workload ycsb.Workload // zero value: heavy read-update over Platform.Records
	Seed     uint64
	WarmupPc float64 // fraction of ops treated as warmup; 0 → 0.1
	Mutate   func(*kv.Config)
	// MonitorOpts overrides the monitor configuration (ablations).
	MonitorOpts *monitor.Options
	// Wrap, when set, wraps the session the workload drives (freshness
	// enforcement and similar middleware layers).
	Wrap func(sess kv.Session, cl *kv.Cluster, clock ycsb.Clock) kv.Session
}

// runInterval is a run's control period: often relative to run length,
// so scaled-down runs still exercise the control loop many times.
const runInterval = 250 * time.Millisecond

// RunResult carries everything the experiment tables need.
type RunResult struct {
	Spec         RunSpec
	Metrics      *ycsb.Metrics
	Journal      []core.JournalEntry
	LevelChanges int
	AvgReadK     float64
	Usage        kv.Usage
	Traffic      netsim.TrafficMeter
	Cluster      *kv.Cluster
	Monitor      *monitor.Monitor
	Events       uint64 // discrete events fired by the engine over the run
}

// Run executes the spec in virtual time to completion.
func Run(spec RunSpec) RunResult {
	p := spec.Platform
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	w := spec.Workload
	if w.RecordCount == 0 {
		w = ycsb.HeavyReadUpdate(p.Records)
		w.ValueSize = p.ValueBytes
	}
	rg := newRig(p, spec.Seed, spec.Mutate, spec.MonitorOpts)
	rg.control(spec.Tuner, runInterval)
	if spec.Wrap != nil {
		rg.sess = spec.Wrap(rg.sess, rg.cl, rg.tr)
	}
	warm := spec.WarmupPc
	if warm <= 0 {
		warm = 0.1
	}
	ph := Phase{Name: "run", Workload: w, Ops: p.Ops, Threads: p.Threads, Seed: spec.Seed,
		Warmup: uint64(float64(p.Ops) * warm)}
	// The runner that drives the load also loads the records: a loader
	// of its own would build the keyspace (a zeta sum over every record,
	// every key formatted) a second time.
	runner := rg.newRunner(ph)
	rg.load(runner)
	rg.ctl.Start()
	win := rg.drive(runner, ph)
	rg.ctl.Stop()

	total := rg.read()
	return RunResult{
		Spec:         spec,
		Metrics:      win.Metrics,
		Journal:      rg.ctl.Journal(),
		LevelChanges: rg.ctl.LevelChanges(),
		AvgReadK:     win.AvgReadK,
		Usage:        total.Usage,
		Traffic:      total.Traffic,
		Cluster:      rg.cl,
		Monitor:      rg.mon,
		Events:       rg.eng.Events(),
	}
}

// BillAtPaperScale extrapolates a measured run to the paper's operation
// count: the workload's duration at the measured throughput, the metered
// billed traffic scaled per-op, and the paper's dataset (replicated)
// prorated over that duration.
func BillAtPaperScale(p Platform, pricing cost.Pricing, res RunResult, paperOps uint64) (cost.Bill, cost.Usage) {
	thr := res.Metrics.Throughput()
	if thr <= 0 {
		return cost.Bill{}, cost.Usage{}
	}
	duration := time.Duration(float64(paperOps) / thr * float64(time.Second))
	perOpDC := float64(res.Traffic.Bytes[netsim.InterDC]) / float64(res.Metrics.Ops)
	perOpRegion := float64(res.Traffic.Bytes[netsim.InterRegion]) / float64(res.Metrics.Ops)
	u := cost.Usage{
		Nodes:            p.Nodes,
		Duration:         duration,
		StoredBytes:      p.DatasetGB * cost.GB * float64(p.RF),
		InterDCBytes:     perOpDC * float64(paperOps),
		InterRegionBytes: perOpRegion * float64(paperOps),
	}
	return pricing.BillFor(u), u
}
