package experiments

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/ycsb"
)

// rig is the one wiring of a simulated deployment — engine, topology,
// transport, cluster, monitor and, once control is called, the adaptive
// controller. Every driver of the package builds a rig, preloads it,
// runs phases on it and reads a window off each; none wires its own.
type rig struct {
	p    Platform
	seed uint64 // the caller's seed, 0 read as 1
	eng  *sim.Engine
	topo *netsim.Topology
	tr   *netsim.Transport
	cl   *kv.Cluster
	mon  *monitor.Monitor
	ctl  *core.Controller // nil until control; the script starts and stops it
	sess kv.Session       // what phases drive: ONE/ONE until control or the script replaces it

	mark counters // the reading at the previous window's close; the first is taken after the preload
}

// newRig builds platform p's deployment for seed. mutate, when set,
// adjusts the store configuration before the cluster exists; mopts
// replaces the monitor's default options.
func newRig(p Platform, seed uint64, mutate func(*kv.Config), mopts *monitor.Options) *rig {
	if seed == 0 {
		seed = 1
	}
	cfg := p.Config(seed)
	if mutate != nil {
		mutate(&cfg)
	}
	r := &rig{p: p, seed: seed, eng: sim.New(seed), topo: p.Build()}
	r.tr = netsim.NewTransport(r.eng, r.topo)
	r.cl = kv.New(r.topo, r.tr, cfg)
	opts := monitor.DefaultOptions()
	if mopts != nil {
		opts = *mopts
	}
	r.mon = monitor.New(r.cl.RF(), r.tr, opts)
	r.cl.AddHooks(r.mon.Hooks())
	r.sess = kv.StaticSession{Cluster: r.cl, ReadLevel: kv.One, WriteLevel: kv.One}
	return r
}

// repairDetection is the failure-detection delay fastRepair sets.
const repairDetection = 500 * time.Millisecond

// fastRepair speeds up the repair machinery — anti-entropy over
// aeSample keys per round, hint replay, failure detection — so that
// convergence is visible within a run at experiment scale.
func fastRepair(cfg *kv.Config, aeSample int) {
	cfg.AntiEntropyInterval = 500 * time.Millisecond
	cfg.AntiEntropySample = aeSample
	cfg.HintReplayInterval = 250 * time.Millisecond
	cfg.DetectionDelay = repairDetection
}

// firstNodes lists node IDs 0..n-1: the founding members of a study
// that keeps the topology's last nodes spare.
func firstNodes(n int) []netsim.NodeID {
	ids := make([]netsim.NodeID, n)
	for i := range ids {
		ids[i] = netsim.NodeID(i)
	}
	return ids
}

// control puts the cluster under an adaptive controller re-evaluating
// every interval; phases drive the controller's session from here on.
func (r *rig) control(tuner core.Tuner, interval time.Duration) {
	r.ctl = core.NewController(r.mon, tuner, r.tr, interval)
	r.sess = r.ctl.Session(r.cl)
}

// Phase is one stretch of client load. A phased workload (BismarPhases:
// the access pattern changes over the application's day — the dynamicity
// adaptive tuners exist for) names its phases' Name, Workload and Ops;
// the driver that runs them fills in the rest.
type Phase struct {
	Name     string
	Workload ycsb.Workload
	Ops      uint64
	Threads  int
	Seed     uint64  // client-stream seed
	Warmup   uint64  // completions ignored before measurement starts
	Rate     float64 // open-loop arrivals per second; 0 runs the closed loop
	During   func()  // fired once the load is issued, ahead of its first event
}

// newRunner prepares ph's client streams over the rig's session.
func (r *rig) newRunner(ph Phase) *ycsb.Runner {
	runner, err := ycsb.NewRunner(r.sess, ph.Workload, r.tr, ph.Seed)
	if err != nil {
		panic(fmt.Sprintf("experiments: phase %q: %v", ph.Name, err))
	}
	runner.OpCount = ph.Ops
	runner.Threads = ph.Threads
	runner.WarmupOps = ph.Warmup
	runner.OpenLoopRate = ph.Rate
	return runner
}

// preload bulk-loads w's records through a loader on the rig's own seed
// and returns the workload's key function and value.
func (r *rig) preload(w ycsb.Workload) (keys func(uint64) string, value []byte) {
	loader := r.newRunner(Phase{Name: "preload", Workload: w, Seed: r.seed})
	r.load(loader)
	return loader.Keys, loader.Value()
}

// load bulk-loads the records of runner's workload and takes the first
// mark: Preload sends nothing and judges no read, so the first window
// differences against a deployment that holds data and has done no work.
func (r *rig) load(runner *ycsb.Runner) {
	r.cl.Preload(runner.Workload.RecordCount, runner.Keys, runner.Value())
	r.mark = r.read()
}

// run drives ph to completion and closes its window.
func (r *rig) run(ph Phase) window { return r.drive(r.newRunner(ph), ph) }

// drive starts runner, fires ph.During, steps the engine until the last
// operation completes — a stall is a bug and panics — and closes the
// window. It is the package's one event loop.
func (r *rig) drive(runner *ycsb.Runner, ph Phase) window {
	start := r.eng.Now()
	runner.Start()
	if ph.During != nil {
		ph.During()
	}
	for !runner.Finished() && r.eng.Step() {
	}
	if !runner.Finished() {
		panic(fmt.Sprintf("experiments: phase %q stalled before completion", ph.Name))
	}
	now := r.read()
	w := window{
		Name: ph.Name, Start: start, End: r.eng.Now(), Metrics: runner.Metrics(),
		Members: len(r.cl.Members()), counters: now.since(r.mark),
	}
	if r.ctl != nil {
		w.AvgReadK = avgReadK(r.ctl.Journal(), w.Start, w.End, r.cl.RF())
	}
	r.mark = now
	return w
}

// studyPhase is phase i of a study that splits the platform's operations
// into n equal closed-loop phases, each on a client-stream seed of its own.
func (r *rig) studyPhase(name string, w ycsb.Workload, i, n int, during func()) Phase {
	ops := r.p.Ops / uint64(n)
	if ops == 0 {
		ops = 1000
	}
	return Phase{Name: name, Workload: w, Ops: ops, Threads: r.p.Threads,
		Seed: r.seed + uint64(i+1)*1000, During: during}
}

// settle advances virtual time by d with no client load. Whatever the
// cluster does meanwhile (suspicions, cache expiries, repair writes) is
// counted in the next window: counters run from close to close. A
// script with no settle between two phases must not call settle(0) — it
// would fire the events due now ahead of the next phase's first.
func (r *rig) settle(d time.Duration) { r.eng.RunFor(d) }

// must panics when the cluster refuses a script's membership change:
// like a stall, that is a bug in the script.
func must(err error) {
	if err != nil {
		panic("experiments: " + err.Error())
	}
}

// counters is one reading of everything a window differences.
type counters struct {
	Stale, Fresh, Failed uint64 // the oracle's verdicts on reads
	Usage                kv.Usage
	Traffic              netsim.TrafficMeter
}

// read takes the counters as they stand: totals since the rig was built.
func (r *rig) read() counters {
	c := counters{Usage: r.cl.Usage(), Traffic: r.tr.Meter()}
	c.Stale, c.Fresh, c.Failed = r.cl.Oracle().Counts()
	return c
}

// since returns c − earlier. Every uint64 field of kv.Usage is a
// cumulative counter and is differenced, as is BusyTime; its gauges
// (Nodes, StoredBytes, HotKeysNow) are int-kinded and keep c's value.
// TestRigWindows pins that split, so a new Usage field forces a choice.
func (c counters) since(earlier counters) counters {
	d := c
	d.Stale, d.Fresh, d.Failed = c.Stale-earlier.Stale, c.Fresh-earlier.Fresh, c.Failed-earlier.Failed
	d.Traffic = c.Traffic.Sub(earlier.Traffic)
	d.Usage.BusyTime -= earlier.Usage.BusyTime
	du, eu := reflect.ValueOf(&d.Usage).Elem(), reflect.ValueOf(earlier.Usage)
	for i := 0; i < du.NumField(); i++ {
		if f := du.Field(i); f.Kind() == reflect.Uint64 {
			f.SetUint(f.Uint() - eu.Field(i).Uint())
		}
	}
	return d
}

// StaleRate is the oracle's stale fraction of the reads it judged.
func (c counters) StaleRate() float64 {
	if judged := c.Stale + c.Fresh; judged > 0 {
		return float64(c.Stale) / float64(judged)
	}
	return 0
}

// window is what one phase measured. Start, End and Metrics are the
// phase's own (Metrics starts later than Start only after a warm-up);
// the embedded counters are differences since the previous window
// closed, so they include the settle that preceded the phase.
type window struct {
	Name       string
	Start, End time.Duration
	Metrics    *ycsb.Metrics
	Members    int     // ring members at End
	AvgReadK   float64 // time-weighted read level over [Start, End); 0 without a controller
	counters
}

// avgReadK time-weights the read level held across [start, end): the
// decision in force at start counts from start, and each journal entry
// counts until the next entry or the window's end.
func avgReadK(journal []core.JournalEntry, start, end time.Duration, rf int) float64 {
	if end <= start {
		return 0
	}
	var weighted, total float64
	for i, e := range journal {
		from := e.At
		if from < start {
			from = start
		}
		until := end
		if i+1 < len(journal) && journal[i+1].At < end {
			until = journal[i+1].At
		}
		if until <= from {
			continue
		}
		span := (until - from).Seconds()
		weighted += span * float64(e.Decision.ReadLevel.Replicas(rf))
		total += span
	}
	if total == 0 {
		if len(journal) == 0 {
			return 0
		}
		return float64(journal[len(journal)-1].Decision.ReadLevel.Replicas(rf))
	}
	return weighted / total
}
