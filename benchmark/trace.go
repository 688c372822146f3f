package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/netsim"
)

// The traced run: a separate run that gives the per-layer metrics.
// End-to-end numbers are never taken from it. It replays the head of
// the workload's op stream through nested levels — RESP over loopback,
// straight into the engine, each layer's public functions on their own
// — with a span around every call (or chunk of calls), and derives a
// budget whose rows sum to the measured loopback time per operation.
//
// Every workload's traced run reports every per-layer metric. The
// serve-side probes of sim-harmony run with the shape of the paper's
// workload on a single-process Mem deployment (the same kv code on the
// live engine); the sim-side metrics of the serve workloads come from
// the same scaled Harmony replay sim-harmony measures.

// traceOpsPerSecond sizes the replays: -seconds times this many
// operations go through the depth-16 loopback and direct levels.
const traceOpsPerSecond = 8_000

// budgetRow is one row of the per-operation time budget.
type budgetRow struct {
	Layer    string  `json:"layer"`
	NsPerOp  float64 `json:"ns_per_op"`
	Residual bool    `json:"residual,omitempty"`
	How      string  `json:"how"`
}

// traceReport is what a traced run saves beside the metrics.
type traceReport struct {
	Ops       int                 `json:"replayed_ops"`
	SpanFile  string              `json:"span_file"`
	Spans     int                 `json:"spans"`
	SelfTimes map[string]selfTime `json:"self_times"`
	Budget    []budgetRow         `json:"budget"`
	BudgetSum float64             `json:"budget_sum_ns_per_op"`
	Loopback  float64             `json:"loopback_ns_per_op"`
	// CeilingShare is the store's depth-16 throughput over the stub's,
	// both measured with the same connection and slices.
	CeilingShare float64  `json:"ceiling_share"`
	Warnings     []string `json:"warnings,omitempty"`
}

// nodeTraffic sums the messages and bytes the deployments' engines
// metered between distinct endpoints (every class but loopback
// self-sends).
func nodeTraffic(s *sut) (msgs, bytes uint64) {
	for _, d := range s.deploys {
		m := d.Engine.Meter()
		for class := netsim.IntraDC; class <= netsim.InterRegion; class++ {
			msgs += m.Messages[class]
			bytes += m.Bytes[class]
		}
	}
	return msgs, bytes
}

// traceRun is the state of one traced run.
type traceRun struct {
	w    *workload
	seed uint64
	n    int // operations replayed at depth 16
	sh   *shape

	tr                *tracer
	m                 map[string]metric
	rep               *traceReport
	attempted, failed uint64

	// Replica operations per client operation of the loopback replay;
	// they price the budget's storage row.
	replicaReads, replicaWrites float64
	// The store's depth-16 throughput under the ceiling's protocol.
	storeOpsPerS float64
}

func (t *traceRun) set(name string, value float64, unit string) { t.m[name] = metric{value, unit} }

func (t *traceRun) warn(format string, args ...any) {
	t.rep.Warnings = append(t.rep.Warnings, fmt.Sprintf(format, args...))
}

func traced(w *workload, seed uint64, seconds int, scratch string) (result, any, error) {
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400) // as in the end-to-end serve runs
	}
	n := seconds * traceOpsPerSecond
	keys := newKeyTable(w.keys + readBackKeys)
	t := &traceRun{
		w: w, seed: seed, n: n, sh: newShape(w, seed, keys),
		tr: newTracer(), m: make(map[string]metric), rep: &traceReport{Ops: n},
	}
	err := t.storeLevels(scratch)
	if err == nil {
		err = t.layerLevels(scratch)
	}
	if err == nil {
		err = t.ceiling()
	}
	if err != nil {
		return result{}, nil, err
	}
	t.simulator()
	t.budget()

	t.rep.Spans = len(t.tr.spans)
	t.rep.SpanFile = filepath.Join(buildDir, "results", fmt.Sprintf("%s-seed%d-spans.json", w.name, seed))
	if err := os.MkdirAll(filepath.Dir(t.rep.SpanFile), 0o755); err != nil {
		return result{}, nil, err
	}
	if err := t.tr.write(t.rep.SpanFile); err != nil {
		return result{}, nil, err
	}
	printBudget(w, t.rep)
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: t.m}, t.rep, nil
}

// storeLevels runs levels (a), (b) and (h) on the booted store: RESP
// over loopback, the same operations straight into the engine, and the
// engine's empty dispatch. The program's own counters are read around
// the depth-16 loopback replay.
func (t *traceRun) storeLevels(scratch string) error {
	w, n := t.w, t.n
	s, c, _, err := setUp(w, t.sh.keys, t.seed, filepath.Join(scratch, "wal"))
	if err != nil {
		return err
	}
	defer s.close()
	defer c.close()
	d := s.deploys[0]

	// Loopback and direct take turns, a round of batches each: the
	// store slows as it ages (its heap, timer heap and oracle history
	// grow) and the host's speed wanders, so two levels that are
	// subtracted from each other must see the same of both. The
	// program's counters are read around the loopback rounds only.
	var before, after meters
	var msgs, bytes, wireBytes, sets uint64
	direct := newDirectReplay(d, t.sh, maxDepth)
	for done := 0; done < n; done += roundBatches * maxDepth {
		b := readMeters(s)
		m0, b0 := nodeTraffic(s)
		io0, sets0 := c.wireBytes, c.ops.seq
		if err := probeLoopback(t.tr, "loopback.d16", c, maxDepth); err != nil {
			return err
		}
		a := readMeters(s)
		m1, b1 := nodeTraffic(s)
		before.add(b)
		after.add(a)
		msgs, bytes = msgs+m1-m0, bytes+b1-b0
		wireBytes, sets = wireBytes+c.wireBytes-io0, sets+c.ops.seq-sets0
		direct.run(t.tr, "direct.d16")
	}
	ops := float64(n)
	userBytes := float64(sets) * float64(keyLen+w.valueSize)
	t.replicaReads = float64(after.replicaReads-before.replicaReads) / ops
	t.replicaWrites = float64(after.replicaWrites-before.replicaWrites) / ops

	t.set("wire.resp_bytes_per_op", float64(wireBytes)/ops, "B")
	t.set("kv.replica_reads_per_op", t.replicaReads, "count")
	t.set("kv.replica_writes_per_op", t.replicaWrites, "count")
	t.set("kv.read_repairs_per_kop", float64(after.readRepairs-before.readRepairs)/ops*1e3, "count")
	t.set("kv.hints_replayed", float64(after.hintsReplayed-before.hintsReplayed), "count")
	t.set("kv.dropped_mutations", float64(after.droppedMuts-before.droppedMuts), "count")
	t.set("storage.wal_bytes_per_user_byte", float64(after.walBytes-before.walBytes)/userBytes, "B/B")
	t.set("storage.flushed_bytes_per_user_byte", float64(after.flushedBytes-before.flushedBytes)/userBytes, "B/B")
	t.set("storage.compacted_bytes_per_user_byte", float64(after.compactedBytes-before.compactedBytes)/userBytes, "B/B")
	t.set("storage.wal_syncs_per_kop", float64(after.walSyncs-before.walSyncs)/ops*1e3, "count")
	t.set("storage.compactions", float64(after.compactions-before.compactions), "count")
	// Space: resident bytes over the logical data set (every key once).
	t.set("storage.stored_bytes_per_user_byte", float64(readMeters(s).storedBytes)/float64(w.keys*(keyLen+w.valueSize)), "B/B")
	t.set("process.allocs_per_op", float64(after.mem.Mallocs-before.mem.Mallocs)/ops, "count")
	t.set("process.alloc_bytes_per_op", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/ops, "B")
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	t.set("process.gc_cpu_fraction", mem.GCCPUFraction, "ratio")

	// Messages between nodes, less the two client<->coordinator hops of
	// every operation. They cross TCP only on the mesh; elsewhere the
	// mesh carries nothing.
	if w.mesh {
		t.set("live.mesh_msgs_per_op", float64(msgs)/ops-2, "count")
		t.set("live.mesh_bytes_per_op", float64(bytes)/ops, "B")
	} else {
		t.set("live.mesh_msgs_per_op", 0, "count")
		t.set("live.mesh_bytes_per_op", 0, "B")
	}

	direct1 := newDirectReplay(d, t.sh, 1)
	for done := 0; done < n/8; done += roundBatches {
		if err := probeLoopback(t.tr, "loopback.d1", c, 1); err != nil {
			return err
		}
		direct1.run(t.tr, "direct.d1")
	}
	t.failed += direct.failed.Load() + direct1.failed.Load()
	t.attempted += uint64(n + n/8)
	probeDoEmpty(t.tr, d, n)

	// The store under exactly the protocol the ceiling is measured with.
	thr, err := ceilingSlices(c, maxDepth)
	if err != nil {
		return err
	}
	t.storeOpsPerS = median(thr)

	if rate := d.StaleRate(); rate != 0 {
		t.warn("QUORUM/QUORUM read stale: rate %g", rate)
		t.failed++
	}
	t.attempted, t.failed = t.attempted+c.attempted, t.failed+c.failed

	runtime.GC()
	runtime.ReadMemStats(&mem)
	t.set("process.heap_live_mb", float64(mem.HeapAlloc)/(1<<20), "MB")
	return nil
}

// layerLevels runs levels (c) to (g): each layer's public functions on
// their own, fed the workload's keys, values and mix.
func (t *traceRun) layerLevels(scratch string) error {
	if err := probeStorage(t.tr, t.sh, t.n, scratch); err != nil {
		return err
	}
	probeRing(t.tr, t.sh, t.n)
	if err := probeWire(t.tr, t.sh, t.n); err != nil {
		return err
	}
	// The monitor's clock advances by the measured time of an operation.
	perOp := time.Duration(t.tr.selfTimes()["loopback.d16.batch"].perCall())
	probeMonitor(t.tr, t.sh, t.n, perOp)
	return probeYCSB(t.tr, t.sh, t.n)
}

// ceilingSlices runs a second of slices at one depth and returns each
// slice's operations per second (depth 16) or median latency in
// microseconds (depth 1).
func ceilingSlices(c *client, depth int) ([]float64, error) {
	buf := newSliceBuffer()
	var sd side
	for i := 0; i < ceilingWindows; i++ {
		if err := c.runSlice(ceilingWindow, depth, buf); err != nil {
			return nil, err
		}
		sd.add(buf, depth)
	}
	vs := make([]float64, ceilingWindows)
	for i := range vs {
		if depth == 1 {
			vs[i] = sd.lat[i].all[0]
		} else {
			vs[i] = sd.thr[i].opsPerS
		}
	}
	return vs, nil
}

// ceiling drives the map-and-mutex stub, the reference of the
// end-to-end runs, with the identical generator: the same connection,
// preload, depths and slice medians as the store, and warns when the
// store comes near it.
func (t *traceRun) ceiling() error {
	ref, err := newReference(t.w, t.sh.keys, t.seed)
	if err != nil {
		return err
	}
	defer ref.close()
	lat, err := ceilingSlices(ref.c, 1)
	if err != nil {
		return err
	}
	thr, err := ceilingSlices(ref.c, maxDepth)
	if err != nil {
		return err
	}
	opsPerS := median(thr)
	t.set("loadgen.ceiling_ops_per_s", opsPerS, "1/s")
	t.set("loadgen.ceiling_p50_us", median(lat), "us")
	t.attempted, t.failed = t.attempted+ref.c.attempted, t.failed+ref.c.failed

	t.rep.CeilingShare = t.storeOpsPerS / opsPerS
	if !t.w.sim && t.rep.CeilingShare > 0.5 {
		t.warn("the store runs at %.0f%% of the load generator's ceiling: the benchmark would be measuring itself", 100*t.rep.CeilingShare)
	}
	return nil
}

// simulator replays the scaled Harmony platform once, for the
// simulator-side layers.
func (t *traceRun) simulator() {
	p := simPlatform()
	id := t.tr.begin("sim.run", -1)
	res, _, _ := simRun(p, simSeed(t.seed, 0, 1))
	t.tr.end(id, int(res.Events))
	sm := res.Metrics
	ops := float64(sm.Ops)
	t.attempted, t.failed = t.attempted+sm.Ops, t.failed+sm.Timeouts+sm.Unavailable
	if sm.StaleRate() > harmonyAlpha {
		t.warn("Harmony stale rate %g above alpha %g", sm.StaleRate(), harmonyAlpha)
		t.failed++
	}
	if t.w.sim {
		// On sim-harmony the kv counts are the simulator's: same code,
		// the other engine.
		t.set("kv.replica_reads_per_op", float64(res.Usage.ReplicaReads)/ops, "count")
		t.set("kv.replica_writes_per_op", float64(res.Usage.ReplicaWrites)/ops, "count")
		t.set("kv.read_repairs_per_kop", float64(res.Usage.ReadRepairs)/ops*1e3, "count")
		t.set("kv.hints_replayed", float64(res.Usage.HintsReplayed), "count")
		t.set("kv.dropped_mutations", float64(res.Usage.DroppedMuts), "count")
	}
	t.set("sim.events_per_op", float64(res.Events)/ops, "count")
	t.set("netsim.bytes_per_op", float64(res.Traffic.TotalBytes())/ops, "B")
	t.set("netsim.interdc_bytes_per_op", float64(res.Traffic.Bytes[netsim.InterDC])/ops, "B")
	t.set("harmony.level_changes", float64(res.LevelChanges), "count")
	t.set("harmony.avg_read_replicas", res.AvgReadK, "count")
	t.set("harmony.stale_rate", sm.StaleRate(), "ratio")
	t.set("harmony.virt_ops_per_s", sm.Throughput(), "1/s")
}

// budget turns the spans' self times into the timing metrics and the
// table whose rows sum to the loopback time of one operation.
func (t *traceRun) budget() {
	self := t.tr.selfTimes()
	per := func(name string) float64 { return self[name].perCall() }
	loopback, loopback1 := per("loopback.d16.batch"), per("loopback.d1.batch")
	direct, direct1 := per("direct.d16.batch"), per("direct.d1.batch")
	decode, encode := per("wire.resp_decode"), per("wire.resp_encode")
	doEmpty := per("live.do_empty")
	ringNs, monNs := per("ring.replicas"), per("monitor.observe")
	getNs, applyNs := per("storage.get"), per("storage.apply")

	live := doEmpty / maxDepth
	storageNs := getNs*t.replicaReads + applyNs*t.replicaWrites
	serverSelf := loopback - direct - decode - encode
	kvSelf := direct - live - ringNs - monNs - storageNs

	t.set("trace.loopback_ns_per_op", loopback, "ns")
	t.set("trace.loopback_depth1_ns_per_op", loopback1, "ns")
	t.set("wire.resp_decode_ns_per_cmd", decode, "ns")
	t.set("wire.resp_encode_ns_per_reply", encode, "ns")
	t.set("wire.frame_roundtrip_ns_per_msg", per("wire.frame_roundtrip"), "ns")
	t.set("live.do_empty_ns", doEmpty, "ns")
	t.set("server.self_ns_per_op", serverSelf, "ns")
	t.set("server.depth1_self_ns_per_op", loopback1-direct1-decode-encode, "ns")
	t.set("kv.direct_ns_per_op", direct, "ns")
	t.set("kv.self_ns_per_op", kvSelf, "ns")
	t.set("ring.replicas_ns_per_key", ringNs, "ns")
	t.set("monitor.observe_ns_per_op", monNs, "ns")
	t.set("monitor.snapshot_ns", per("monitor.snapshot"), "ns")
	t.set("storage.get_ns", getNs, "ns")
	t.set("storage.apply_ns", applyNs, "ns")
	t.set("sim.ns_per_event", per("sim.run"), "ns")
	t.set("ycsb.gen_ns_per_op", per("ycsb.gen"), "ns")
	t.set("harmony.decide_ns", per("harmony.decide"), "ns")
	t.set("process.ops_per_s_drift", batchDrift(t.tr, "loopback.d16.batch"), "ratio")

	kvRow := "kv"
	if t.w.mesh {
		kvRow = "kv + mesh wait"
	}
	rep := t.rep
	rep.Budget = []budgetRow{
		{"wire decode", decode, false, "wire.RESPReader.ReadCommand over the workload's command bytes"},
		{"wire encode", encode, false, "wire.RESPWriter over the workload's reply shapes"},
		{"server + loopback TCP + load generator", serverSelf, true, "loopback - direct - wire"},
		{"live dispatch", live, false, "Engine.Do(func(){}) / 16"},
		{kvRow, kvSelf, true, "direct - live - ring - monitor - storage"},
		{"ring", ringNs, false, "Strategy.Replicas(key)"},
		{"monitor", monNs, false, "the Hooks() functions, one operation's pattern"},
		{"storage", storageNs, false, "get_ns x replica reads/op + apply_ns x replica writes/op"},
	}
	rep.Loopback = loopback
	rep.SelfTimes = self
	for _, r := range rep.Budget {
		rep.BudgetSum += r.NsPerOp
		if r.Residual && r.NsPerOp < 0 {
			t.warn("residual row %q is negative: a probe overstates its layer", r.Layer)
		}
	}
	if math.Abs(rep.BudgetSum-loopback) > 1e-6*loopback {
		t.warn("budget rows do not sum to the loopback time")
	}
}

// batchDrift is the throughput of the last fifth of a replay's batches
// over that of the first fifth.
func batchDrift(tr *tracer, name string) float64 {
	var durs []int64
	for _, s := range tr.spans {
		if s.Name == name {
			durs = append(durs, s.End-s.Start)
		}
	}
	k := len(durs) / 5
	if k == 0 {
		return 1
	}
	var first, last int64
	for i := 0; i < k; i++ {
		first += durs[i]
		last += durs[len(durs)-1-i]
	}
	return float64(first) / float64(last)
}

func printBudget(w *workload, rep *traceReport) {
	fmt.Printf("\nbudget of one %s operation over loopback at depth %d (ns):\n", w.name, maxDepth)
	for _, r := range rep.Budget {
		tag := ""
		if r.Residual {
			tag = "  [residual]"
		}
		fmt.Printf("  %-40s %10.1f  %5.1f%%  %s%s\n", r.Layer, r.NsPerOp, 100*r.NsPerOp/rep.Loopback, r.How, tag)
	}
	fmt.Printf("  %-40s %10.1f  (measured loopback: %.1f)\n", "sum", rep.BudgetSum, rep.Loopback)
	for _, warn := range rep.Warnings {
		fmt.Printf("  WARNING: %s\n", warn)
	}
	fmt.Println()
}

// The ceiling is measured over a second per depth.
const (
	ceilingWindows = 4
	ceilingWindow  = 250 * time.Millisecond
)
