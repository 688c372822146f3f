package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"repro"
	"repro/internal/server"
)

// The end-to-end driver of the serve workloads. It boots the store in
// this process exactly as cmd/storeserve does and drives it over
// loopback TCP. Its imports are the pinned API surface (README.md).

const (
	readBackKeys = 1_000 // fresh keys the connection SETs and reads back
	latencyShare = 0.4   // of -seconds spent at depth 1; the rest at depth 16

	// A run boots, loads and measures this many instances of the store
	// one after the other. setup_s is the median of their set-up times
	// and every other value the median over all instances' slices, so
	// one unlucky layout of heap or sockets does not decide a run, and
	// each slice sits at the same age of its instance.
	instances = 3

	// The sandbox's speed moves by a third for minutes at a time (a
	// neighbour on the same core), far more than any bound. So every
	// slice of the store is followed at once by a slice of the reference
	// (stub.go) under the identical generator, and what a run reports is
	// the store's figure over the reference's, slice pair by slice pair:
	// whatever slows the host slows both.
	storeSlice = 200 * time.Millisecond
	refSlice   = 100 * time.Millisecond
)

// The reference's nominal figures. A reported value is the median ratio
// of store to reference times the nominal figure: what the store would
// show on a host where the reference shows exactly these. They are
// round numbers near what the 2-core sandbox gives when it is quiet, so
// reported and raw values have the same magnitude.
const (
	nominalP50us   = 6.0
	nominalP95us   = 10.0
	nominalP99us   = 20.0
	nominalOpsPerS = 850_000.0
)

// sut is a booted system under test: the deployment(s), the RESP server
// on node 0's deployment and the directory holding WAL files.
type sut struct {
	deploys []*repro.Live
	srv     *server.Server
	dir     string
}

func storeConfig(w *workload, topo *repro.Topology, walDir string) repro.Config {
	cfg := repro.ServingDefaults(topo)
	cfg.RF = 3
	cfg.Seed = 1
	if w.lsm {
		cfg.Engine = repro.EngineLSM
		cfg.WALDir = walDir
		cfg.FlushLimit = w.flushLimit
	}
	return cfg
}

// reservePort grabs an ephemeral loopback port for a mesh listener. The
// window between closing the probe and the mesh binding it is the same
// one TestServingMeshTwoProcesses accepts.
func reservePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func boot(w *workload, dir string) (*sut, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	topo := repro.SingleDC(3)
	s := &sut{dir: dir}
	if !w.mesh {
		d, err := repro.NewServing(topo, storeConfig(w, topo, dir), repro.ServeConfig{})
		if err != nil {
			return nil, err
		}
		s.deploys = []*repro.Live{d}
	} else {
		addrs := make([]string, topo.N())
		for i := range addrs {
			a, err := reservePort()
			if err != nil {
				return nil, err
			}
			addrs[i] = a
		}
		// Each constructor blocks dialling its peers, so all three run
		// at once.
		s.deploys = make([]*repro.Live, topo.N())
		errs := make([]error, topo.N())
		var wg sync.WaitGroup
		for i := range addrs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				peers := make(map[repro.NodeID]string)
				for j, a := range addrs {
					if j != i {
						peers[repro.NodeID(j)] = a
					}
				}
				s.deploys[i], errs[i] = repro.NewServing(topo, storeConfig(w, topo, dir), repro.ServeConfig{
					Local:       []repro.NodeID{repro.NodeID(i)},
					MeshListen:  addrs[i],
					Peers:       peers,
					DialTimeout: 10 * time.Second,
				})
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				s.close()
				return nil, fmt.Errorf("mesh boot: %w", err)
			}
		}
	}
	d := s.deploys[0]
	s.srv = server.New(d, d.StaticSession(repro.Quorum, repro.Quorum), repro.Quorum, repro.Quorum)
	if err := s.srv.Listen("127.0.0.1:0"); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the server and every deployment (joining their
// goroutines and closing WAL files) and removes the WAL directory.
func (s *sut) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	for _, d := range s.deploys {
		if d != nil {
			d.Close()
		}
	}
	os.RemoveAll(s.dir)
}

// connect opens the load generator's connection to a RESP server with
// the workload's op stream number n.
func connect(addr string, w *workload, keys keyTable, seed uint64, n int) (*client, error) {
	var zipf *zipfian
	if w.zipfian {
		zipf = newZipfian(w.keys, zipfTheta)
	}
	return dial(addr, newEncoder(keys, w.valueSize), newOpStream(w, zipf, seed, n))
}

// setUp boots the store, preloads every key through RESP and warms up
// with a fixed number of requests, all of which setup_s times.
func setUp(w *workload, keys keyTable, seed uint64, dir string) (*sut, *client, float64, error) {
	t0 := time.Now()
	s, err := boot(w, dir)
	if err != nil {
		return nil, nil, 0, err
	}
	c, err := connect(s.srv.Addr(), w, keys, seed, 0)
	if err != nil {
		s.close()
		return nil, nil, 0, err
	}
	// Every key is stored before any is read: a GET that finds nothing
	// counts as failed.
	err = c.setRange(0, w.keys, 0)
	if err == nil {
		err = c.run(w.warmup, maxDepth)
	}
	if err != nil {
		c.close()
		s.close()
		return nil, nil, 0, err
	}
	return s, c, time.Since(t0).Seconds(), nil
}

// reference is the yardstick every store figure is divided by: the
// map-and-mutex stub, preloaded like the store, on a connection of its
// own driven by the workload's second op stream.
type reference struct {
	stub *stubServer
	c    *client
}

func newReference(w *workload, keys keyTable, seed uint64) (*reference, error) {
	stub, err := newStubServer()
	if err != nil {
		return nil, err
	}
	c, err := connect(stub.addr(), w, keys, seed, 1)
	if err == nil {
		if err = c.setRange(0, w.keys, 0); err != nil {
			c.close()
		}
	}
	if err != nil {
		stub.close()
		return nil, err
	}
	return &reference{stub, c}, nil
}

// throughputSlice adds one depth-16 slice of the reference to sd.
func (r *reference) throughputSlice(sd *side, buf *slice) error {
	if err := r.c.runSlice(refSlice, maxDepth, buf); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	sd.add(buf, maxDepth)
	return nil
}

func (r *reference) close() {
	r.c.close()
	r.stub.close()
}

// The quantiles a run reports (the first two) or prints.
var quantiles = [...]float64{0.50, 0.95, 0.99}

// sliceStat is one slice reduced to what the result file shows of it.
type sliceStat struct {
	opsPerS       float64
	get, set, all [len(quantiles)]float64 // us, depth 1 only
}

func quantilesOf(sorted []int64) (q [len(quantiles)]float64) {
	for i, p := range quantiles {
		q[i] = float64(percentile(sorted, p)) / 1e3
	}
	return q
}

// side is everything the slices of the store, or of the reference,
// measured in a run. The store's side pools its GETs and SETs apart, the
// reference's every request together.
type side struct {
	reference     bool
	get, set, all []int64       // depth 1: flush-to-reply ns of every request
	ops           uint64        // depth 16: operations completed ...
	elapsed       time.Duration // ... in this much time
	lat, thr      []sliceStat   // slice by slice
}

// newSide sizes the sample pools for n requests, so that appends between
// slices do not grow them. The pools share a heap with the store: they
// hold what is reported and no more.
func newSide(reference bool, n int) *side {
	if reference {
		return &side{reference: true, all: make([]int64, 0, n)}
	}
	return &side{get: make([]int64, 0, n), set: make([]int64, 0, n)}
}

// opsPerS is the side's depth-16 throughput: all operations over all
// the time.
func (sd *side) opsPerS() float64 { return float64(sd.ops) / sd.elapsed.Seconds() }

// add takes one finished slice into the side.
func (sd *side) add(s *slice, depth int) {
	st := sliceStat{opsPerS: float64(s.ops) / s.elapsed.Seconds()}
	if depth > 1 {
		sd.ops, sd.elapsed = sd.ops+s.ops, sd.elapsed+s.elapsed
		sd.thr = append(sd.thr, st)
		return
	}
	if sd.reference {
		sd.all = append(sd.all, s.all...)
	} else {
		sd.get, sd.set = append(sd.get, s.get...), append(sd.set, s.set...)
	}
	slices.Sort(s.get)
	slices.Sort(s.set)
	slices.Sort(s.all)
	st.get, st.set, st.all = quantilesOf(s.get), quantilesOf(s.set), quantilesOf(s.all)
	sd.lat = append(sd.lat, st)
}

// runPairs alternates store and reference slices at one depth for about
// total (at least once).
func runPairs(c, ref *client, store, reference *side, depth int, total time.Duration, buf *slice) error {
	for n := max(1, int(total/(storeSlice+refSlice))); n > 0; n-- {
		if err := c.runSlice(storeSlice, depth, buf); err != nil {
			return err
		}
		store.add(buf, depth)
		if err := ref.runSlice(refSlice, depth, buf); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		reference.add(buf, depth)
	}
	return nil
}

// pairedStat is one reported figure with everything it was made from.
type pairedStat struct {
	Value     float64   `json:"value"`     // Store / Reference x Nominal
	Nominal   float64   `json:"nominal"`   // the reference's nominal figure
	Store     float64   `json:"store"`     // raw, over all slices of the store
	Reference float64   `json:"reference"` // raw, over all slices of the reference
	Samples   int       `json:"samples,omitempty"`
	Stores    []float64 `json:"store_slices"` // raw, slice by slice
	Refs      []float64 `json:"reference_slices"`
}

func newPairedStat(store, ref, nominal float64) pairedStat {
	return pairedStat{Value: store / ref * nominal, Nominal: nominal, Store: store, Reference: ref}
}

// processStat is what the Go runtime reports around the measured
// phases of an end-to-end run.
type processStat struct {
	AllocsPerOp     float64 `json:"allocs_per_op"`
	AllocBytesPerOp float64 `json:"alloc_bytes_per_op"`
	GCCPUFraction   float64 `json:"gc_cpu_fraction"`
	HeapLiveMB      float64 `json:"heap_live_mb"`
}

// meters is a snapshot of what the program meters about itself, summed
// over the deployments of the system under test, plus the runtime's
// memory statistics.
type meters struct {
	nodes                                                                int
	replicaReads, replicaWrites, readRepairs, hintsReplayed, droppedMuts uint64
	walBytes, walSyncs, flushedBytes, compactions, compactedBytes        uint64
	storedBytes                                                          int64
	mem                                                                  runtime.MemStats
}

// add accumulates another snapshot's counters (not its gauges).
func (m *meters) add(o meters) {
	m.replicaReads += o.replicaReads
	m.replicaWrites += o.replicaWrites
	m.readRepairs += o.readRepairs
	m.hintsReplayed += o.hintsReplayed
	m.droppedMuts += o.droppedMuts
	m.walBytes += o.walBytes
	m.walSyncs += o.walSyncs
	m.flushedBytes += o.flushedBytes
	m.compactions += o.compactions
	m.compactedBytes += o.compactedBytes
	m.mem.Mallocs += o.mem.Mallocs
	m.mem.TotalAlloc += o.mem.TotalAlloc
}

func readMeters(s *sut) meters {
	var m meters
	for _, d := range s.deploys {
		d.Engine.Do(func() {
			u := d.Cluster.Usage()
			m.nodes = u.Nodes
			m.replicaReads += u.ReplicaReads
			m.replicaWrites += u.ReplicaWrites
			m.readRepairs += u.ReadRepairs
			m.hintsReplayed += u.HintsReplayed
			m.droppedMuts += u.DroppedMuts
			m.walBytes += u.WALBytes
			m.walSyncs += u.WALSyncs
			m.flushedBytes += u.FlushedBytes
			m.compactions += u.Compactions
			m.compactedBytes += u.CompactedBytes
			m.storedBytes += u.StoredBytes
		})
	}
	runtime.ReadMemStats(&m.mem)
	return m
}

// serveReport is everything an end-to-end serve run measured.
type serveReport struct {
	SetupS    []float64             `json:"setup_s"`     // raw x the reference's throughput around it / nominal
	SetupRawS []float64             `json:"setup_raw_s"` // boot + preload + warm-up as timed
	Stats     map[string]pairedStat `json:"stats"`
	Process   processStat           `json:"process"`
	StaleRate float64               `json:"stale_rate"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	CostPerM  float64               `json:"cost_usd_per_mops"`

	// Accumulated over the instances' measured phases.
	store, ref                         *side
	ops, walBytes, walSyncs, compacted float64
	mallocs, allocBytes                uint64
	last                               meters
}

// measure runs the two phases and the closing checks on one booted and
// loaded instance and adds what it saw to the report.
func (rep *serveReport) measure(w *workload, s *sut, c *client, ref *reference, seed uint64, latLen, thrLen time.Duration, buf *slice) error {
	before := readMeters(s)
	att0 := c.attempted
	if err := runPairs(c, ref.c, rep.store, rep.ref, 1, latLen, buf); err != nil {
		return err
	}
	if err := runPairs(c, ref.c, rep.store, rep.ref, maxDepth, thrLen, buf); err != nil {
		return err
	}
	after := readMeters(s)
	rep.ops += float64(c.attempted - att0)
	rep.walBytes += float64(after.walBytes - before.walBytes)
	rep.walSyncs += float64(after.walSyncs - before.walSyncs)
	rep.compacted += float64(after.compactedBytes - before.compactedBytes)
	rep.mallocs += after.mem.Mallocs - before.mem.Mallocs
	rep.allocBytes += after.mem.TotalAlloc - before.mem.TotalAlloc
	rep.last = after

	// Correctness beyond the per-reply checks: fresh keys read back
	// equal, and QUORUM/QUORUM (R+W>N) never read stale.
	err := c.readBack(w.keys, readBackKeys, seed+7)
	rep.StaleRate = math.Max(rep.StaleRate, s.deploys[0].StaleRate())
	rep.Attempted, rep.Failed = rep.Attempted+c.attempted, rep.Failed+c.failed

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	rep.Process.HeapLiveMB = float64(mem.HeapAlloc) / (1 << 20)
	return err
}

func runServe(w *workload, seed uint64, seconds int, scratch string) (*serveReport, error) {
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400) // as cmd/storeserve does
	}
	keys := newKeyTable(w.keys + readBackKeys)
	ref, err := newReference(w, keys, seed)
	if err != nil {
		return nil, err
	}
	defer ref.close()

	// The measured time is shared equally between the instances.
	latLen := time.Duration(float64(seconds) * latencyShare / instances * float64(time.Second))
	thrLen := time.Duration(float64(seconds) * (1 - latencyShare) / instances * float64(time.Second))
	// Depth 1 runs at up to 100k requests/s against the store, of either
	// kind, and up to twice that against the reference.
	pairs := instances * int(latLen/(storeSlice+refSlice))
	rep := &serveReport{
		Stats: make(map[string]pairedStat),
		store: newSide(false, int(float64(pairs)*storeSlice.Seconds()*100_000)),
		ref:   newSide(true, int(float64(pairs)*refSlice.Seconds()*200_000)),
	}
	buf := newSliceBuffer()
	for i := 0; i < instances; i++ {
		// Each instance gets an op stream of its own.
		instanceSeed := seed + uint64(i)<<32
		// Set-up is timed against the reference too: a slice of it just
		// before and one just after.
		var around side
		if err := ref.throughputSlice(&around, buf); err != nil {
			return nil, err
		}
		s, c, took, err := setUp(w, keys, instanceSeed, filepath.Join(scratch, fmt.Sprintf("wal-%d", i)))
		if err != nil {
			return nil, err
		}
		if err := ref.throughputSlice(&around, buf); err != nil {
			c.close()
			s.close()
			return nil, err
		}
		rep.SetupRawS = append(rep.SetupRawS, took)
		rep.SetupS = append(rep.SetupS, took*around.opsPerS()/nominalOpsPerS)
		err = rep.measure(w, s, c, ref, instanceSeed, latLen, thrLen, buf)
		c.close()
		s.close()
		if err != nil {
			return nil, err
		}
		runtime.GC()
	}
	// The reference answers every request correctly or the yardstick is
	// broken.
	if ref.c.failed > 0 {
		return nil, fmt.Errorf("the reference server failed %d of %d requests", ref.c.failed, ref.c.attempted)
	}
	rep.reduce()

	rep.Process.AllocsPerOp = float64(rep.mallocs) / rep.ops
	rep.Process.AllocBytesPerOp = float64(rep.allocBytes) / rep.ops
	rep.Process.GCCPUFraction = rep.last.mem.GCCPUFraction // since process start: set-ups included
	rep.CostPerM = serveCost(rep.Stats["ops_per_s"].Value, rep.last.nodes, float64(rep.last.storedBytes),
		rep.walBytes/rep.ops, rep.walSyncs/rep.ops, rep.compacted/rep.ops)
	return rep, nil
}

// reduce turns the two sides into the run's figures. Throughput is all
// operations over all the time of the depth-16 slices, so work that
// comes in lumps (an LSM compaction fills one slice in three) counts in
// full. A latency quantile is taken over every depth-1 request of the
// run, the store's GETs or SETs over the reference's requests of either
// kind.
func (rep *serveReport) reduce() {
	st, ref := rep.store, rep.ref
	series := func(ss []sliceStat, pick func(sliceStat) float64) []float64 {
		vs := make([]float64, len(ss))
		for i, s := range ss {
			vs[i] = pick(s)
		}
		return vs
	}
	opsPerS := func(s sliceStat) float64 { return s.opsPerS }
	thr := newPairedStat(st.opsPerS(), ref.opsPerS(), nominalOpsPerS)
	thr.Stores, thr.Refs = series(st.thr, opsPerS), series(ref.thr, opsPerS)
	rep.Stats["ops_per_s"] = thr

	slices.Sort(st.get)
	slices.Sort(st.set)
	slices.Sort(ref.all)
	get, set, all := quantilesOf(st.get), quantilesOf(st.set), quantilesOf(ref.all)
	for i, nominal := range [len(quantiles)]float64{nominalP50us, nominalP95us, nominalP99us} {
		name := fmt.Sprintf("_p%.0f_us", 100*quantiles[i])
		refs := series(ref.lat, func(s sliceStat) float64 { return s.all[i] })
		g := newPairedStat(get[i], all[i], nominal)
		g.Samples, g.Stores, g.Refs = len(st.get), series(st.lat, func(s sliceStat) float64 { return s.get[i] }), refs
		rep.Stats["get"+name] = g
		t := newPairedStat(set[i], all[i], nominal)
		t.Samples, t.Stores, t.Refs = len(st.set), series(st.lat, func(s sliceStat) float64 { return s.set[i] }), refs
		rep.Stats["set"+name] = t
	}
}
