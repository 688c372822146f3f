package kv

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/storage"
)

// preloadReference is the record-by-record load Cluster.Preload replaced:
// every record ledgered by three oracle calls and applied to its replicas'
// engines in turn. It defines what a bulk load must leave behind.
func preloadReference(c *Cluster, n uint64, key func(uint64) string, value []byte) {
	now := c.net.Now()
	for i := uint64(0); i < n; i++ {
		k := key(i)
		v := storage.Version{Timestamp: 0, Seq: c.nextSeq()}
		replicas := c.strategy.Replicas(k)
		c.oracle.WriteStarted(k, v, len(replicas), now)
		c.oracle.WriteVisible(k, v)
		cell := storage.Cell{Version: v, Value: value}
		for _, r := range replicas {
			if c.nodes[r].engine.Apply(k, cell) {
				c.oracle.Applied(r, v, now)
			}
		}
	}
}

// preloadTrial is one random cluster and load scenario.
type preloadTrial struct {
	topo     *netsim.Topology
	cfg      Config
	universe int    // distinct keys the scenario touches
	early    int    // client writes issued (and left in flight) before the first load
	first    uint64 // records of the first load
	dup      uint64 // first load: record i carries key i % dup
	second   uint64 // records of the second load, over keys shifted by first/2
}

func (tr preloadTrial) String() string {
	return fmt.Sprintf("nodes=%d rf=%d perDC=%v engine=%v flush=%d sync=%d early=%d first=%d dup=%d second=%d",
		tr.topo.N(), tr.cfg.RF, tr.cfg.PerDC, tr.cfg.Engine, tr.cfg.FlushLimit, tr.cfg.WALSyncBytes,
		tr.early, tr.first, tr.dup, tr.second)
}

func newPreloadTrial(seed uint64) preloadTrial {
	rng := stats.NewSource(seed)
	nodes := 3 + rng.IntN(22)
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.HintReplayInterval = 0
	cfg.AntiEntropyInterval = 0
	tr := preloadTrial{}
	if rng.IntN(2) == 0 {
		tr.topo = netsim.SingleDC(nodes)
		cfg.RF = 1 + rng.IntN(min(5, nodes))
	} else {
		tr.topo = netsim.G5KTwoSites(nodes)
		a := 1 + rng.IntN(min(4, nodes/2))
		b := 1 + rng.IntN(min(5-a, nodes-nodes/2))
		cfg.PerDC = map[string]int{"rennes": a, "sophia": b}
	}
	if rng.IntN(2) == 0 {
		// Small enough that loads seal runs and compact on the way.
		cfg.Engine = storage.LSM
		cfg.FlushLimit = int64(512 << rng.IntN(6))
		cfg.WALSyncBytes = int64(rng.IntN(2) * 1024)
		cfg.MaxRuns = 2 + rng.IntN(3)
	}
	tr.cfg = cfg
	switch rng.IntN(4) {
	case 0: // nothing to load
	case 1:
		tr.first = 1
	default:
		tr.first = 2 + rng.Uint64N(400)
	}
	tr.dup = max(1, tr.first)
	if tr.first > 1 && rng.IntN(2) == 0 {
		tr.dup = 1 + rng.Uint64N(tr.first)
	}
	if rng.IntN(2) == 0 {
		tr.second = rng.Uint64N(tr.first + 2)
	}
	if rng.IntN(2) == 0 {
		tr.early = 1 + rng.IntN(30)
	}
	tr.universe = int(tr.first/2+max(tr.first, tr.second)) + 1
	return tr
}

func preloadKey(i uint64) string { return fmt.Sprintf("user%06d", i) }

type preloadFunc func(c *Cluster, n uint64, key func(uint64) string, value []byte)

// preloadRun drives one cluster through the trial, loading with load and
// then running ops client operations on the loaded store; it returns the
// cluster, its engine and the transcript of the operations.
func preloadRun(t *testing.T, tr preloadTrial, load preloadFunc, ops int) (*Cluster, *sim.Engine, []string) {
	t.Helper()
	eng := sim.New(tr.cfg.Seed)
	c := New(tr.topo, netsim.NewTransport(eng, tr.topo), tr.cfg)
	rng := stats.NewSource(tr.cfg.Seed).Stream("ops")
	levels := []Level{One, Quorum, All}
	step := func(done *bool) {
		for !*done && eng.Step() {
		}
		if !*done {
			t.Fatalf("%v: operation never completed", tr)
		}
	}

	// Writes acknowledged by one replica and still on their way to the
	// others: the load that follows is refused where they have landed.
	for i := 0; i < tr.early; i++ {
		done := false
		c.Write(preloadKey(rng.Uint64N(uint64(tr.universe))), []byte("early"), One, func(WriteResult) { done = true })
		step(&done)
	}
	if tr.early > 0 {
		// And one accepted by its coordinator but not acknowledged yet:
		// the key's two watermarks differ when the load reaches it.
		key := preloadKey(rng.Uint64N(uint64(tr.universe)))
		c.Write(key, []byte("open"), All, func(WriteResult) {})
		for !c.oracle.LatestIssued(key).After(c.oracle.LatestVisible(key)) && eng.Step() {
		}
	}
	load(c, tr.first, func(i uint64) string { return preloadKey(i % tr.dup) }, make([]byte, 100))
	load(c, tr.second, func(i uint64) string { return preloadKey(i + tr.first/2) }, make([]byte, 60))

	var transcript []string
	for i := 0; i < ops; i++ {
		key, lvl := preloadKey(rng.Uint64N(uint64(tr.universe))), levels[rng.IntN(len(levels))]
		done := false
		if rng.IntN(2) == 0 {
			c.Read(key, lvl, func(r ReadResult) { transcript = append(transcript, fmt.Sprintf("%+v", r)); done = true })
		} else {
			c.Write(key, []byte{byte(i)}, lvl, func(r WriteResult) { transcript = append(transcript, fmt.Sprintf("%+v", r)); done = true })
		}
		step(&done)
	}
	return c, eng, transcript
}

// equalStores fails the test unless the two clusters hold the same data
// in every engine, the same oracle ledger and the same sequence counter.
func equalStores(t *testing.T, tr preloadTrial, stage string, got, want *Cluster) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%v, %s: "+format, append([]any{tr, stage}, args...)...)
	}
	if got.seq != want.seq {
		fail("sequence counter %d, want %d", got.seq, want.seq)
	}
	for _, id := range want.allNodes {
		g, w := got.nodes[id].engine, want.nodes[id].engine
		if g.Len() != w.Len() || g.Bytes() != w.Bytes() || g.KeyCount() != w.KeyCount() {
			fail("node %d: Len/Bytes/KeyCount %d/%d/%d, want %d/%d/%d", id,
				g.Len(), g.Bytes(), g.KeyCount(), w.Len(), w.Bytes(), w.KeyCount())
		}
		for i := 0; i < w.KeyCount(); i++ {
			if g.KeyAt(i) != w.KeyAt(i) {
				fail("node %d: KeyAt(%d) = %q, want %q", id, i, g.KeyAt(i), w.KeyAt(i))
			}
		}
		if !reflect.DeepEqual(g.Keys(), w.Keys()) {
			fail("node %d: Keys() differ", id)
		}
		for i := 0; i < tr.universe; i++ {
			gc, gok := g.Get(preloadKey(uint64(i)))
			wc, wok := w.Get(preloadKey(uint64(i)))
			if gok != wok || !reflect.DeepEqual(gc, wc) {
				fail("node %d: Get(%q) = %v %v, want %v %v", id, preloadKey(uint64(i)), gc, gok, wc, wok)
			}
		}
		// The key index carries each key's ring token: what a
		// range-restricted snapshot of the engine selects by.
		ranges := want.strategy.Ranges()
		for _, rp := range ranges[:min(3, len(ranges))] {
			arc := []ring.Range{rp.Range}
			if gs, ws := drainSnapshot(g.SnapshotRanges(arc)), drainSnapshot(w.SnapshotRanges(arc)); !reflect.DeepEqual(gs, ws) {
				fail("node %d: SnapshotRanges(%v) = %v, want %v", id, arc, gs, ws)
			}
		}
		if gs, ws := g.Stats(), w.Stats(); gs != ws {
			fail("node %d: Stats %+v, want %+v", id, gs, ws)
		}
	}

	go_, wo := got.oracle, want.oracle
	for i := 0; i < tr.universe; i++ {
		gv, gi := go_.Latest(preloadKey(uint64(i)))
		wv, wi := wo.Latest(preloadKey(uint64(i)))
		if gv != wv || gi != wi {
			fail("Latest(%q) = %v %v, want %v %v", preloadKey(uint64(i)), gv, gi, wv, wi)
		}
	}
	if go_.InFlight() != wo.InFlight() {
		fail("InFlight %d, want %d", go_.InFlight(), wo.InFlight())
	}
	type histPair struct {
		name      string
		got, want *stats.Histogram
	}
	hists := []histPair{{"Propagation", go_.Propagation(), wo.Propagation()}}
	for rank := 1; rank <= want.RF(); rank++ {
		hists = append(hists, histPair{fmt.Sprintf("RankDelay(%d)", rank), go_.RankDelay(rank), wo.RankDelay(rank)})
	}
	for _, h := range hists {
		if h.got.Count() != h.want.Count() {
			fail("%s count %d, want %d", h.name, h.got.Count(), h.want.Count())
		}
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
			if h.got.Quantile(q) != h.want.Quantile(q) {
				fail("%s q%.2f = %v, want %v", h.name, q, h.got.Quantile(q), h.want.Quantile(q))
			}
		}
	}
	// Everything above and whatever it leaves out: the pending entries
	// with their applied sets, the write count, the verdict tallies.
	if !reflect.DeepEqual(go_, wo) {
		fail("oracle ledgers differ:\n got %+v\nwant %+v", go_, wo)
	}
}

func drainSnapshot(it storage.SnapshotIter) []string {
	var out []string
	for {
		k, c, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, fmt.Sprintf("%s=%v", k, c.Version))
	}
}

// TestPreloadEqualsRecordByRecordLoad is the contract of the bulk load:
// over random clusters (3–24 nodes, RF 1–5, both placement strategies,
// both engines), loads of 0, 1 and n records, duplicate keys, a second
// load over an overlapping key set and a load over client writes still
// in flight (so that some replicas refuse it), Preload leaves every
// engine, the oracle and the sequence counter exactly as the
// record-by-record load does, and the two stores then answer the same
// 200 operations identically.
func TestPreloadEqualsRecordByRecordLoad(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 30
	}
	refusals := uint64(0)
	rejected := func(c *Cluster) (n uint64) {
		for _, id := range c.allNodes {
			n += c.nodes[id].engine.Stats().Rejected
		}
		return n
	}
	reference := func(c *Cluster, n uint64, key func(uint64) string, value []byte) {
		before := rejected(c)
		preloadReference(c, n, key, value)
		refusals += rejected(c) - before
	}
	for seed := uint64(1); seed <= uint64(trials); seed++ {
		tr := newPreloadTrial(seed)

		// The loaded store first: operations would blur a difference.
		got, _, _ := preloadRun(t, tr, (*Cluster).Preload, 0)
		want, _, _ := preloadRun(t, tr, reference, 0)
		equalStores(t, tr, "after the loads", got, want)

		got, geng, gotOps := preloadRun(t, tr, (*Cluster).Preload, 200)
		want, weng, wantOps := preloadRun(t, tr, reference, 200)
		for i := range wantOps {
			if gotOps[i] != wantOps[i] {
				t.Fatalf("%v: operation %d:\n got %s\nwant %s", tr, i, gotOps[i], wantOps[i])
			}
		}
		geng.Run()
		weng.Run()
		if geng.Now() != weng.Now() || geng.Events() != weng.Events() {
			t.Fatalf("%v: drained at %v after %d events, want %v after %d",
				tr, geng.Now(), geng.Events(), weng.Now(), weng.Events())
		}
		equalStores(t, tr, "after 200 operations and a drain", got, want)
	}
	if refusals == 0 {
		t.Fatal("no trial loaded over data a replica refused to replace")
	}
}

// TestPreloadOverNewerDataStaysInFlight pins the ledger of a record its
// replicas refuse: started and acknowledged, applied nowhere, it stays
// in flight and moves no watermark and no histogram.
func TestPreloadOverNewerDataStaysInFlight(t *testing.T) {
	topo := netsim.SingleDC(5)
	cfg := DefaultConfig()
	cfg.HintReplayInterval = 0
	eng := sim.New(cfg.Seed)
	c := New(topo, netsim.NewTransport(eng, topo), cfg)
	var w WriteResult
	c.Write("k", []byte("newer"), All, func(r WriteResult) { w = r })
	eng.Run()
	if w.Err != nil || c.oracle.InFlight() != 0 {
		t.Fatalf("write: %+v, in flight %d", w, c.oracle.InFlight())
	}
	propagated := c.oracle.Propagation().Count()

	c.Preload(2, func(i uint64) string { return []string{"k", "fresh"}[i] }, []byte("loaded"))

	if got := c.oracle.InFlight(); got != 1 {
		t.Fatalf("in flight %d, want the refused record alone", got)
	}
	if visible, issued := c.oracle.Latest("k"); visible != w.Version || issued != w.Version {
		t.Fatalf("Latest(k) = %v %v, want the client write %v", visible, issued, w.Version)
	}
	if got := c.oracle.Propagation().Count(); got != propagated+1 {
		t.Fatalf("propagation samples %d, want %d (the accepted record only)", got, propagated+1)
	}
	for _, r := range c.strategy.Replicas("k") {
		if cell, _ := c.nodes[r].engine.Peek("k"); string(cell.Value) != "newer" {
			t.Fatalf("node %d holds %q", r, cell.Value)
		}
	}
}
