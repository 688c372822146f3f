package kv_test

import (
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/ycsb"
)

// harness bundles the common simulation setup for store-level tests.
type harness struct {
	eng     *sim.Engine
	topo    *netsim.Topology
	tr      *netsim.Transport
	cluster *kv.Cluster
}

func newHarness(topo *netsim.Topology, cfg kv.Config) *harness {
	eng := sim.New(cfg.Seed)
	tr := netsim.NewTransport(eng, topo)
	cl := kv.New(topo, tr, cfg)
	return &harness{eng: eng, topo: topo, tr: tr, cluster: cl}
}

// join and decommission start a membership change the test knows to be
// valid; a refusal is a broken test and panics.
func (h *harness) join(id netsim.NodeID) {
	if err := h.cluster.Join(id); err != nil {
		panic(err)
	}
}

func (h *harness) decommission(id netsim.NodeID) {
	if err := h.cluster.Decommission(id); err != nil {
		panic(err)
	}
}

// runYCSB loads records and drives a workload to completion, returning
// the metrics.
func (h *harness) runYCSB(t testing.TB, w ycsb.Workload, sess kv.Session, ops uint64, threads int) *ycsb.Metrics {
	t.Helper()
	r, err := ycsb.NewRunner(sess, w, h.tr, h.cluster.Config().Seed)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	r.OpCount = ops
	r.Threads = threads
	h.cluster.Preload(w.RecordCount, r.Keys, r.Value())
	r.Start()
	deadline := h.eng.Now() + 30*time.Minute
	for !r.Finished() && h.eng.Now() < deadline {
		if !h.eng.Step() {
			break
		}
	}
	if !r.Finished() {
		t.Fatalf("workload did not finish: issued ops stalled at %v (pending events %d)", h.eng.Now(), h.eng.Pending())
	}
	return r.Metrics()
}

func TestSmokeStaticLevels(t *testing.T) {
	type result struct {
		level kv.Level
		m     *ycsb.Metrics
	}
	var results []result
	for _, lvl := range []kv.Level{kv.One, kv.Quorum, kv.All} {
		topo := netsim.G5KTwoSites(12)
		cfg := kv.DefaultConfig()
		cfg.RF = 3
		cfg.Seed = 42
		h := newHarness(topo, cfg)
		sess := kv.StaticSession{Cluster: h.cluster, ReadLevel: lvl, WriteLevel: lvl}
		m := h.runYCSB(t, ycsb.HeavyReadUpdate(2000), sess, 20000, 32)
		results = append(results, result{lvl, m})
		t.Logf("%-8v %s", lvl, m.String())
	}

	one, quorum, all := results[0].m, results[1].m, results[2].m
	if one.Throughput() <= all.Throughput() {
		t.Errorf("expected ONE throughput > ALL: %.0f vs %.0f", one.Throughput(), all.Throughput())
	}
	if one.StaleRate() <= quorum.StaleRate() {
		t.Errorf("expected ONE staler than QUORUM: %.3f vs %.3f", one.StaleRate(), quorum.StaleRate())
	}
	if all.StaleReads != 0 {
		t.Errorf("ALL must never read stale, got %d stale reads", all.StaleReads)
	}
	if quorum.StaleReads != 0 {
		t.Errorf("QUORUM (R+W>N) must never read stale, got %d stale reads", quorum.StaleReads)
	}
	if one.Ops != 20000 {
		t.Errorf("expected 20000 measured ops, got %d", one.Ops)
	}
}
