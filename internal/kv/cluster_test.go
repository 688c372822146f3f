package kv_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/ycsb"
)

// quietConfig disables periodic background tasks so the event queue
// drains fully, letting tests assert quiescent state.
func quietConfig(seed uint64) kv.Config {
	cfg := kv.DefaultConfig()
	cfg.Seed = seed
	cfg.HintReplayInterval = 0
	cfg.AntiEntropyInterval = 0
	return cfg
}

// write and read run one operation to completion and return its result.
func (h *harness) write(key string, value []byte, lvl kv.Level) kv.WriteResult {
	var out kv.WriteResult
	done := false
	h.cluster.Write(key, value, lvl, func(r kv.WriteResult) { out = r; done = true })
	for !done && h.eng.Step() {
	}
	if !done {
		panic("write never completed")
	}
	return out
}

func (h *harness) read(key string, lvl kv.Level) kv.ReadResult {
	var out kv.ReadResult
	done := false
	h.cluster.Read(key, lvl, func(r kv.ReadResult) { out = r; done = true })
	for !done && h.eng.Step() {
	}
	if !done {
		panic("read never completed")
	}
	return out
}

func TestWriteThenReadQuorumIsFresh(t *testing.T) {
	h := newHarness(netsim.G5KTwoSites(6), quietConfig(1))
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		w := h.write(key, []byte("v"), kv.Quorum)
		if w.Err != nil {
			t.Fatalf("write: %v", w.Err)
		}
		r := h.read(key, kv.Quorum)
		if r.Err != nil || !r.Exists || r.Stale {
			t.Fatalf("quorum read after quorum write: %+v", r)
		}
		if r.Version != w.Version {
			t.Fatalf("read version %v != written %v", r.Version, w.Version)
		}
	}
}

func TestAllReplicasConvergeAfterWriteOne(t *testing.T) {
	h := newHarness(netsim.G5KTwoSites(6), quietConfig(2))
	w := h.write("converge", []byte("payload"), kv.One)
	if w.Err != nil {
		t.Fatal(w.Err)
	}
	h.eng.Run() // drain: no periodic tasks configured
	replicas := h.cluster.Strategy().Replicas("converge")
	if len(replicas) != 3 {
		t.Fatalf("replicas = %d", len(replicas))
	}
	for _, id := range replicas {
		cell, ok := h.cluster.Node(id).Engine().Peek("converge")
		if !ok || cell.Version != w.Version {
			t.Errorf("replica %d did not converge: %v (want %v)", id, cell.Version, w.Version)
		}
	}
	if h.cluster.Oracle().InFlight() != 0 {
		t.Errorf("oracle still tracks %d in-flight writes", h.cluster.Oracle().InFlight())
	}
}

// TestConvergencePropertyRandomOps: after any run of random operations
// with no failures, once the system quiesces every key's replicas hold
// identical versions — the eventual-consistency guarantee.
func TestConvergencePropertyRandomOps(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		h := newHarness(netsim.EC2TwoAZ(8), quietConfig(seed))
		rng := h.eng.RNG().Stream("ops")
		levels := []kv.Level{kv.One, kv.Two, kv.Quorum, kv.All}
		pending := 0
		for i := 0; i < 300; i++ {
			key := fmt.Sprintf("key-%d", rng.IntN(20))
			lvl := levels[rng.IntN(len(levels))]
			pending++
			if rng.Float64() < 0.6 {
				h.cluster.Write(key, []byte(fmt.Sprintf("v%d", i)), lvl,
					func(kv.WriteResult) { pending-- })
			} else {
				h.cluster.Read(key, lvl, func(kv.ReadResult) { pending-- })
			}
			// Let the simulation interleave.
			for s := 0; s < 5; s++ {
				h.eng.Step()
			}
		}
		h.eng.Run()
		if pending != 0 {
			t.Fatalf("seed %d: %d operations never completed", seed, pending)
		}
		for k := 0; k < 20; k++ {
			key := fmt.Sprintf("key-%d", k)
			replicas := h.cluster.Strategy().Replicas(key)
			var want storage.Version
			for i, id := range replicas {
				cell, ok := h.cluster.Node(id).Engine().Peek(key)
				if !ok {
					continue
				}
				if i == 0 || cell.Version.After(want) {
					want = cell.Version
				}
			}
			for _, id := range replicas {
				cell, ok := h.cluster.Node(id).Engine().Peek(key)
				if ok && cell.Version != want {
					t.Errorf("seed %d: %s diverged on node %d: %v vs %v",
						seed, key, id, cell.Version, want)
				}
			}
		}
	}
}

func TestReadAllNeverStale(t *testing.T) {
	h := newHarness(netsim.G5KTwoSites(6), quietConfig(3))
	rng := h.eng.RNG().Stream("ops")
	stale := 0
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", rng.IntN(5))
		h.cluster.Write(key, []byte("x"), kv.One, func(kv.WriteResult) {})
		h.cluster.Read(key, kv.All, func(r kv.ReadResult) {
			if r.Err == nil && r.Stale {
				stale++
			}
		})
		for s := 0; s < 3; s++ {
			h.eng.Step()
		}
	}
	h.eng.Run()
	if stale != 0 {
		t.Errorf("ALL reads returned stale data %d times", stale)
	}
}

func TestUnavailableAfterDetection(t *testing.T) {
	h := newHarness(netsim.SingleDC(3), quietConfig(4))
	h.write("k", []byte("v"), kv.All)
	// Kill two of the three replicas.
	reps := h.cluster.Strategy().Replicas("k")
	h.cluster.Fail(reps[1])
	h.cluster.Fail(reps[2])
	h.eng.RunFor(2 * time.Second) // past the detection delay

	r := h.read("k", kv.All)
	if !errors.Is(r.Err, kv.ErrUnavailable) {
		t.Errorf("read ALL with 2/3 replicas down: err = %v, want unavailable", r.Err)
	}
	w := h.write("k", []byte("v2"), kv.Quorum)
	if !errors.Is(w.Err, kv.ErrUnavailable) {
		t.Errorf("write QUORUM with 1/3 replicas up: err = %v, want unavailable", w.Err)
	}
	// Level ONE still works.
	r = h.read("k", kv.One)
	if r.Err != nil || !r.Exists {
		t.Errorf("read ONE should succeed: %+v", r)
	}
}

func TestTimeoutBeforeDetection(t *testing.T) {
	cfg := quietConfig(5)
	cfg.Timeout = 200 * time.Millisecond
	cfg.DetectionDelay = time.Hour // failure detector never learns
	h := newHarness(netsim.SingleDC(3), cfg)
	h.write("k", []byte("v"), kv.All)
	reps := h.cluster.Strategy().Replicas("k")
	h.tr.Fail(reps[1]) // transport-level only: coordinators don't know
	r := h.read("k", kv.All)
	if !errors.Is(r.Err, kv.ErrTimeout) {
		t.Errorf("read ALL with silent replica: err = %v, want timeout", r.Err)
	}
	if r.Latency < cfg.Timeout {
		t.Errorf("timeout fired early: %v", r.Latency)
	}
}

func TestHintedHandoffReplaysAfterRecovery(t *testing.T) {
	cfg := quietConfig(6)
	cfg.HintReplayInterval = 500 * time.Millisecond
	h := newHarness(netsim.SingleDC(4), cfg)
	h.write("k", []byte("v0"), kv.All)
	reps := h.cluster.Strategy().Replicas("k")
	down := reps[2]
	h.cluster.Fail(down)
	h.eng.RunFor(2 * time.Second) // detection

	w := h.write("k", []byte("v1"), kv.One) // hint stored for down replica
	if w.Err != nil {
		t.Fatal(w.Err)
	}
	h.eng.RunFor(time.Second)
	if cell, _ := h.cluster.Node(down).Engine().Peek("k"); cell.Version == w.Version {
		t.Fatal("down replica received write while down")
	}

	h.cluster.Recover(down)
	h.eng.RunFor(5 * time.Second) // detection + replay ticks
	cell, ok := h.cluster.Node(down).Engine().Peek("k")
	if !ok || cell.Version != w.Version {
		t.Errorf("hint not replayed: resident %v, want %v", cell.Version, w.Version)
	}
	if h.cluster.Usage().HintsReplayed == 0 {
		t.Error("no hints replayed recorded")
	}
}

func TestReadRepairHealsStaleReplica(t *testing.T) {
	cfg := quietConfig(7)
	cfg.ReadRepair = true
	cfg.GlobalRepairChance = 0
	h := newHarness(netsim.SingleDC(3), cfg)
	h.write("k", []byte("v0"), kv.All)
	reps := h.cluster.Strategy().Replicas("k")

	// Inject divergence directly: one replica misses the latest version.
	newer := storage.Cell{Version: storage.Version{Timestamp: h.eng.Now() + 1, Seq: 999}, Value: []byte("v1")}
	h.cluster.Node(reps[0]).Engine().Apply("k", newer)
	h.cluster.Node(reps[1]).Engine().Apply("k", newer)

	r := h.read("k", kv.All) // sees divergence, repairs reps[2]
	if string(r.Value) != "v1" {
		t.Fatalf("read returned %q", r.Value)
	}
	h.eng.Run()
	cell, _ := h.cluster.Node(reps[2]).Engine().Peek("k")
	if cell.Version != newer.Version {
		t.Errorf("read repair did not heal replica: %v", cell.Version)
	}
	if h.cluster.Usage().ReadRepairs == 0 {
		t.Error("no repairs recorded")
	}
}

func TestAntiEntropyConvergesPartitionedReplica(t *testing.T) {
	cfg := quietConfig(8)
	cfg.ReadRepair = false
	cfg.GlobalRepairChance = 0
	cfg.AntiEntropyInterval = 300 * time.Millisecond
	cfg.AntiEntropySample = 64
	h := newHarness(netsim.SingleDC(4), cfg)
	h.write("k", []byte("v0"), kv.All)
	reps := h.cluster.Strategy().Replicas("k")

	// Partition one replica, write new data, heal, let AE run.
	lag := reps[2]
	others := []netsim.NodeID{}
	for _, id := range h.topo.Nodes() {
		if id != lag {
			others = append(others, id)
		}
	}
	h.tr.Partition([]netsim.NodeID{lag}, others)
	w := h.write("k", []byte("v1"), kv.Quorum)
	if w.Err != nil {
		t.Fatal(w.Err)
	}
	h.tr.Heal()
	h.eng.RunFor(10 * time.Second)

	cell, _ := h.cluster.Node(lag).Engine().Peek("k")
	if cell.Version != w.Version {
		t.Errorf("anti-entropy did not converge lagging replica: %v want %v", cell.Version, w.Version)
	}
	if h.cluster.Usage().AERounds == 0 {
		t.Error("no anti-entropy rounds ran")
	}
}

func TestDigestMismatchReturnsFreshValue(t *testing.T) {
	cfg := quietConfig(9)
	cfg.DigestReads = true
	cfg.ReadTargets = kv.TargetClosest
	h := newHarness(netsim.SingleDC(3), cfg)
	h.write("k", []byte("old"), kv.All)
	reps := h.cluster.Strategy().Replicas("k")

	// Make only the LAST-preference replicas fresh so the data request
	// hits a stale replica and the digest carries the newer version.
	newer := storage.Cell{Version: storage.Version{Timestamp: h.eng.Now() + 1, Seq: 777}, Value: []byte("new")}
	h.cluster.Node(reps[2]).Engine().Apply("k", newer)

	for i := 0; i < 20; i++ {
		r := h.read("k", kv.All)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if string(r.Value) != "new" {
			t.Fatalf("digest mismatch path returned stale bytes %q", r.Value)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func(seed uint64) (uint64, uint64, uint64) {
		topo := netsim.G5KTwoSites(8)
		cfg := kv.DefaultConfig()
		cfg.Seed = seed
		h := newHarness(topo, cfg)
		m := h.runYCSB(t, ycsb.HeavyReadUpdate(1000), kv.StaticSession{
			Cluster: h.cluster, ReadLevel: kv.One, WriteLevel: kv.One}, 5000, 16)
		return m.StaleReads, m.FreshReads, h.eng.Events()
	}
	s1, f1, e1 := run(42)
	s2, f2, e2 := run(42)
	if s1 != s2 || f1 != f2 || e1 != e2 {
		t.Errorf("same seed diverged: (%d,%d,%d) vs (%d,%d,%d)", s1, f1, e1, s2, f2, e2)
	}
	s3, _, e3 := run(43)
	if s1 == s3 && e1 == e3 {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestPreloadVisibleEverywhere(t *testing.T) {
	h := newHarness(netsim.SingleDC(3), quietConfig(10))
	value := []byte("seed")
	h.cluster.Preload(100, func(i uint64) string { return fmt.Sprintf("key-%d", i) }, value)
	for i := 0; i < 100; i++ {
		r := h.read(fmt.Sprintf("key-%d", i), kv.One)
		if r.Err != nil || !r.Exists || r.Stale {
			t.Fatalf("preloaded key %d: %+v", i, r)
		}
	}
}

func TestCoordinatorLocalDCPolicy(t *testing.T) {
	topo := netsim.G5KTwoSites(6)
	cfg := quietConfig(11)
	cfg.Coordinators = topo.NodesInDC(topo.DCOf(0))
	h := newHarness(topo, cfg)
	for i := 0; i < 30; i++ {
		h.write(fmt.Sprintf("k%d", i), []byte("v"), kv.One)
	}
	local := h.cluster.Topology().NodesInDC(topo.DCOf(0))
	localSet := map[netsim.NodeID]bool{}
	for _, id := range local {
		localSet[id] = true
	}
	var remoteCoord uint64
	for _, id := range h.topo.Nodes() {
		if !localSet[id] {
			remoteCoord += h.cluster.Node(id).CoordOps()
		}
	}
	if remoteCoord != 0 {
		t.Errorf("remote-DC nodes coordinated %d ops with local-DC coordinators", remoteCoord)
	}
}
