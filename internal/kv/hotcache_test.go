package kv_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/monitor"
	"repro/internal/netsim"
)

// hotConfig is quietConfig with the hot-key cache armed at toy scale:
// a two-key hot set re-evaluated every four operations, so a single
// hammered key promotes within a handful of reads.
func hotConfig(seed uint64) kv.Config {
	cfg := quietConfig(seed)
	cfg.HotCache = true
	cfg.HotSetSize = 2
	cfg.HotSetEvalOps = 4
	cfg.HotPromoteShare = 0.2
	return cfg
}

// promote hammers key with ONE reads until the tracker promotes it and
// the rotating coordinators fill and serve their caches, returning how
// many of the reads were cache hits. Later evaluation windows contain
// no writes, so the key's freshness bound settles at the 100 ms age cap.
func (h *harness) promote(t *testing.T, key string, reads int) int {
	t.Helper()
	cached := 0
	for i := 0; i < reads; i++ {
		r := h.read(key, kv.One)
		if r.Err != nil || !r.Exists {
			t.Fatalf("read %d of %s: err=%v exists=%v", i, key, r.Err, r.Exists)
		}
		if r.Cached {
			cached++
		}
	}
	return cached
}

// TestHotCacheHitAndWriteInvalidation: on a cluster where every node
// replicates every key (RF == N), hammered ONE reads promote the key
// and serve from the coordinator caches; a write at ALL invalidates the
// entry on every node, so no later read — cached or not — can ever
// return the overwritten value.
func TestHotCacheHitAndWriteInvalidation(t *testing.T) {
	h := newHarness(netsim.SingleDC(3), hotConfig(1))
	const key = "hot-invalidate"
	if w := h.write(key, []byte("v1"), kv.All); w.Err != nil {
		t.Fatal(w.Err)
	}

	if hits := h.promote(t, key, 12); hits == 0 {
		t.Fatal("no read was served from the cache after promotion")
	}
	if got := h.cluster.HotKeys(); len(got) != 1 || got[0] != key {
		t.Fatalf("hot set = %v, want [%s]", got, key)
	}
	u := h.cluster.Usage()
	if u.HotPromotions == 0 || u.CacheFills == 0 || u.CacheHits == 0 {
		t.Fatalf("cache never engaged: %+v", u)
	}

	if w := h.write(key, []byte("v2"), kv.All); w.Err != nil {
		t.Fatal(w.Err)
	}
	for i := 0; i < 6; i++ {
		r := h.read(key, kv.One)
		if r.Err != nil || string(r.Value) != "v2" {
			t.Fatalf("read %d after overwrite: err=%v value=%q cached=%v", i, r.Err, r.Value, r.Cached)
		}
	}
	u2 := h.cluster.Usage()
	// The ALL write found an entry on every replica (each of the three
	// nodes coordinated reads of the hot key before the overwrite).
	if u2.CacheInvalidations < 3 {
		t.Errorf("invalidations = %d, want >= 3 (one per replica holding an entry)", u2.CacheInvalidations)
	}
}

// TestHotCacheFreshnessExpiry: an entry older than the key's freshness
// bound is evicted, not served — idle time beyond the 100 ms age cap (the
// bound when the key sees no writes) forces the next read back to the
// replicas.
func TestHotCacheFreshnessExpiry(t *testing.T) {
	cfg := hotConfig(2)
	h := newHarness(netsim.SingleDC(3), cfg)
	const key = "hot-expire"
	if w := h.write(key, []byte("v1"), kv.All); w.Err != nil {
		t.Fatal(w.Err)
	}
	if hits := h.promote(t, key, 12); hits == 0 {
		t.Fatal("no cache hit before the idle gap")
	}

	h.eng.RunFor(200 * time.Millisecond) // > the 100 ms age cap: every entry ages out

	r := h.read(key, kv.One)
	if r.Cached {
		t.Fatal("read served a cache entry older than the freshness bound")
	}
	if r.Err != nil || string(r.Value) != "v1" {
		t.Fatalf("replica read after expiry: err=%v value=%q", r.Err, r.Value)
	}
	if u := h.cluster.Usage(); u.CacheExpired == 0 {
		t.Errorf("no entry counted as expired: %+v", u)
	}
}

// TestHotCacheQuorumBypass: only single-ack reads may substitute a
// cached cell — QUORUM reads of a hot, freshly cached key must still go
// to the replicas.
func TestHotCacheQuorumBypass(t *testing.T) {
	h := newHarness(netsim.SingleDC(3), hotConfig(3))
	const key = "hot-bypass"
	if w := h.write(key, []byte("v1"), kv.All); w.Err != nil {
		t.Fatal(w.Err)
	}
	if hits := h.promote(t, key, 12); hits == 0 {
		t.Fatal("no ONE read was served from the cache")
	}
	for i := 0; i < 6; i++ {
		if r := h.read(key, kv.Quorum); r.Cached || r.Err != nil {
			t.Fatalf("quorum read %d: cached=%v err=%v", i, r.Cached, r.Err)
		}
	}
	// The cache is still live for single-ack reads.
	if r := h.read(key, kv.One); !r.Cached {
		t.Error("ONE read after quorum traffic was not cache-served")
	}
}

// TestHotCacheRingEviction: membership movement voids fill-time
// invalidation contracts. The atomic flip of a join drops every cache
// wholesale, and under gossip a coordinator whose view moves (here:
// rewound with ResetGossipView to fake a maximally stale ring) evicts
// entries stamped with another ring rather than serving them.
func TestHotCacheRingEviction(t *testing.T) {
	cfg := hotConfig(4)
	cfg.InitialMembers = []netsim.NodeID{0, 1, 2}
	cfg.Gossip = true
	h := newHarness(netsim.SingleDC(5), cfg)
	const key = "hot-ring"
	if w := h.write(key, []byte("v1"), kv.All); w.Err != nil {
		t.Fatal(w.Err)
	}
	if hits := h.promote(t, key, 12); hits == 0 {
		t.Fatal("no cache hit before the join")
	}
	preJoin := h.cluster.Usage()

	h.join(3)
	h.eng.RunFor(300 * time.Millisecond) // streaming + placement flip
	h.waitConverged(t, 5*time.Second)
	postJoin := h.cluster.Usage()
	if postJoin.CacheRingEvicted <= preJoin.CacheRingEvicted {
		t.Errorf("join flip evicted nothing: %d -> %d",
			preJoin.CacheRingEvicted, postJoin.CacheRingEvicted)
	}

	// Refill on the new ring, then rewind every founder's view to the
	// pre-join prefix: their ring sequence no longer matches the stamps
	// on the refilled entries.
	if hits := h.promote(t, key, 12); hits == 0 {
		t.Fatal("no cache hit after the join converged")
	}
	for _, m := range []netsim.NodeID{0, 1, 2} {
		h.cluster.ResetGossipView(m, 0)
	}
	for i := 0; i < 8; i++ {
		r := h.read(key, kv.One)
		if r.Err != nil || string(r.Value) != "v1" {
			t.Fatalf("stale-ring read %d: err=%v value=%q", i, r.Err, r.Value)
		}
	}
	final := h.cluster.Usage()
	if final.CacheRingEvicted <= postJoin.CacheRingEvicted {
		t.Errorf("view rewind evicted nothing: %d -> %d",
			postJoin.CacheRingEvicted, final.CacheRingEvicted)
	}
}

// TestHotCacheStaleAccountingOracle: a cache hit is judged by the
// staleness oracle exactly like a replica-served read. On a cluster
// wider than RF, a write invalidates only the replicas' caches: a
// non-replica coordinator still holding an entry serves the old value
// within its freshness bound, the result carries Stale=true, and the
// CacheStaleServed meter agrees one-for-one with what clients observed.
// A monitor rides along to check the windowed feedback signals.
func TestHotCacheStaleAccountingOracle(t *testing.T) {
	cfg := hotConfig(5)
	cfg.HotSetSize = 4
	h := newHarness(netsim.SingleDC(6), cfg) // RF 3 < 6 nodes: caches outlive write invalidation
	mon := monitor.New(h.cluster.RF(), h.tr, monitor.DefaultOptions())
	h.cluster.AddHooks(mon.Hooks())

	var staleHits, freshHits uint64
	for k := 0; k < 20 && staleHits == 0; k++ {
		key := fmt.Sprintf("hot-oracle-%02d", k)
		if w := h.write(key, []byte("v1"), kv.All); w.Err != nil {
			t.Fatal(w.Err)
		}
		freshHits += uint64(h.promote(t, key, 12))
		if w := h.write(key, []byte("v2"), kv.All); w.Err != nil {
			t.Fatal(w.Err)
		}
		// Rotating coordinators: replicas answer fresh, a non-replica
		// still holding the pre-write entry answers stale from cache.
		for i := 0; i < 6; i++ {
			r := h.read(key, kv.One)
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if r.Cached && string(r.Value) == "v1" && !r.Stale {
				t.Fatalf("cache served the overwritten value without Stale: %+v", r)
			}
			if r.Cached && r.Stale {
				staleHits++
			}
			if r.Cached && !r.Stale {
				freshHits++
			}
		}
	}
	if staleHits == 0 {
		t.Fatal("no coordinator ever served a stale cache hit; the accounting path is untested")
	}
	u := h.cluster.Usage()
	if u.CacheStaleServed != staleHits {
		t.Errorf("CacheStaleServed = %d, client-observed stale cache hits = %d",
			u.CacheStaleServed, staleHits)
	}
	if u.CacheHits != staleHits+freshHits {
		t.Errorf("CacheHits = %d, client-observed cache hits = %d", u.CacheHits, staleHits+freshHits)
	}
	snap := mon.Snapshot()
	if snap.CacheHitShare <= 0 {
		t.Errorf("monitor CacheHitShare = %v, want > 0", snap.CacheHitShare)
	}
	if snap.ObservedStaleRate <= 0 {
		t.Errorf("monitor ObservedStaleRate = %v, want > 0 (stale cache serves are window feedback)", snap.ObservedStaleRate)
	}
}

// TestHotCacheOffIsInert: without Config.HotCache no tracker exists, no
// meter moves, and no read ever reports Cached — the feature is
// strictly opt-in.
func TestHotCacheOffIsInert(t *testing.T) {
	h := newHarness(netsim.SingleDC(3), quietConfig(6))
	const key = "cold"
	if w := h.write(key, []byte("v1"), kv.All); w.Err != nil {
		t.Fatal(w.Err)
	}
	for i := 0; i < 12; i++ {
		if r := h.read(key, kv.One); r.Cached || r.Err != nil {
			t.Fatalf("read %d: cached=%v err=%v", i, r.Cached, r.Err)
		}
	}
	u := h.cluster.Usage()
	if u.CacheHits != 0 || u.CacheMisses != 0 || u.CacheFills != 0 || u.HotPromotions != 0 {
		t.Errorf("cache meters moved without HotCache: %+v", u)
	}
	if keys := h.cluster.HotKeys(); len(keys) != 0 {
		t.Errorf("hot set = %v without HotCache", keys)
	}
}
