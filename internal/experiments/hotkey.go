package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/harmony"
	"repro/internal/kv"
	"repro/internal/stats"
	"repro/internal/ycsb"
)

// The hot-key study (PR 8): what the hot-set tracker and the
// freshness-bounded coordinator read cache buy under Zipfian traffic,
// and what per-key consistency adds on top. Three variants run the same
// three phases over identical workloads:
//
//	no-cache   — Harmony per-key tuner, Config.HotCache off: every read
//	             pays the full replica round-trip (the PR 7 baseline)
//	cache      — Config.HotCache on: single-ack reads of tracked hot
//	             keys answer from the coordinator cache when the entry
//	             is younger than its freshness bound
//	cache+hot  — cache plus the hot-key-aware Harmony tuner, which pins
//	             each hot key to its own smallest safe read level
//
// The phases stress the cache's correctness machinery in turn:
//
//	steady — Zipf(0.99) read-heavy mix; the tracker promotes the head
//	         keys and the cache warms up
//	shift  — the key space rotates to a fresh prefix mid-run: the old
//	         hot set's read share collapses, demotion hysteresis swaps
//	         the tracked set, and the cache re-warms on the new head
//	burst  — a write burst hammers the head key: its per-key write rate
//	         λ jumps, the freshness bound −ln(1−α)/λ collapses, and the
//	         cache must stop serving the key before staleness breaches α
//
// Per phase the study reports throughput, read p99, the oracle stale
// rate, and the cache meter deltas; the headline checks are that cache
// hits cut messages per operation while the windowed observed stale
// rate stays under the same α=10% the no-cache baseline honors.
type hotKeyVariant struct {
	Name     string
	Cache    bool
	PerLevel bool // hot-key-aware tuner pinning per-key read levels
}

// hotKeyOutcome is one variant's full measurement.
type hotKeyOutcome struct {
	Variant hotKeyVariant
	Phases  []window
	// WholeRunStale is the oracle stale rate over all judged reads.
	WholeRunStale float64
	Usage         kv.Usage
}

// hotKeyAlpha is the staleness target every variant must hold — the
// same α the cache's freshness bound is derived from.
const hotKeyAlpha = 0.10

// RunHotKey runs the study on platform p for all three variants, fanned
// out over the parallel driver.
func RunHotKey(p Platform, seed uint64) ([]hotKeyOutcome, *Table) {
	variants := []hotKeyVariant{
		{Name: "no-cache", Cache: false},
		{Name: "cache", Cache: true},
		{Name: "cache+hot", Cache: true, PerLevel: true},
	}
	outcomes := parallelMap(variants, func(v hotKeyVariant) hotKeyOutcome {
		return runHotKeyVariant(p, v, seed)
	})

	t := NewTable("Hot-key cache (PR 8): freshness-bounded coordinator reads and per-key "+
		"consistency under Zipfian traffic — "+p.Name,
		"variant", "phase", "ops", "throughput(op/s)", "read p99", "stale", "msgs/op",
		"hits", "misses", "expired", "stale-served", "hot keys")
	for _, out := range outcomes {
		for _, ph := range out.Phases {
			u := ph.Usage // cache meters over the window; HotKeysNow as it closed
			t.Add(out.Variant.Name, ph.Name, fmt.Sprintf("%d", ph.Metrics.Ops),
				fmt.Sprintf("%.0f", ph.Metrics.Throughput()), fmt.Sprintf("%v", ph.Metrics.ReadLat.Quantile(0.99)),
				pct(ph.StaleRate()), fmt.Sprintf("%.1f", msgsPerOp(ph)),
				fmt.Sprintf("%d", u.CacheHits), fmt.Sprintf("%d", u.CacheMisses),
				fmt.Sprintf("%d", u.CacheExpired), fmt.Sprintf("%d", u.CacheStaleServed),
				fmt.Sprintf("%d", u.HotKeysNow))
		}
		u := out.Usage
		t.Note("%s: whole-run stale %s; %d hits / %d misses / %d fills, "+
			"%d invalidations, %d expired, %d ring-evicted, %d stale served; "+
			"%d promotions, %d demotions",
			out.Variant.Name, pct(out.WholeRunStale),
			u.CacheHits, u.CacheMisses, u.CacheFills, u.CacheInvalidations,
			u.CacheExpired, u.CacheRingEvicted, u.CacheStaleServed,
			u.HotPromotions, u.HotDemotions)
	}
	t.Note("a hit answers in the coordinator with zero replica messages; the freshness bound " +
		"−ln(1−α)/λ keeps the expected stale rate of hits under the same α=10%% Harmony tunes for")
	return outcomes, t
}

// msgsPerOp is the window's network cost: messages of every link class
// per completed operation.
func msgsPerOp(w window) float64 {
	if w.Metrics.Ops == 0 {
		return 0
	}
	var msgs uint64
	for _, n := range w.Traffic.Messages {
		msgs += n
	}
	return float64(msgs) / float64(w.Metrics.Ops)
}

// runHotKeyVariant drives the three phases over one cluster and one
// controller (α=10%).
func runHotKeyVariant(p Platform, v hotKeyVariant, seed uint64) hotKeyOutcome {
	rg := newRig(p, seed, func(cfg *kv.Config) { cfg.HotCache = v.Cache }, nil)
	cl, tr := rg.cl, rg.tr
	var tuner core.Tuner = harmony.New(hotKeyAlpha, cl.RF()).PerKey()
	if v.PerLevel {
		tuner = harmony.NewHot(hotKeyAlpha, cl)
	}
	rg.control(tuner, 100*time.Millisecond)

	// Steady/burst keyspace plus the shifted one the middle phase rotates
	// to; both are preloaded so phase runners never insert.
	w := ycsb.Mix(p.Records, 0.95, ycsb.DistZipfian, 0.99)
	w.ValueSize = p.ValueBytes
	shifted := w
	shifted.KeyPrefix = "shift"
	keys, value := rg.preload(w)
	rg.preload(shifted)
	rg.ctl.Start()

	// The burst target: the scrambled zipfian's rank-0 record — the most
	// popular key of the steady keyspace, independent of the seed.
	headKey := keys(stats.FNVHash64(0) % w.RecordCount)

	out := hotKeyOutcome{Variant: v}
	// during, when set, is the stress event that lands under load.
	load := func(name string, pw ycsb.Workload, during func()) {
		out.Phases = append(out.Phases, rg.run(rg.studyPhase(name, pw, len(out.Phases), 3, during)))
	}

	load("steady", w, nil)
	load("shift", shifted, nil)
	// Let demotion hysteresis and the controller settle on the shifted
	// hot set before the burst returns to the original keyspace.
	rg.settle(time.Second)
	load("burst", w, func() {
		// 400 writes to the head key, 2 ms apart: λ jumps to ~500/s and
		// the freshness bound collapses under the read inter-arrival gap.
		var fire func(left int)
		fire = func(left int) {
			if left == 0 {
				return
			}
			cl.Write(headKey, value, kv.One, func(kv.WriteResult) {})
			tr.Schedule(2*time.Millisecond, func() { fire(left - 1) })
		}
		fire(400)
	})
	rg.settle(2 * time.Second) // drain read repair and hint replay

	rg.ctl.Stop()
	total := rg.read()
	out.WholeRunStale = total.StaleRate()
	out.Usage = total.Usage
	return out
}
