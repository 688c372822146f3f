package kv

import (
	"math"
	"sort"
	"time"

	"repro/internal/stats"
	"repro/internal/storage"
)

// Hot-key fast path (Config.HotCache). Zipfian traffic concentrates
// reads and writes on a head set of keys; those keys dominate both the
// staleness risk and the per-operation cost of the quorum read path. The
// cluster therefore tracks its own windowed heavy-hitter profile and
// promotes the head keys into a hot set with two privileges:
//
//   - a per-key consistency level (SetHotKeyLevel), tuned by the per-key
//     Harmony path independently of the long tail, and
//   - a coordinator-side read cache: quorum reads fill per-node entries,
//     and a subsequent single-ack (ONE) read of a hot key is answered by
//     the coordinator alone — no replica messages, no admission draw —
//     as long as the entry is younger than its freshness bound.
//
// The freshness bound makes a cache hit a priced consistency decision
// instead of a correctness leak: with per-key writes Poisson at rate λ,
// an entry of age a is stale with probability 1−exp(−λa), so serving
// only entries younger than CacheBound(α, λ) = −ln(1−α)/λ keeps the
// expected stale rate of cache hits under α — the same α the Harmony
// tuner enforces on the quorum path. Entries are invalidated by every
// local write path (coordinated writes, replica applies, hints, repairs,
// anti-entropy, snapshot streams) and dropped wholesale on membership
// flips; under gossip each entry is additionally stamped with the ring
// sequence it was filled on and evicted when the node's ring moves.
//
// With HotCache unset nothing below runs: no tracker, no cache, no extra
// RNG draws — transcripts stay byte-identical with earlier trees.

// CacheBound is the maximum age at which a cached value of a key with
// Poisson write rate lambda (writes/sec) may be served while keeping the
// probability that a newer write exists — the expected stale rate of
// cache hits — at or under alpha. Derived from P(stale | age a) =
// 1−exp(−λa) ≤ α, i.e. a ≤ −ln(1−α)/λ. A non-positive alpha forbids
// serving from cache entirely; a non-positive lambda (no observed
// writes) or alpha ≥ 1 means any age is acceptable.
func CacheBound(alpha, lambda float64) time.Duration {
	if alpha <= 0 {
		return 0
	}
	if alpha >= 1 || lambda <= 0 {
		return math.MaxInt64
	}
	secs := -math.Log(1-alpha) / lambda
	if d := secs * float64(time.Second); d < float64(math.MaxInt64) {
		return time.Duration(d)
	}
	return math.MaxInt64
}

// hotCacheAlpha is the tolerated stale rate of cache hits: an entry is
// served only while P(newer write exists) ≤ α under the key's observed
// Poisson write rate.
const hotCacheAlpha = 0.10

// hotCacheMaxAge caps every entry's freshness bound regardless of how
// cold the key's writes are.
const hotCacheMaxAge = 100 * time.Millisecond

// hotKey is the tracker's per-key control state.
type hotKey struct {
	lambda   float64       // windowed write rate estimate, writes/sec
	bound    time.Duration // freshness bound: min(hotCacheMaxAge, CacheBound(α, λ))
	level    Level         // per-key read level override (SetHotKeyLevel)
	hasLevel bool
}

// hotTracker is the cluster-level hot-set controller: windowed
// heavy-hitter sketches over the coordinated read/write streams, with
// promotion/demotion hysteresis evaluated every evalOps operations. All
// mutation happens from coordinator events, which both engines
// serialize; iteration always walks the sorted keys slice or the
// sketches' deterministic Top order — never a map range — so the hot
// set evolves identically run to run.
type hotTracker struct {
	alpha        float64
	size         int
	evalOps      int
	promoteShare float64
	demoteShare  float64

	reads  *stats.HeavyHitters
	writes *stats.HeavyHitters
	ops    int
	epoch  time.Duration // start of the current sketch window

	hot  map[string]*hotKey
	keys []string // current hot set, sorted (deterministic iteration)

	promotions uint64
	demotions  uint64
}

func newHotTracker(cfg *Config, now time.Duration) *hotTracker {
	return &hotTracker{
		alpha:        hotCacheAlpha,
		size:         cfg.HotSetSize,
		evalOps:      cfg.HotSetEvalOps,
		promoteShare: cfg.HotPromoteShare,
		demoteShare:  cfg.HotPromoteShare / 2, // the gap is the promotion hysteresis
		reads:        stats.NewHeavyHitters(4 * cfg.HotSetSize),
		writes:       stats.NewHeavyHitters(4 * cfg.HotSetSize),
		epoch:        now,
		hot:          make(map[string]*hotKey),
	}
}

func (t *hotTracker) observeRead(key string, now time.Duration) {
	t.reads.Observe(key)
	t.tick(now)
}

func (t *hotTracker) observeWrite(key string, now time.Duration) {
	t.writes.Observe(key)
	t.tick(now)
}

func (t *hotTracker) tick(now time.Duration) {
	t.ops++
	if t.ops >= t.evalOps {
		t.evaluate(now)
	}
}

// evaluate re-derives the hot set from the window's sketches: existing
// hot keys whose windowed read share fell below demoteShare leave,
// then the window's top readers at or above promoteShare join until the
// set is full. The promote/demote gap is the hysteresis that keeps keys
// near the threshold from flapping. Every surviving key's write rate
// and freshness bound are refreshed from the window, and the sketches
// reset so the next window sees current traffic only (a shifted hot set
// demotes within one window instead of fading over the whole run).
func (t *hotTracker) evaluate(now time.Duration) {
	elapsed := now - t.epoch
	totalReads := t.reads.Total()
	if elapsed <= 0 || totalReads == 0 {
		t.resetWindow(now)
		return
	}

	topReads := t.reads.Top(0)
	readShare := make(map[string]float64, len(topReads))
	for _, kc := range topReads {
		readShare[kc.Key] = float64(kc.Count) / float64(totalReads)
	}

	next := make([]string, 0, t.size)
	for _, k := range t.keys { // sorted slice: deterministic demotion order
		if readShare[k] >= t.demoteShare {
			next = append(next, k)
			continue
		}
		delete(t.hot, k)
		t.demotions++
	}
	for _, kc := range topReads { // Top order: deterministic promotion order
		if len(next) >= t.size {
			break
		}
		share := float64(kc.Count) / float64(totalReads)
		if share < t.promoteShare {
			break // Top is sorted by descending count
		}
		if _, ok := t.hot[kc.Key]; ok {
			continue
		}
		t.hot[kc.Key] = &hotKey{}
		next = append(next, kc.Key)
		t.promotions++
	}
	sort.Strings(next)
	t.keys = next

	// Refresh per-key write rates and freshness bounds. The sketch count
	// is an upper bound on the key's writes, so λ errs high and the bound
	// errs short — conservative for staleness.
	secs := elapsed.Seconds()
	writeCount := make(map[string]uint64, t.size)
	for _, kc := range t.writes.Top(0) {
		writeCount[kc.Key] = kc.Count
	}
	for _, k := range t.keys {
		hk := t.hot[k]
		hk.lambda = float64(writeCount[k]) / secs
		hk.bound = CacheBound(t.alpha, hk.lambda)
		if hk.bound > hotCacheMaxAge {
			hk.bound = hotCacheMaxAge
		}
	}
	t.resetWindow(now)
}

func (t *hotTracker) resetWindow(now time.Duration) {
	t.reads.Reset()
	t.writes.Reset()
	t.ops = 0
	t.epoch = now
}

// HotKeys reports the current hot set in sorted order (a copy).
// Nil-safe: an empty slice without HotCache.
func (c *Cluster) HotKeys() []string {
	if c.hot == nil {
		return nil
	}
	return append([]string(nil), c.hot.keys...)
}

// HotKeyRate reports the tracker's windowed write-rate estimate for a
// hot key (writes/sec), with ok=false when the key is not hot.
func (c *Cluster) HotKeyRate(key string) (lambda float64, ok bool) {
	if c.hot == nil {
		return 0, false
	}
	hk, ok := c.hot.hot[key]
	if !ok {
		return 0, false
	}
	return hk.lambda, true
}

// SetHotKeyLevel pins a per-key read level for a hot key; it reports
// false (and pins nothing) when the key is not currently hot. The
// override is cleared automatically when the key is demoted.
func (c *Cluster) SetHotKeyLevel(key string, lvl Level) bool {
	if c.hot == nil {
		return false
	}
	hk, ok := c.hot.hot[key]
	if !ok {
		return false
	}
	hk.level, hk.hasLevel = lvl, true
	return true
}

// HotReadLevel reports the per-key read level override of key, with
// ok=false when the key is not hot or carries no override. Adaptive
// sessions consult it before falling back to the global tuned level.
func (c *Cluster) HotReadLevel(key string) (Level, bool) {
	if c.hot == nil {
		return Level{}, false
	}
	if hk, ok := c.hot.hot[key]; ok && hk.hasLevel {
		return hk.level, true
	}
	return Level{}, false
}

// singleAck reports whether the level blocks for exactly one replica —
// the only levels a cache hit may substitute for: a ONE read promises a
// single replica's view, which is precisely what a fresh-enough cached
// cell is. QUORUM and stronger levels promise overlap with write quorums
// and always go to the replicas.
func (l Level) singleAck() bool {
	return l.Kind == KindOne || (l.Kind == KindCount && l.K <= 1)
}

// cacheEntry is one cached cell on a coordinator. ringSeq stamps the
// coordinator's ring knowledge at fill time (gossip mode): the entry is
// evicted rather than served once the local ring has moved, since the
// fill-time invalidation contract (local writes for the key reach this
// node) only holds while placement is unchanged.
type cacheEntry struct {
	cell     storage.Cell
	filledAt time.Duration
	ringSeq  uint64
}

// readCache is a node's coordinator-side cache over hot keys. Entries
// are plain values in a map — never pooled and never shared: the cell's
// value bytes are the immutable buffers the replicas answered with.
type readCache struct {
	entries map[string]cacheEntry

	hits          uint64
	misses        uint64 // servable requests that found no usable entry
	fills         uint64
	invalidations uint64 // entries dropped by local write paths
	expired       uint64 // entries older than their freshness bound
	ringEvicted   uint64 // entries dropped by ring/membership movement
	staleServed   uint64 // hits the oracle judged stale (≤ α by design)
}

func newReadCache() *readCache {
	return &readCache{entries: make(map[string]cacheEntry)}
}

// dropAll evicts every entry, counting them as ring evictions (the
// callers are membership flips and crashes). Meters survive: they are
// experiment accounting, like every other node counter.
func (rc *readCache) dropAll() {
	rc.ringEvicted += uint64(len(rc.entries))
	clear(rc.entries)
}

// dropAllCaches evicts every node's cache entries — the atomic-mode
// membership hook: a placement flip silently re-routes key ownership,
// so fill-time invalidation contracts are void cluster-wide.
func (c *Cluster) dropAllCaches() {
	if !c.cfg.HotCache {
		return
	}
	for _, id := range c.order {
		if rc := c.nodes[id].cache; rc != nil {
			rc.dropAll()
		}
	}
}

// cacheServe answers a client read from this coordinator's cache when
// every condition holds: the node is plainly live (warming replicas are
// still converging), the level blocks for a single ack, the key is hot,
// and the entry was filled on the current ring and is younger than the
// key's freshness bound. A hit costs no replica messages and no
// admission draw — the read completes in the coordinator. The oracle
// still judges it: cache-served stale reads are counted exactly like
// replica-served ones.
func (n *Node) cacheServe(m clientRead) bool {
	rc := n.cache
	if rc == nil || n.phase != phaseLive || !m.Level.singleAck() {
		return false
	}
	t := n.cluster.hot
	if t == nil {
		return false
	}
	hk, hot := t.hot[m.Key]
	if !hot {
		return false
	}
	now := n.cluster.net.Now()
	e, ok := rc.entries[m.Key]
	if !ok {
		rc.misses++
		return false
	}
	if e.ringSeq != n.ringSeq() {
		delete(rc.entries, m.Key)
		rc.ringEvicted++
		rc.misses++
		return false
	}
	if now-e.filledAt > hk.bound {
		delete(rc.entries, m.Key)
		rc.expired++
		rc.misses++
		return false
	}

	n.coordOps++
	n.cluster.hooks.readStarted(now, m.Key)
	t.observeRead(m.Key, now)
	res := ReadResult{Key: m.Key, Level: m.Level, Cached: true}
	if !e.cell.Tombstone {
		res.Exists = true
		res.Value = e.cell.Value
		res.Version = e.cell.Version
	}
	visible, issued := n.cluster.oracle.Latest(m.Key)
	res.Stale = n.cluster.oracle.Judge(visible, issued, e.cell.Version)
	rc.hits++
	if res.Stale {
		rc.staleServed++
	}
	n.cluster.hooks.readCompleted(now, &res)
	n.replyRead(m.rt, &res)
	return true
}

// cacheFill stores a replica-served cell for a hot key. Ordinary quorum
// (and ONE) reads are the fill path — the cache never generates replica
// traffic of its own. Tombstones are not cached (a hit would have to
// re-prove the deletion anyway); an existing newer entry is kept.
func (n *Node) cacheFill(key string, cell storage.Cell) {
	rc := n.cache
	if rc == nil || n.phase != phaseLive || cell.Tombstone {
		return
	}
	t := n.cluster.hot
	if t == nil {
		return
	}
	if _, hot := t.hot[key]; !hot {
		return
	}
	if e, ok := rc.entries[key]; ok && !cell.Version.After(e.cell.Version) {
		return
	}
	rc.entries[key] = cacheEntry{cell: cell, filledAt: n.cluster.net.Now(), ringSeq: n.ringSeq()}
	rc.fills++
}

// cacheInvalidate drops the cached entry for key, if any. Every local
// write path calls it — coordinated writes, replica applies (including
// hints and repairs), anti-entropy applies, snapshot-stream applies —
// so a cached read after a local write never serves the old value.
func (n *Node) cacheInvalidate(key string) {
	rc := n.cache
	if rc == nil {
		return
	}
	if _, ok := rc.entries[key]; ok {
		delete(rc.entries, key)
		rc.invalidations++
	}
}
