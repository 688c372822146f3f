package kv

import (
	"math/bits"
	"time"

	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/storage"
)

// Oracle is the staleness ground truth: it ledgers every write the moment
// a coordinator accepts it and every replica application, so experiments
// can judge whether a read returned the latest data (Figure 1 semantics: a
// read started at X_r is stale when it returns a version older than the
// newest write with X_w ≤ X_r). It also measures true propagation times,
// which the model-validation experiment compares against Harmony's
// monitor-based estimates.
//
// The oracle is measurement infrastructure with global knowledge; nothing
// in the adaptive tuners reads it.
//
// pending holds the writes that have not reached all their replicas yet:
// an entry is made when a coordinator accepts the write and leaves when
// the last replica applies it. In a multi-process deployment every
// process has its own oracle, which ledgers the writes its own nodes
// coordinate: the replicas it hosts report their applications directly,
// and one another process serves counts as applied when its
// acknowledgement reaches the coordinator (foldWriteAck) — so an entry
// lives until the slowest replica has acknowledged, and one whose last
// acknowledgement never arrives within the coordinator timeout stays. A
// preloaded record never enters pending (writeEverywhere).
type Oracle struct {
	// latest carries both per-key high watermarks in one entry so the
	// read-start snapshot (every single read) costs one map lookup.
	latest  map[string]latestVersions
	pending map[storage.Version]pendingWrite

	propagation stats.Histogram   // full-propagation times T_p
	rankDelays  []stats.Histogram // delay until the i-th replica applied

	writes       uint64
	staleReads   uint64
	freshReads   uint64
	overlapReads uint64
	failedReads  uint64
}

// pendingWrite is a value-typed ledger entry; the applied replica set is
// a bitset over node ids, so for clusters up to 256 nodes (every preset,
// and then some) ledgering a write performs a single map insert and no
// allocation. Larger ids spill into a lazily allocated overflow set so
// correctness never depends on cluster size.
type pendingWrite struct {
	start    time.Duration
	replicas int
	applied  [4]uint64              // bitset of nodes that applied, ids 0..255
	overflow map[netsim.NodeID]bool // nodes outside the bitset range
}

func (p *pendingWrite) markApplied(node netsim.NodeID) bool {
	if node >= 0 && int(node) < 256 {
		w, b := node/64, uint64(1)<<(uint(node)%64)
		if p.applied[w]&b != 0 {
			return false
		}
		p.applied[w] |= b
		return true
	}
	if p.overflow[node] {
		return false
	}
	if p.overflow == nil {
		p.overflow = make(map[netsim.NodeID]bool, 1)
	}
	p.overflow[node] = true
	return true
}

func (p *pendingWrite) appliedCount() int {
	n := len(p.overflow)
	for _, w := range p.applied {
		n += bits.OnesCount64(w)
	}
	return n
}

// NewOracle returns an oracle for a store with replication factor rf.
func NewOracle(rf int) *Oracle {
	return &Oracle{
		latest:     make(map[string]latestVersions),
		pending:    make(map[storage.Version]pendingWrite),
		rankDelays: make([]stats.Histogram, rf),
	}
}

// latestVersions is one key's pair of high watermarks.
type latestVersions struct {
	issued  storage.Version // newest write accepted by a coordinator
	visible storage.Version // newest write acknowledged to a client
}

// WriteStarted ledgers a write accepted by a coordinator at time now.
func (o *Oracle) WriteStarted(key string, v storage.Version, replicas int, now time.Duration) {
	o.writes++
	if l := o.latest[key]; v.After(l.issued) {
		l.issued = v
		o.latest[key] = l
	}
	o.pending[v] = pendingWrite{start: now, replicas: replicas}
}

// WriteVisible ledgers that the write was acknowledged to its client: it
// is now part of the data a user expects subsequent reads to return.
func (o *Oracle) WriteVisible(key string, v storage.Version) {
	if l := o.latest[key]; v.After(l.visible) {
		l.visible = v
		o.latest[key] = l
	}
}

// reserve sizes the per-key ledger for n more keys while it is still
// empty (the load phase of a fresh store).
func (o *Oracle) reserve(n int) {
	if len(o.latest) == 0 {
		o.latest = make(map[string]latestVersions, n)
	}
}

// writeEverywhere ledgers a write that all of its replicas applied the
// instant it was accepted and acknowledged (a preloaded record). It
// leaves the ledger exactly as WriteStarted, WriteVisible and one
// Applied per replica at the same instant would — both watermarks, the
// write count, a zero delay at every rank and a zero propagation time —
// without the entry ever passing through pending.
func (o *Oracle) writeEverywhere(key string, v storage.Version, replicas int) {
	o.writes++
	was := o.latest[key]
	l := was
	if v.After(l.issued) {
		l.issued = v
	}
	if v.After(l.visible) {
		l.visible = v
	}
	if l != was {
		o.latest[key] = l
	}
	for rank := 0; rank < replicas && rank < len(o.rankDelays); rank++ {
		o.rankDelays[rank].Record(0)
	}
	o.propagation.Record(0)
}

// Applied ledgers replica node applying version v of key at time now.
func (o *Oracle) Applied(node netsim.NodeID, v storage.Version, now time.Duration) {
	p, ok := o.pending[v]
	if !ok || !p.markApplied(node) {
		return
	}
	rank := p.appliedCount()
	if rank <= len(o.rankDelays) {
		o.rankDelays[rank-1].Record(now - p.start)
	}
	if rank >= p.replicas {
		o.propagation.Record(now - p.start)
		delete(o.pending, v)
		return
	}
	o.pending[v] = p
}

// Latest reports both of key's high watermarks in one lookup: the
// newest client-acknowledged version (what a user expects reads to
// return) and the newest coordinator-accepted version (Figure 1's X_w,
// which may not be client-visible yet). Coordinators snapshot the pair
// when a read starts.
func (o *Oracle) Latest(key string) (visible, issued storage.Version) {
	l := o.latest[key]
	return l.visible, l.issued
}

// LatestVisible reports the newest client-acknowledged version of key.
func (o *Oracle) LatestVisible(key string) storage.Version { return o.latest[key].visible }

// LatestIssued reports the newest coordinator-accepted version of key.
func (o *Oracle) LatestIssued(key string) storage.Version { return o.latest[key].issued }

// Judge decides whether a read got stale data and tallies the verdict.
// A read is stale when it returned a version older than the newest write
// acknowledged before the read started (user-expected data). Reads that
// are fresh by that standard but missed a still-in-flight overlapping
// write are tallied separately as overlap reads — Figure 1's wider
// "possibly stale" window.
func (o *Oracle) Judge(visibleAtStart, issuedAtStart, returned storage.Version) bool {
	stale := visibleAtStart.After(returned)
	if stale {
		o.staleReads++
	} else {
		o.freshReads++
		if issuedAtStart.After(returned) {
			o.overlapReads++
		}
	}
	return stale
}

// ReadFailed tallies a read that returned an error (not judged for
// staleness).
func (o *Oracle) ReadFailed() { o.failedReads++ }

// StaleRate reports the fraction of judged reads that were stale.
func (o *Oracle) StaleRate() float64 {
	total := o.staleReads + o.freshReads
	if total == 0 {
		return 0
	}
	return float64(o.staleReads) / float64(total)
}

// Counts reports the raw verdict tallies.
func (o *Oracle) Counts() (stale, fresh, failed uint64) {
	return o.staleReads, o.freshReads, o.failedReads
}

// OverlapReads reports reads that were fresh against acknowledged writes
// but missed an overlapping in-flight write.
func (o *Oracle) OverlapReads() uint64 { return o.overlapReads }

// Propagation returns the histogram of full-propagation times (write
// start to last replica application).
func (o *Oracle) Propagation() *stats.Histogram { return &o.propagation }

// RankDelay returns the histogram of delays until the rank-th replica
// (1-based) applied a write.
func (o *Oracle) RankDelay(rank int) *stats.Histogram { return &o.rankDelays[rank-1] }

// InFlight reports how many writes have not reached all their replicas.
func (o *Oracle) InFlight() int { return len(o.pending) }

// ResetVerdicts clears the stale/fresh tallies (the ledger itself is
// kept); experiments call it between measurement phases.
func (o *Oracle) ResetVerdicts() {
	o.staleReads, o.freshReads, o.failedReads, o.overlapReads = 0, 0, 0, 0
}
