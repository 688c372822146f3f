package kv

import (
	"math/bits"
	"slices"
	"time"

	"repro/internal/keytab"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/storage"
)

// Oracle is the staleness ground truth: it ledgers every write the moment
// a coordinator accepts it and every replica application, so experiments
// can judge whether a read returned the latest data (Figure 1 semantics: a
// read started at X_r is stale when it returns a version older than the
// newest write with X_w ≤ X_r). The fig1 study compares Harmony's
// stale-read prediction with these verdicts.
//
// It also keeps per-run truth the verdicts alone do not give. The
// full-propagation histogram is what freshness.Compliance reads. The
// per-rank delay histograms are the truth a calibration of the monitor's
// ack-delay estimates (RankDelays) compares against. The overlap tally
// counts reads fresh against acknowledged writes that missed an
// in-flight one: Figure 1's wider stale window.
//
// The oracle is measurement infrastructure with global knowledge; nothing
// in the adaptive tuners reads it.
//
// In-flight writes, the ones that have not reached all their replicas
// yet, live in a slab: an entry is made when a coordinator accepts the
// write and freed when the last replica applies it, and each key's
// ledger heads the list of its own. In a multi-process deployment every
// process has its own oracle, which ledgers the writes its own nodes
// coordinate: the replicas it hosts report their applications directly,
// and one another process serves counts as applied when its
// acknowledgement reaches the coordinator (foldWriteAck) — so an entry
// lives until the slowest replica has acknowledged, and one whose last
// acknowledgement never arrives within the coordinator timeout stays. A
// preloaded record never enters the slab (writeEverywhere).
//
// The per-key ledgers sit in a keytab table: a write costs one key probe
// (WriteStarted, whose ledger id the coordinator keeps for the rest of
// the write), a replica application one probe and a walk of the key's
// short pending list, and nothing here is a Go map.
type Oracle struct {
	keys     keytab.Table[keyLedger]
	pending  []pendingWrite // the slab; entries link through next
	free     int32          // first recycled slab entry + 1, 0 none
	inFlight int

	propagation stats.Histogram   // full-propagation times T_p
	rankDelays  []stats.Histogram // delay until the i-th replica applied

	writes       uint64
	staleReads   uint64
	freshReads   uint64
	overlapReads uint64
	failedReads  uint64
}

// keyLedger is one key's pair of high watermarks and its in-flight
// writes.
type keyLedger struct {
	issued  storage.Version // newest write accepted by a coordinator
	visible storage.Version // newest write acknowledged to a client
	pending int32           // first in-flight write in the slab + 1, 0 none
}

// pendingWrite is one in-flight write. The applied replica set is a
// bitset over node ids, so for clusters up to 256 nodes (every preset,
// and then some) ledgering a write allocates nothing once the slab has
// grown. Larger ids spill into an overflow list so correctness never
// depends on cluster size.
type pendingWrite struct {
	version  storage.Version
	start    time.Duration
	replicas int
	applied  [4]uint64       // bitset of nodes that applied, ids 0..255
	overflow []netsim.NodeID // nodes outside the bitset range
	next     int32           // the key's next in-flight write (or next free entry) + 1
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
	if slices.Contains(p.overflow, node) {
		return false
	}
	p.overflow = append(p.overflow, node)
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
	return &Oracle{rankDelays: make([]stats.Histogram, rf)}
}

// WriteStarted ledgers a write accepted by a coordinator at time now and
// returns the key's ledger id, which WriteVisible takes. v must be new:
// every write carries a version of its own.
func (o *Oracle) WriteStarted(key string, v storage.Version, replicas int, now time.Duration) int {
	o.writes++
	id, _ := o.keys.Insert(key)
	p := o.free
	if p != 0 {
		o.free = o.pending[p-1].next
	} else {
		o.pending = append(o.pending, pendingWrite{})
		p = int32(len(o.pending))
	}
	l := o.keys.Val(id)
	if v.After(l.issued) {
		l.issued = v
	}
	o.pending[p-1] = pendingWrite{version: v, start: now, replicas: replicas, next: l.pending}
	l.pending = p
	o.inFlight++
	return id
}

// WriteVisible ledgers that the write of version v on ledger id (what
// WriteStarted returned) was acknowledged to its client: it is now part
// of the data a user expects subsequent reads to return.
func (o *Oracle) WriteVisible(id int, v storage.Version) {
	if l := o.keys.Val(id); v.After(l.visible) {
		l.visible = v
	}
}

// writeEverywhere ledgers a write that all of its replicas applied the
// instant it was accepted and acknowledged (a preloaded record). It
// leaves the ledger exactly as WriteStarted, WriteVisible and one
// Applied per replica at the same instant would — both watermarks, the
// write count, a zero delay at every rank and a zero propagation time —
// without the write ever passing through the slab.
func (o *Oracle) writeEverywhere(key string, v storage.Version, replicas int) {
	o.writes++
	id, _ := o.keys.Insert(key)
	l := o.keys.Val(id)
	if v.After(l.issued) {
		l.issued = v
	}
	if v.After(l.visible) {
		l.visible = v
	}
	for rank := 0; rank < replicas && rank < len(o.rankDelays); rank++ {
		o.rankDelays[rank].Record(0)
	}
	o.propagation.Record(0)
}

// Applied ledgers replica node applying version v of key at time now. A
// version the oracle has no write in flight for (a preloaded record, a
// write already everywhere, another process's write) changes nothing.
func (o *Oracle) Applied(node netsim.NodeID, key string, v storage.Version, now time.Duration) {
	if id, ok := o.keys.Find(key); ok {
		o.appliedAt(id, node, v, now)
	}
}

// appliedAt is Applied on the key's ledger id.
func (o *Oracle) appliedAt(id int, node netsim.NodeID, v storage.Version, now time.Duration) {
	link := &o.keys.Val(id).pending
	for *link != 0 && o.pending[*link-1].version != v {
		link = &o.pending[*link-1].next
	}
	if *link == 0 {
		return
	}
	i := *link
	p := &o.pending[i-1]
	if !p.markApplied(node) {
		return
	}
	rank := p.appliedCount()
	if rank <= len(o.rankDelays) {
		o.rankDelays[rank-1].Record(now - p.start)
	}
	if rank >= p.replicas {
		o.propagation.Record(now - p.start)
		*link, p.next, o.free = p.next, o.free, i
		o.inFlight--
	}
}

// Latest reports both of key's high watermarks in one lookup: the
// newest client-acknowledged version (what a user expects reads to
// return) and the newest coordinator-accepted version (Figure 1's X_w,
// which may not be client-visible yet). Coordinators snapshot the pair
// when a read starts.
func (o *Oracle) Latest(key string) (visible, issued storage.Version) {
	id, ok := o.keys.Find(key)
	if !ok {
		return storage.Version{}, storage.Version{}
	}
	l := o.keys.Val(id)
	return l.visible, l.issued
}

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
func (o *Oracle) InFlight() int { return o.inFlight }
