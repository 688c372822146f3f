package stats

import (
	"cmp"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// HeavyHitters is the space-saving algorithm of Metwally et al.: it tracks
// the approximately most frequent keys of a stream in bounded space. The
// monitor uses it to learn which keys absorb most writes and reads, the
// input of the per-key stale-rate refinement.
//
// Entries live in stable slots of a dense slice. A new key appends a slot
// while the sketch fills; on a full sketch it takes the slot of the entry
// least in (count, seq) order, inheriting its count as the standard
// overestimation. seq is unique, so that order is total and the victim is
// the one a scan of the slice for its minimum would find.
//
// Two structures make every observation O(1). The index is an
// open-addressed table of slot numbers (linear probing, backward-shift
// deletion, so no tombstones) keyed by a hash each entry keeps; the hash
// only finds slots, it never decides one. The order is Metwally's own
// Stream-Summary: entries hang in doubly-linked buckets of equal count,
// and the buckets in a list of ascending count. A hit moves its entry to
// the tail of the count+1 bucket; a miss on a full sketch evicts the head
// of the minimum bucket.
//
// The head of the minimum bucket is the (count, seq) minimum because a
// bucket flagged sorted holds ascending seq, and a miss sorts the minimum
// bucket first when its flag is clear. That happens about once per
// bucket: once a bucket is the minimum, the only entries that join it are
// newcomers, each carrying the largest seq so far (count 1 while the
// sketch fills); a hit leaves for count+1, above it, and an evicting
// newcomer joins min+1. A push that brings a seq smaller than the tail's
// clears the flag, so exactness rests on the flag and only the cost on
// this argument.
type HeavyHitters struct {
	capacity int
	entries  []hhEntry
	table    []int32 // slot+1 per index position, 0 empty; length a power of two
	buckets  []hhBucket
	min      int32   // bucket of the smallest count, none when empty
	free     int32   // recycled buckets, linked through next
	scratch  []int32 // slots of a bucket being sorted
	seed     maphash.Seed
	total    uint64
	seq      uint64
}

// none is the nil slot or bucket in the sketch's int32 links.
const none = -1

type hhEntry struct {
	key   string
	count uint64
	err   uint64 // overestimation bound
	seq   uint64 // insertion order, deterministic eviction tie-break
	hash  uint64 // the key's index hash

	bucket     int32 // the bucket holding this entry
	prev, next int32 // neighbouring slots in that bucket
}

// hhBucket is one count of the Stream-Summary: the list of the slots with
// that count.
type hhBucket struct {
	count      uint64
	head, tail int32 // slots
	prev, next int32 // buckets of the next smaller and larger count
	sorted     bool  // the slots are in ascending seq order
}

// NewHeavyHitters returns a sketch tracking up to capacity keys.
func NewHeavyHitters(capacity int) *HeavyHitters {
	if capacity <= 0 {
		capacity = 64
	}
	return &HeavyHitters{
		capacity: capacity,
		entries:  make([]hhEntry, 0, capacity),
		table:    make([]int32, 1<<bits.Len(uint(4*capacity-1))),
		buckets:  make([]hhBucket, 0, capacity),
		min:      none,
		free:     none,
		scratch:  make([]int32, 0, capacity),
		seed:     maphash.MakeSeed(),
	}
}

// Observe feeds one occurrence of key.
func (h *HeavyHitters) Observe(key string) {
	h.total++
	hash := maphash.String(h.seed, key)
	mask := uint64(len(h.table) - 1)
	for i := hash & mask; h.table[i] != 0; i = (i + 1) & mask {
		s := h.table[i] - 1
		if e := &h.entries[s]; e.hash == hash && e.key == key {
			h.increment(s)
			return
		}
	}
	h.seq++
	if n := int32(len(h.entries)); int(n) < h.capacity {
		h.entries = append(h.entries, hhEntry{key: key, count: 1, seq: h.seq, hash: hash})
		b := h.min
		if b == none || h.buckets[b].count != 1 {
			b = h.newBucket(1, none)
		}
		h.push(b, n)
		h.index(n)
		return
	}
	// Evict the minimum (count, seq) entry: the newcomer takes its slot,
	// err = its count, and one increment from there, which also moves
	// the slot out of the minimum bucket.
	b := &h.buckets[h.min]
	if !b.sorted {
		h.sortBucket(h.min)
	}
	s := b.head
	h.unindex(s)
	e := &h.entries[s]
	e.key, e.err, e.seq, e.hash = key, e.count, h.seq, hash
	h.increment(s)
	h.index(s)
}

// increment adds one to slot s's count and moves it to the tail of the
// bucket for its new count.
func (h *HeavyHitters) increment(s int32) {
	e := &h.entries[s]
	e.count++
	b := e.bucket
	next := h.buckets[b].next
	fits := next != none && h.buckets[next].count == e.count
	if bk := &h.buckets[b]; bk.head == bk.tail { // s is alone in b
		if !fits { // b itself becomes the count+1 bucket
			bk.count, bk.sorted = e.count, true
			return
		}
		h.freeBucket(b)
		h.push(next, s)
		return
	}
	if !fits {
		next = h.newBucket(e.count, b)
	}
	if e.prev == none {
		h.buckets[b].head = e.next
	} else {
		h.entries[e.prev].next = e.next
	}
	if e.next == none {
		h.buckets[b].tail = e.prev
	} else {
		h.entries[e.next].prev = e.prev
	}
	h.push(next, s)
}

// push appends slot s at the tail of bucket b.
func (h *HeavyHitters) push(b, s int32) {
	bk, e := &h.buckets[b], &h.entries[s]
	e.bucket, e.prev, e.next = b, bk.tail, none
	if bk.tail == none {
		bk.head, bk.sorted = s, true
	} else {
		t := &h.entries[bk.tail]
		t.next = s
		bk.sorted = bk.sorted && t.seq < e.seq
	}
	bk.tail = s
}

// newBucket links an empty bucket of the given count after bucket after
// (at the front of the list when after is none) and returns it.
func (h *HeavyHitters) newBucket(count uint64, after int32) int32 {
	b := h.free
	if b != none {
		h.free = h.buckets[b].next
	} else {
		b = int32(len(h.buckets))
		h.buckets = append(h.buckets, hhBucket{})
	}
	next := h.min
	if after != none {
		next = h.buckets[after].next
		h.buckets[after].next = b
	} else {
		h.min = b
	}
	if next != none {
		h.buckets[next].prev = b
	}
	h.buckets[b] = hhBucket{count: count, head: none, tail: none, prev: after, next: next}
	return b
}

// freeBucket unlinks bucket b from the list and recycles it.
func (h *HeavyHitters) freeBucket(b int32) {
	bk := &h.buckets[b]
	if bk.prev == none {
		h.min = bk.next
	} else {
		h.buckets[bk.prev].next = bk.next
	}
	if bk.next != none {
		h.buckets[bk.next].prev = bk.prev
	}
	bk.next, h.free = h.free, b
}

// sortBucket relinks bucket b's slots in ascending seq order.
func (h *HeavyHitters) sortBucket(b int32) {
	slots := h.scratch[:0]
	for s := h.buckets[b].head; s != none; s = h.entries[s].next {
		slots = append(slots, s)
	}
	slices.SortFunc(slots, func(x, y int32) int { return cmp.Compare(h.entries[x].seq, h.entries[y].seq) })
	bk := &h.buckets[b]
	bk.head, bk.tail = none, none
	for _, s := range slots {
		h.push(b, s)
	}
	h.scratch = slots
}

// index records slot s at the first free position of its probe sequence.
func (h *HeavyHitters) index(s int32) {
	mask := uint64(len(h.table) - 1)
	i := h.entries[s].hash & mask
	for h.table[i] != 0 {
		i = (i + 1) & mask
	}
	h.table[i] = s + 1
}

// unindex removes slot s from the index and shifts the rest of its probe
// cluster back, so every lookup still meets its key before an empty
// position.
func (h *HeavyHitters) unindex(s int32) {
	mask := uint64(len(h.table) - 1)
	i := h.entries[s].hash & mask
	for h.table[i] != s+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; h.table[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically after i, in (i, j].
		home := h.entries[h.table[j]-1].hash & mask
		if (j-home)&mask >= (j-i)&mask {
			h.table[i] = h.table[j]
			i = j
		}
	}
	h.table[i] = 0
}

// Total reports the stream length observed.
func (h *HeavyHitters) Total() uint64 { return h.total }

// KeyCount is one ranked entry of the sketch.
type KeyCount struct {
	Key   string
	Count uint64 // upper-bound estimate of occurrences
	Err   uint64 // maximum overestimation
}

// Top returns up to n entries by descending count (ties broken by key for
// determinism).
func (h *HeavyHitters) Top(n int) []KeyCount {
	out := make([]KeyCount, 0, len(h.entries))
	for _, e := range h.entries {
		out = append(out, KeyCount{Key: e.key, Count: e.count, Err: e.err})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Reset clears the sketch. seq runs on, so entries of the next life
// still order after every earlier one.
func (h *HeavyHitters) Reset() {
	clear(h.table)
	h.entries = h.entries[:0]
	h.buckets = h.buckets[:0]
	h.min, h.free = none, none
	h.total = 0
}

// DistinctCounter estimates the number of distinct keys in a stream with
// linear counting over a fixed bitmap: distinct ≈ -m·ln(V) where V is the
// fraction of zero bits. A 64 Ki-bit map stays within a few percent up to
// roughly 100k distinct keys and degrades gracefully beyond.
type DistinctCounter struct {
	bits []uint64
	m    uint64
}

// NewDistinctCounter returns a counter with 2^logBits bits (logBits ≤ 24).
func NewDistinctCounter(logBits int) *DistinctCounter {
	if logBits <= 0 || logBits > 24 {
		logBits = 16
	}
	m := uint64(1) << logBits
	return &DistinctCounter{bits: make([]uint64, m/64), m: m}
}

// Observe feeds one key occurrence. The FNV-1a hash is computed inline:
// this runs on every monitored operation and must not allocate.
func (d *DistinctCounter) Observe(key string) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	b := h & (d.m - 1)
	d.bits[b/64] |= 1 << (b % 64)
}

// Estimate reports the approximate number of distinct keys observed.
func (d *DistinctCounter) Estimate() float64 {
	var ones uint64
	for _, w := range d.bits {
		ones += uint64(bits.OnesCount64(w))
	}
	zero := d.m - ones
	if zero == 0 {
		return float64(d.m) * math.Log(float64(d.m)) // saturated
	}
	return -float64(d.m) * math.Log(float64(zero)/float64(d.m))
}
