package stats

import (
	"math"
	"math/bits"
	"sort"
)

// HeavyHitters is the space-saving algorithm of Metwally et al.: it tracks
// the approximately most frequent keys of a stream in bounded space. The
// monitor uses it to learn which keys absorb most writes and reads, the
// input of the per-key stale-rate refinement.
//
// Entries live in stable slots of a dense slice with a map index over
// it, and a binary min-heap of slot numbers orders them by (count, seq):
// a hit is one map lookup, an increment and a sift down; a miss on a
// full sketch evicts the heap's root. seq is unique, so the order is
// total and the evicted slot is the one a scan of the slice for its
// minimum would find — the heap changes what a miss costs (128 entries
// compared per unseen key, which dominated monitor overhead on skewed
// workloads), never which key leaves.
type HeavyHitters struct {
	capacity int
	idx      map[string]int32
	entries  []hhEntry
	heap     []int32 // slot numbers, min (count, seq) at the root
	pos      []int32 // slot → its index in heap
	total    uint64
	seq      uint64
}

type hhEntry struct {
	key   string
	count uint64
	err   uint64 // overestimation bound
	seq   uint64 // insertion order, deterministic eviction tie-break
}

// NewHeavyHitters returns a sketch tracking up to capacity keys.
func NewHeavyHitters(capacity int) *HeavyHitters {
	if capacity <= 0 {
		capacity = 64
	}
	return &HeavyHitters{
		capacity: capacity,
		idx:      make(map[string]int32, capacity),
		entries:  make([]hhEntry, 0, capacity),
		heap:     make([]int32, 0, capacity),
		pos:      make([]int32, 0, capacity),
	}
}

// Observe feeds one occurrence of key.
func (h *HeavyHitters) Observe(key string) {
	h.total++
	if i, ok := h.idx[key]; ok {
		h.entries[i].count++
		h.siftDown(int(h.pos[i]))
		return
	}
	h.seq++
	if n := len(h.entries); n < h.capacity {
		h.idx[key] = int32(n)
		h.entries = append(h.entries, hhEntry{key: key, count: 1, seq: h.seq})
		h.heap = append(h.heap, int32(n))
		h.pos = append(h.pos, int32(n))
		h.siftUp(n)
		return
	}
	// Evict the minimum-count key (oldest wins ties, which keeps the
	// order free of string comparisons and the result deterministic);
	// the newcomer inherits its count as the standard space-saving
	// overestimation.
	min := h.heap[0]
	old := &h.entries[min]
	delete(h.idx, old.key)
	minCount := old.count
	*old = hhEntry{key: key, count: minCount + 1, err: minCount, seq: h.seq}
	h.idx[key] = min
	h.siftDown(0)
}

// less orders two slots by (count, seq).
func (h *HeavyHitters) less(a, b int32) bool {
	x, y := &h.entries[a], &h.entries[b]
	return x.count < y.count || (x.count == y.count && x.seq < y.seq)
}

// siftDown restores the heap below index i after its slot's count grew.
func (h *HeavyHitters) siftDown(i int) {
	heap, slot := h.heap, h.heap[i]
	for {
		c := 2*i + 1
		if c >= len(heap) {
			break
		}
		if c+1 < len(heap) && h.less(heap[c+1], heap[c]) {
			c++
		}
		if !h.less(heap[c], slot) {
			break
		}
		heap[i] = heap[c]
		h.pos[heap[i]] = int32(i)
		i = c
	}
	heap[i] = slot
	h.pos[slot] = int32(i)
}

// siftUp restores the heap above index i after a slot was appended.
func (h *HeavyHitters) siftUp(i int) {
	heap, slot := h.heap, h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(slot, heap[p]) {
			break
		}
		heap[i] = heap[p]
		h.pos[heap[i]] = int32(i)
		i = p
	}
	heap[i] = slot
	h.pos[slot] = int32(i)
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

// Reset clears the sketch.
func (h *HeavyHitters) Reset() {
	clear(h.idx)
	h.entries = h.entries[:0]
	h.heap = h.heap[:0]
	h.pos = h.pos[:0]
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
