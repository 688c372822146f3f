package stats

import (
	"fmt"
	"hash/maphash"
	"math"
	"testing"
)

func TestHeavyHittersExactWhenSmall(t *testing.T) {
	h := NewHeavyHitters(16)
	for i := 0; i < 10; i++ {
		h.Observe("a")
	}
	for i := 0; i < 5; i++ {
		h.Observe("b")
	}
	h.Observe("c")
	top := h.Top(2)
	if top[0].Key != "a" || top[0].Count != 10 {
		t.Errorf("top[0] = %+v", top[0])
	}
	if top[1].Key != "b" || top[1].Count != 5 {
		t.Errorf("top[1] = %+v", top[1])
	}
	if h.Total() != 16 {
		t.Errorf("total = %d", h.Total())
	}
}

func TestHeavyHittersFindsHotKeysUnderEviction(t *testing.T) {
	h := NewHeavyHitters(8)
	src := NewSource(1)
	z := NewZipfian(1000, 0.99)
	truth := make(map[string]int)
	for i := 0; i < 50000; i++ {
		k := fmt.Sprintf("k%d", z.Next(src))
		truth[k]++
		h.Observe(k)
	}
	// The true hottest key must be tracked and ranked first.
	hot, hotCount := "", 0
	for k, c := range truth {
		if c > hotCount {
			hot, hotCount = k, c
		}
	}
	top := h.Top(1)
	if top[0].Key != hot {
		t.Errorf("hottest key %s not found, got %s", hot, top[0].Key)
	}
	// Space-saving overestimates: estimate ≥ true count, bounded by err.
	if top[0].Count < uint64(hotCount) {
		t.Errorf("count underestimated: %d < %d", top[0].Count, hotCount)
	}
	if top[0].Count-top[0].Err > uint64(hotCount) {
		t.Errorf("count minus error bound exceeds truth: %d−%d > %d",
			top[0].Count, top[0].Err, hotCount)
	}
}

func TestHeavyHittersDeterministicTop(t *testing.T) {
	build := func() []KeyCount {
		h := NewHeavyHitters(4)
		for _, k := range []string{"x", "y", "z", "w", "v", "x", "y"} {
			h.Observe(k)
		}
		return h.Top(0)
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic top: %v vs %v", a, b)
		}
	}
}

func TestHeavyHittersReset(t *testing.T) {
	h := NewHeavyHitters(4)
	h.Observe("a")
	h.Reset()
	if h.Total() != 0 || len(h.Top(0)) != 0 {
		t.Error("reset did not clear sketch")
	}
}

// scanSketch is the sketch before any index or order structure: a map
// from key to slot, and on every miss of a full sketch a scan of all
// entries for the minimum (count, seq). A scanSketch fed the same stream
// is the reference HeavyHitters must match slot for slot.
type scanSketch struct {
	capacity   int
	idx        map[string]int
	entries    []scanEntry
	total, seq uint64
}

type scanEntry struct {
	key             string
	count, err, seq uint64
}

func newScanSketch(capacity int) *scanSketch {
	return &scanSketch{capacity: capacity, idx: make(map[string]int)}
}

// observeReference is Observe with the victim found by a scan.
func (h *scanSketch) observeReference(key string) {
	h.total++
	if i, ok := h.idx[key]; ok {
		h.entries[i].count++
		return
	}
	h.seq++
	if len(h.entries) < h.capacity {
		h.idx[key] = len(h.entries)
		h.entries = append(h.entries, scanEntry{key: key, count: 1, seq: h.seq})
		return
	}
	min := 0
	for i := 1; i < len(h.entries); i++ {
		e, m := &h.entries[i], &h.entries[min]
		if e.count < m.count || (e.count == m.count && e.seq < m.seq) {
			min = i
		}
	}
	old := &h.entries[min]
	delete(h.idx, old.key)
	minCount := old.count
	*old = scanEntry{key: key, count: minCount + 1, err: minCount, seq: h.seq}
	h.idx[key] = min
}

// reset is Reset: seq runs on.
func (h *scanSketch) reset() {
	clear(h.idx)
	h.entries = h.entries[:0]
	h.total = 0
}

// matchScan fails unless got holds want's entries slot for slot.
func matchScan(t testing.TB, got *HeavyHitters, want *scanSketch, step int) {
	t.Helper()
	if len(got.entries) != len(want.entries) || got.Total() != want.total {
		t.Fatalf("step %d: %d entries, total %d; scan has %d, total %d", step, len(got.entries), got.Total(), len(want.entries), want.total)
	}
	for s, w := range want.entries {
		e := &got.entries[s]
		if (scanEntry{e.key, e.count, e.err, e.seq}) != w {
			t.Fatalf("step %d slot %d: %+v, scan has %+v", step, s, *e, w)
		}
	}
}

// checkSummary verifies the Stream-Summary and the index: bucket counts
// strictly ascend, each entry's count is its bucket's, the bucket and
// entry links agree both ways, a bucket flagged sorted holds ascending
// seq, every entry is found through the index at its own slot, and no
// index position points at a dead entry.
func (h *HeavyHitters) checkSummary(t testing.TB) {
	t.Helper()
	seen := make([]bool, len(h.entries))
	prevB, n := int32(none), 0
	for b := h.min; b != none; prevB, b = b, h.buckets[b].next {
		bk := &h.buckets[b]
		if bk.prev != prevB {
			t.Fatalf("bucket %d: prev %d, reached from %d", b, bk.prev, prevB)
		}
		if prevB != none && h.buckets[prevB].count >= bk.count {
			t.Fatalf("bucket %d: count %d after %d", b, bk.count, h.buckets[prevB].count)
		}
		if bk.head == none {
			t.Fatalf("bucket %d (count %d) is empty", b, bk.count)
		}
		prevS := int32(none)
		for s := bk.head; s != none; prevS, s = s, h.entries[s].next {
			e := &h.entries[s]
			if seen[s] {
				t.Fatalf("slot %d linked twice", s)
			}
			seen[s] = true
			n++
			if e.bucket != b || e.prev != prevS || e.count != bk.count {
				t.Fatalf("slot %d: bucket %d prev %d count %d, linked in bucket %d (count %d) after %d",
					s, e.bucket, e.prev, e.count, b, bk.count, prevS)
			}
			if bk.sorted && prevS != none && h.entries[prevS].seq >= e.seq {
				t.Fatalf("bucket %d flagged sorted: seq %d after %d", b, e.seq, h.entries[prevS].seq)
			}
		}
		if bk.tail != prevS {
			t.Fatalf("bucket %d: tail %d, last slot %d", b, bk.tail, prevS)
		}
	}
	if n != len(h.entries) {
		t.Fatalf("%d slots in buckets, %d entries", n, len(h.entries))
	}
	mask := uint64(len(h.table) - 1)
	used := 0
	for _, v := range h.table {
		if v == 0 {
			continue
		}
		if used++; int(v) > len(h.entries) {
			t.Fatalf("index points at slot %d of %d", v-1, len(h.entries))
		}
	}
	if used != len(h.entries) {
		t.Fatalf("index holds %d positions, %d entries", used, len(h.entries))
	}
	for s := range h.entries {
		e := &h.entries[s]
		if e.hash != maphash.String(h.seed, e.key) {
			t.Fatalf("slot %d: stale hash", s)
		}
		i := e.hash & mask
		for h.table[i] != int32(s)+1 {
			if h.table[i] == 0 {
				t.Fatalf("slot %d (%q) not found through the index", s, e.key)
			}
			i = (i + 1) & mask
		}
	}
}

func TestHeavyHittersMatchesScan(t *testing.T) {
	const ops = 200_000
	for _, capacity := range []int{1, 2, 7, 64, 128} {
		for _, space := range []uint64{3, 50, 1000, 100_000} {
			t.Run(fmt.Sprintf("cap%d/keys%d", capacity, space), func(t *testing.T) {
				keys := make([]string, space)
				for i := range keys {
					keys[i] = fmt.Sprintf("k%d", i)
				}
				got, want := NewHeavyHitters(capacity), newScanSketch(capacity)
				src := NewSource(uint64(capacity)*1_000_003 + space)
				z := NewZipfian(space, ZipfTheta)
				// Two lives of the same pair: Reset must leave a sketch
				// that keeps matching (seq runs on, the summary and the
				// index start empty).
				for life := 0; life < 2; life++ {
					for i := 0; i < ops; i++ {
						k := z.Next(src)
						if src.IntN(4) == 0 { // a quarter uniform: cold keys keep arriving
							k = src.Uint64N(space)
						}
						got.Observe(keys[k])
						want.observeReference(keys[k])
						if i%997 != 0 && i < ops-1000 {
							continue
						}
						matchScan(t, got, want, life*ops+i)
						got.checkSummary(t)
					}
					got.Reset()
					want.reset()
				}
			})
		}
	}
}

// FuzzHeavyHitters drives a small sketch and the scan reference with the
// same stream. The first byte picks the capacity (1–16); every later byte
// is one of 48 keys, or a Reset when it is 255. After every step the
// entries must match the reference slot for slot and checkSummary must
// pass.
func FuzzHeavyHitters(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 0, 0, 4, 5, 255, 6, 0, 7})
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 1, 2, 3})
	zipf := []byte{7}
	src, z := NewSource(1), NewZipfian(48, ZipfTheta)
	for i := 0; i < 400; i++ {
		zipf = append(zipf, byte(z.Next(src)))
	}
	f.Add(zipf)
	keys := make([]string, 48)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 1 + int(data[0]%16)
		got, want := NewHeavyHitters(capacity), newScanSketch(capacity)
		for i, b := range data[1:] {
			if b == 255 {
				got.Reset()
				want.reset()
			} else {
				got.Observe(keys[int(b)%len(keys)])
				want.observeReference(keys[int(b)%len(keys)])
			}
			matchScan(t, got, want, i)
			got.checkSummary(t)
		}
	})
}

func TestDistinctCounterAccuracy(t *testing.T) {
	for _, n := range []int{100, 1000, 20000} {
		d := NewDistinctCounter(16)
		for i := 0; i < n; i++ {
			d.Observe(fmt.Sprintf("key-%d", i))
			d.Observe(fmt.Sprintf("key-%d", i)) // duplicates must not count
		}
		est := d.Estimate()
		if math.Abs(est-float64(n))/float64(n) > 0.1 {
			t.Errorf("n=%d estimate %.0f off by more than 10%%", n, est)
		}
	}
}
