package stats

import (
	"fmt"
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

// observeReference is Observe as it was before the heap: the eviction
// victim found by scanning every entry for the minimum (count, seq). It
// never touches heap or pos, so a sketch fed only through it is the
// reference the heap-backed Observe must match slot for slot.
func (h *HeavyHitters) observeReference(key string) {
	h.total++
	if i, ok := h.idx[key]; ok {
		h.entries[i].count++
		return
	}
	h.seq++
	if len(h.entries) < h.capacity {
		h.idx[key] = int32(len(h.entries))
		h.entries = append(h.entries, hhEntry{key: key, count: 1, seq: h.seq})
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
	*old = hhEntry{key: key, count: minCount + 1, err: minCount, seq: h.seq}
	h.idx[key] = int32(min)
}

// checkHeap verifies the heap order and the pos back-index.
func (h *HeavyHitters) checkHeap(t *testing.T) {
	t.Helper()
	if len(h.heap) != len(h.entries) || len(h.pos) != len(h.entries) {
		t.Fatalf("heap %d / pos %d entries for %d slots", len(h.heap), len(h.pos), len(h.entries))
	}
	for i, slot := range h.heap {
		if h.pos[slot] != int32(i) {
			t.Fatalf("pos[%d] = %d, slot sits at heap[%d]", slot, h.pos[slot], i)
		}
		if i > 0 && h.less(slot, h.heap[(i-1)/2]) {
			t.Fatalf("heap[%d] orders before its parent", i)
		}
	}
}

func TestHeavyHittersMatchesScan(t *testing.T) {
	const ops = 200_000
	for _, capacity := range []int{1, 2, 7, 128} {
		for _, space := range []uint64{3, 50, 1000, 100_000} {
			t.Run(fmt.Sprintf("cap%d/keys%d", capacity, space), func(t *testing.T) {
				keys := make([]string, space)
				for i := range keys {
					keys[i] = fmt.Sprintf("k%d", i)
				}
				got, want := NewHeavyHitters(capacity), NewHeavyHitters(capacity)
				src := NewSource(uint64(capacity)*1_000_003 + space)
				z := NewZipfian(space, ZipfTheta)
				// Two lives of the same pair: Reset must leave a sketch
				// that keeps matching (seq runs on, the heap starts empty).
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
						if len(got.entries) != len(want.entries) {
							t.Fatalf("life %d op %d: %d entries, scan has %d", life, i, len(got.entries), len(want.entries))
						}
						for s := range want.entries {
							if got.entries[s] != want.entries[s] {
								t.Fatalf("life %d op %d slot %d: %+v, scan has %+v", life, i, s, got.entries[s], want.entries[s])
							}
						}
						got.checkHeap(t)
					}
					if got.Total() != want.Total() {
						t.Fatalf("life %d: total %d, scan has %d", life, got.Total(), want.Total())
					}
					got.Reset()
					want.Reset()
				}
			})
		}
	}
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
