package storage

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/ring"
)

func rangeTestEngines() []struct {
	name string
	mk   func() Engine
} {
	return []struct {
		name string
		mk   func() Engine
	}{
		{"mem", func() Engine { return NewMemEngine(0) }},
		{"lsm", func() Engine { return NewLSMEngine(Options{FlushLimit: 512, SyncBytes: 0, MaxRuns: 16}) }},
	}
}

// fullRing is the one arc that covers every token.
var fullRing = []ring.Range{{Start: 0, End: 0}}

// scanAll is the snapshot tests' reference: every resident cell in
// sorted key order through Scan, a path that shares no code with
// SnapshotRanges' token filter.
func scanAll(e Engine) []runEntry {
	var out []runEntry
	e.Scan("", "", func(k string, c Cell) bool {
		out = append(out, runEntry{key: k, cell: c})
		return true
	})
	return out
}

func drain(it SnapshotIter) []runEntry {
	var out []runEntry
	for {
		k, c, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, runEntry{key: k, cell: c})
	}
}

// TestSnapshotRangesMatchesFilteredFull pins the equivalence contract:
// for any range set, SnapshotRanges yields exactly the full sorted
// scan's cells whose tokens fall in the ranges, in the same (sorted
// key) order — including tombstones and across LSM runs with superseded
// versions.
func TestSnapshotRangesMatchesFilteredFull(t *testing.T) {
	ids := make([]netsim.NodeID, 8)
	for i := range ids {
		ids[i] = netsim.NodeID(i)
	}
	r := ring.New(ids, 16, 7)
	for _, tc := range rangeTestEngines() {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.mk()
			fillEngine(e, 300, 1)
			for i := 0; i < 300; i += 7 {
				e.Apply(fmt.Sprintf("snap%05d", i), Cell{
					Version: Version{Timestamp: time.Duration(1000 + i), Seq: 1000 + uint64(i)},
					Value:   []byte("newer"),
				})
			}
			for i := 3; i < 300; i += 31 {
				e.Delete(fmt.Sprintf("snap%05d", i), Version{Timestamp: time.Duration(5000 + i), Seq: 5000 + uint64(i)})
			}
			for _, owner := range ids {
				ranges := r.Ranges(owner)
				full := scanAll(e)
				var want []runEntry
				for _, ent := range full {
					if ring.RangesContain(ranges, ring.KeyToken(ent.key)) {
						want = append(want, ent)
					}
				}
				got := drain(e.SnapshotRanges(ranges))
				if len(got) != len(want) {
					t.Fatalf("owner %d: %d cells, want %d", owner, len(got), len(want))
				}
				for i := range got {
					if got[i].key != want[i].key || got[i].cell.Version != want[i].cell.Version {
						t.Fatalf("owner %d: cell %d = %q@%v, want %q@%v",
							owner, i, got[i].key, got[i].cell.Version, want[i].key, want[i].cell.Version)
					}
				}
			}
		})
	}
}

// TestSnapshotRangesEmptyAndWrap pins the edges: an empty range set
// yields an empty snapshot, and a wrapping arc crossing token 0 picks
// up keys on both sides of the origin.
func TestSnapshotRangesEmptyAndWrap(t *testing.T) {
	for _, tc := range rangeTestEngines() {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.mk()
			fillEngine(e, 200, 1)
			if got := drain(e.SnapshotRanges(nil)); len(got) != 0 {
				t.Fatalf("empty range set yielded %d cells", len(got))
			}
			// A wrapping arc covering (mid, 42] — everything except the
			// (42, mid] span — plus its complement must repartition the
			// full snapshot exactly. The split point is the median key
			// token (FNV tokens of short sequential keys cluster, so a
			// fixed constant could land outside the cluster).
			var toks []ring.Token
			for _, k := range e.Keys() {
				toks = append(toks, ring.KeyToken(k))
			}
			sort.Slice(toks, func(i, j int) bool { return toks[i] < toks[j] })
			mid := toks[len(toks)/2]
			wrap := ring.Range{Start: mid, End: 42}
			if !wrap.Wraps() {
				t.Fatal("test arc does not wrap")
			}
			inWrap := drain(e.SnapshotRanges([]ring.Range{wrap}))
			rest := drain(e.SnapshotRanges([]ring.Range{{Start: 42, End: mid}}))
			full := scanAll(e)
			if len(inWrap)+len(rest) != len(full) {
				t.Fatalf("wrap %d + rest %d != full %d", len(inWrap), len(rest), len(full))
			}
			if len(inWrap) == 0 || len(rest) == 0 {
				t.Fatalf("degenerate split %d/%d; wrap arc not exercised", len(inWrap), len(rest))
			}
			for _, ent := range inWrap {
				if !wrap.Contains(ring.KeyToken(ent.key)) {
					t.Fatalf("key %q token outside wrap arc", ent.key)
				}
			}
		})
	}
}

// TestSnapshotRangesPointInTime pins that a range snapshot does not see
// mutations applied after it was taken.
func TestSnapshotRangesPointInTime(t *testing.T) {
	for _, tc := range rangeTestEngines() {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.mk()
			fillEngine(e, 50, 1)
			it := e.SnapshotRanges(fullRing)
			e.Apply("snap00000", Cell{Version: Version{Timestamp: 1 << 40, Seq: 1 << 40}, Value: []byte("late")})
			e.Apply("zzz-late", Cell{Version: Version{Timestamp: 1 << 40, Seq: 1 << 41}, Value: []byte("late")})
			got := drain(it)
			for _, ent := range got {
				if string(ent.cell.Value) == "late" {
					t.Fatalf("post-snapshot write %q leaked into range snapshot", ent.key)
				}
			}
			if len(got) != 50 {
				t.Fatalf("full-ring range snapshot has %d cells, want 50", len(got))
			}
		})
	}
}

// TestSnapshotRangesLSMFlushSideEffect pins that SnapshotRanges seals
// the LSM memtable even for an empty range set: the stream path's flush
// behavior, and the determinism transcripts that depend on it, do not
// vary with what a source happens to own.
func TestSnapshotRangesLSMFlushSideEffect(t *testing.T) {
	e := NewLSMEngine(Options{FlushLimit: 1 << 20, SyncBytes: 0, MaxRuns: 16})
	fillEngine(e, 40, 1)
	before := e.Stats().Runs
	drain(e.SnapshotRanges(nil))
	if after := e.Stats().Runs; after != before+1 {
		t.Fatalf("empty-range snapshot did not seal memtable: runs %d -> %d", before, after)
	}
}

// TestSnapshotRangesCrashReplayRemaining models a source crashing
// mid-stream: the first half of the planned ranges was already shipped;
// after Crash+Recover the replay requests only the remaining ranges and
// the receiver still converges to the full owned set, without
// re-reading the delivered arcs.
func TestSnapshotRangesCrashReplayRemaining(t *testing.T) {
	ids := make([]netsim.NodeID, 8)
	for i := range ids {
		ids[i] = netsim.NodeID(i)
	}
	r := ring.New(ids, 16, 7)
	src := NewLSMEngine(Options{FlushLimit: 256, SyncBytes: 0, MaxRuns: 16})
	fillEngine(src, 400, 1)
	src.Flush() // durability point: everything survives the crash

	owned := r.Ranges(ids[3])
	if len(owned) < 2 {
		t.Fatalf("owner has %d arcs; need at least 2 to split", len(owned))
	}
	half := len(owned) / 2
	dst := NewMemEngine(0)
	apply := func(ranges []ring.Range) int {
		it := src.SnapshotRanges(ranges)
		var buf []byte
		n := 0
		for {
			k, c, ok := it.Next()
			if !ok {
				break
			}
			buf = EncodeCell(buf, k, c)
			n++
		}
		if _, _, err := ApplyEncoded(dst, buf); err != nil {
			t.Fatalf("apply: %v", err)
		}
		return n
	}
	sent := apply(owned[:half])

	src.Crash()
	if rs := src.Recover(); rs.WALRecords == 0 && src.Len() == 0 {
		t.Fatal("recovery lost the durable store")
	}
	resent := apply(owned[half:])

	want := drain(src.SnapshotRanges(owned))
	if got := dst.Len(); got != len(want) {
		t.Fatalf("receiver has %d cells after replay, want %d", got, len(want))
	}
	if sent+resent != len(want) {
		t.Fatalf("replay re-read delivered arcs: %d+%d != %d", sent, resent, len(want))
	}
}
