package storage

import (
	"fmt"
	"testing"
	"time"
)

func fillEngine(e Engine, n int, seqBase uint64) {
	for i := 0; i < n; i++ {
		e.Apply(fmt.Sprintf("snap%05d", i), Cell{
			Version: Version{Timestamp: time.Duration(i + 1), Seq: seqBase + uint64(i)},
			Value:   []byte(fmt.Sprintf("val-%d", i)),
		})
	}
}

// TestSnapshotSortedAndComplete pins that both engines' full-ring
// snapshots visit every resident cell exactly once in sorted key order,
// the cells the sorted reference scan yields — including tombstones, and for the LSM
// engine across memtable + multiple runs with superseded versions.
func TestSnapshotSortedAndComplete(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Engine
	}{
		{"mem", func() Engine { return NewMemEngine(0) }},
		{"lsm", func() Engine { return NewLSMEngine(Options{FlushLimit: 512, SyncBytes: 0, MaxRuns: 16}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.mk()
			fillEngine(e, 100, 1)
			// Overwrite some keys with newer versions and delete a few so
			// runs hold superseded entries and tombstones.
			for i := 0; i < 100; i += 7 {
				e.Apply(fmt.Sprintf("snap%05d", i), Cell{
					Version: Version{Timestamp: time.Duration(1000 + i), Seq: 1000 + uint64(i)},
					Value:   []byte("newer"),
				})
			}
			e.Apply("snap00004", Cell{Version: Version{Timestamp: 5000, Seq: 5000}, Tombstone: true})

			want := scanAll(e)
			var prev string
			count := 0
			for _, ent := range drain(e.SnapshotRanges(fullRing)) {
				k, c := ent.key, ent.cell
				if count >= len(want) || want[count].key != k || want[count].cell.Version != c.Version {
					t.Fatalf("snapshot cell %d = %q@%v, the sorted scan disagrees", count, k, c.Version)
				}
				if count > 0 && k <= prev {
					t.Fatalf("snapshot out of order: %q after %q", k, prev)
				}
				res, ok := e.Peek(k)
				if !ok || res.Version != c.Version || res.Tombstone != c.Tombstone {
					t.Fatalf("snapshot cell %q = %+v, resident %+v (ok=%v)", k, c, res, ok)
				}
				prev = k
				count++
			}
			if count != e.KeyCount() {
				t.Fatalf("snapshot visited %d cells, engine holds %d", count, e.KeyCount())
			}
		})
	}
}

// TestSnapshotIsolation pins the point-in-time property: mutations made
// after SnapshotRanges do not appear in the iteration.
func TestSnapshotIsolation(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Engine
	}{
		{"mem", func() Engine { return NewMemEngine(0) }},
		{"lsm", func() Engine { return NewLSMEngine(Options{FlushLimit: 0, SyncBytes: 0}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.mk()
			fillEngine(e, 50, 1)
			it := e.SnapshotRanges(fullRing)
			// Mutate after the snapshot: a new key and a newer version.
			e.Apply("zzz-late", Cell{Version: Version{Timestamp: 9999, Seq: 9999}, Value: []byte("late")})
			e.Apply("snap00000", Cell{Version: Version{Timestamp: 9999, Seq: 9998}, Value: []byte("late")})
			for {
				k, c, ok := it.Next()
				if !ok {
					break
				}
				if k == "zzz-late" {
					t.Fatal("snapshot leaked a post-snapshot key")
				}
				if k == "snap00000" && c.Version.Timestamp == 9999 {
					t.Fatal("snapshot leaked a post-snapshot version")
				}
			}
		})
	}
}

// TestSnapshotStreamRoundTrip pins the full pipeline: iterate a source
// engine, serialize into framed chunks, apply on a receiving engine of
// the other kind — the receiver converges to identical resident state.
func TestSnapshotStreamRoundTrip(t *testing.T) {
	src := NewLSMEngine(Options{FlushLimit: 1024, SyncBytes: 0, MaxRuns: 4})
	fillEngine(src, 200, 1)
	src.Apply("snap00013", Cell{Version: Version{Timestamp: 7777, Seq: 7777}, Tombstone: true})

	dst := NewMemEngine(0)
	// Seed the receiver with one newer cell: streaming must not clobber it
	// (last-write-wins applies to streamed cells too).
	newer := Cell{Version: Version{Timestamp: 1 << 40, Seq: 1 << 40}, Value: []byte("kept")}
	dst.Apply("snap00001", newer)

	it := src.SnapshotRanges(fullRing)
	var chunk []byte
	total, applied := 0, 0
	flush := func() {
		tt, aa, err := ApplyEncoded(dst, chunk)
		if err != nil {
			t.Fatalf("apply chunk: %v", err)
		}
		total += tt
		applied += aa
		chunk = chunk[:0]
	}
	for {
		k, c, ok := it.Next()
		if !ok {
			break
		}
		chunk = EncodeCell(chunk, k, c)
		if len(chunk) >= 4096 {
			flush()
		}
	}
	flush()

	if total != src.KeyCount() {
		t.Fatalf("streamed %d cells, source holds %d", total, src.KeyCount())
	}
	if applied != total-1 {
		t.Fatalf("applied %d of %d (exactly the pre-seeded newer cell should be rejected)", applied, total)
	}
	if got, _ := dst.Peek("snap00001"); got.Version != newer.Version {
		t.Fatal("stream clobbered a newer resident cell")
	}
	for _, ent := range scanAll(src) {
		if ent.key == "snap00001" {
			continue
		}
		got, ok := dst.Peek(ent.key)
		if !ok || got.Version != ent.cell.Version || got.Tombstone != ent.cell.Tombstone {
			t.Fatalf("receiver diverges at %q: %+v vs %+v (ok=%v)", ent.key, got, ent.cell, ok)
		}
	}
}

// TestApplyEncodedTornChunk pins that a truncated chunk applies its
// consistent prefix and reports the tear.
func TestApplyEncodedTornChunk(t *testing.T) {
	var buf []byte
	buf = EncodeCell(buf, "a", Cell{Version: Version{Timestamp: 1, Seq: 1}, Value: []byte("x")})
	whole := len(buf)
	buf = EncodeCell(buf, "b", Cell{Version: Version{Timestamp: 2, Seq: 2}, Value: []byte("y")})

	dst := NewMemEngine(0)
	total, applied, err := ApplyEncoded(dst, buf[:whole+3])
	if err == nil {
		t.Fatal("expected torn-record error")
	}
	if total != 1 || applied != 1 {
		t.Fatalf("prefix: total=%d applied=%d, want 1/1", total, applied)
	}
	if _, ok := dst.Peek("a"); !ok {
		t.Fatal("consistent prefix not applied")
	}
}
