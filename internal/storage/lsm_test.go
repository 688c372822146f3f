package storage

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/ring"
)

// lsmOpts returns small-scale options that force flushes and compaction.
func lsmOpts() Options {
	return Options{FlushLimit: 256, SyncBytes: 0, MaxRuns: 3}
}

func fill(e Engine, n int, seq *uint64) {
	for i := 0; i < n; i++ {
		*seq++
		e.Apply(fmt.Sprintf("k%03d", i), Cell{
			Version: Version{Timestamp: time.Duration(*seq), Seq: *seq},
			Value:   []byte(fmt.Sprintf("val-%d", *seq)),
		})
	}
}

func TestLSMFlushSealsRuns(t *testing.T) {
	e := NewLSMEngine(lsmOpts())
	var seq uint64
	fill(e, 40, &seq)
	st := e.Stats()
	if st.Flushes == 0 {
		t.Fatal("no flush despite exceeding the limit")
	}
	if st.Runs == 0 {
		t.Fatal("flush sealed no run")
	}
	// Every key must still be readable across memtable and runs.
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("k%03d", i)
		if _, ok := e.Get(k); !ok {
			t.Fatalf("key %s lost after flush", k)
		}
	}
}

func TestLSMMergeReadNewestWins(t *testing.T) {
	e := NewLSMEngine(Options{FlushLimit: 0, MaxRuns: 8})
	e.Apply("k", Cell{Version: Version{Timestamp: 1, Seq: 1}, Value: []byte("old")})
	e.Flush() // "old" now lives in a run
	e.Apply("k", Cell{Version: Version{Timestamp: 2, Seq: 2}, Value: []byte("mid")})
	e.Flush() // newer run shadows the older one
	e.Apply("k", Cell{Version: Version{Timestamp: 3, Seq: 3}, Value: []byte("new")})
	// memtable shadows both runs
	c, ok := e.Get("k")
	if !ok || string(c.Value) != "new" {
		t.Fatalf("merge-read returned %q", c.Value)
	}
	if e.Stats().Runs != 2 {
		t.Fatalf("runs = %d", e.Stats().Runs)
	}
	if e.Bytes() != int64(c.Size()) {
		t.Fatalf("Bytes() = %d, want resident size %d", e.Bytes(), c.Size())
	}
}

func TestLSMCompaction(t *testing.T) {
	e := NewLSMEngine(Options{FlushLimit: 0, MaxRuns: 3})
	var seq uint64
	for round := 0; round < 3; round++ {
		fill(e, 10, &seq) // overwrites the same 10 keys each round
		e.Flush()
	}
	st := e.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compaction despite reaching MaxRuns")
	}
	if st.Runs != 1 {
		t.Fatalf("compaction left %d runs", st.Runs)
	}
	if st.RunEntries != 10 {
		t.Fatalf("compacted run holds %d entries, want 10 (superseded versions dropped)", st.RunEntries)
	}
	// Newest version per key survives.
	c, ok := e.Get("k005")
	if !ok || c.Version.Seq <= 20 {
		t.Fatalf("resident cell after compaction: %+v", c)
	}
}

func TestLSMTombstoneThroughCompaction(t *testing.T) {
	e := NewLSMEngine(Options{FlushLimit: 0, MaxRuns: 2})
	e.Apply("k", Cell{Version: Version{Timestamp: 1, Seq: 1}, Value: []byte("x")})
	e.Flush()
	e.Apply("k", Cell{Version: Version{Timestamp: 2, Seq: 2}, Tombstone: true})
	e.Flush() // two runs → compaction merges them
	if e.Stats().Compactions == 0 {
		t.Fatal("expected compaction")
	}
	c, ok := e.Get("k")
	if !ok || !c.Tombstone {
		t.Fatal("tombstone dropped by compaction")
	}
	// A write older than the deletion must still lose (the reason the
	// tombstone is kept).
	if e.Apply("k", Cell{Version: Version{Timestamp: 1, Seq: 9}, Value: []byte("late")}) {
		t.Fatal("pre-deletion write resurrected the key")
	}
	// A newer write resurrects.
	if !e.Apply("k", Cell{Version: Version{Timestamp: 3, Seq: 10}, Value: []byte("y")}) {
		t.Fatal("post-deletion write rejected")
	}
}

func TestLSMCrashLosesOnlyUnsyncedTail(t *testing.T) {
	// Sync cadence huge: nothing auto-syncs after the explicit point.
	e := NewLSMEngine(Options{FlushLimit: 0, SyncBytes: 1 << 30, MaxRuns: 8})
	e.Apply("durable", Cell{Version: Version{Timestamp: 1, Seq: 1}, Value: []byte("d")})
	e.Flush() // run: durable
	e.Apply("synced", Cell{Version: Version{Timestamp: 2, Seq: 2}, Value: []byte("s")})
	e.sync() // WAL prefix: durable
	e.Apply("lost", Cell{Version: Version{Timestamp: 3, Seq: 3}, Value: []byte("l")})

	e.Crash()
	rs := e.Recover()
	if rs.RunsLoaded != 1 || rs.WALRecords != 1 {
		t.Fatalf("recover stats: %+v", rs)
	}
	if e.Stats().LostRecords != 1 {
		t.Fatalf("lost records = %d", e.Stats().LostRecords)
	}
	if _, ok := e.Get("durable"); !ok {
		t.Fatal("run entry lost")
	}
	if _, ok := e.Get("synced"); !ok {
		t.Fatal("synced WAL record lost")
	}
	if _, ok := e.Get("lost"); ok {
		t.Fatal("un-fsynced record survived the crash")
	}
	if rs.Keys != 2 || e.KeyCount() != 2 {
		t.Fatalf("post-recovery keys = %d / %d", rs.Keys, e.KeyCount())
	}
}

func TestLSMRecoverRebuildsAccounting(t *testing.T) {
	e := NewLSMEngine(Options{FlushLimit: 300, SyncBytes: 0, MaxRuns: 4})
	var seq uint64
	fill(e, 30, &seq)
	wantBytes := e.Bytes()
	wantKeys := sortedKeys(e)

	e.Crash()
	e.Recover()
	if e.Bytes() != wantBytes {
		t.Fatalf("Bytes() after recovery = %d, want %d", e.Bytes(), wantBytes)
	}
	if got := sortedKeys(e); !slices.Equal(got, wantKeys) {
		t.Fatalf("keys after recovery = %v, want %v", got, wantKeys)
	}
	// Everything was synced (SyncBytes 0): nothing may be lost.
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("k%03d", i)
		if _, ok := e.Get(k); !ok {
			t.Fatalf("key %s lost across crash with per-record sync", k)
		}
	}
}

func TestLSMScanOrderedWithTombstones(t *testing.T) {
	e := NewLSMEngine(Options{FlushLimit: 0, MaxRuns: 4})
	for i, k := range []string{"d", "b", "a", "c"} {
		e.Apply(k, Cell{Version: Version{Timestamp: 1, Seq: uint64(i + 1)}, Value: []byte(k)})
	}
	e.Flush()
	e.Apply("b", Cell{Version: Version{Timestamp: 2, Seq: 9}, Tombstone: true})
	var seen []string
	tombs := 0
	for _, ent := range drain(e.SnapshotRanges(fullRing)) {
		seen = append(seen, ent.key)
		if ent.cell.Tombstone {
			tombs++
		}
	}
	if fmt.Sprint(seen) != "[a b c d]" {
		t.Fatalf("snapshot order = %v", seen)
	}
	if tombs != 1 {
		t.Fatalf("tombstones seen = %d", tombs)
	}
}

func TestLSMFileWAL(t *testing.T) {
	dir := t.TempDir()
	opts := Options{FlushLimit: 0, SyncBytes: 1 << 30, MaxRuns: 8, Path: filepath.Join(dir, "wal.log")}
	e := NewLSMEngine(opts)
	e.Apply("a", Cell{Version: Version{Timestamp: 1, Seq: 1}, Value: []byte("x")})
	e.sync()
	e.Apply("b", Cell{Version: Version{Timestamp: 2, Seq: 2}, Value: []byte("y")})
	e.Crash() // drops the tail the file never saw
	rs := e.Recover()
	if rs.WALRecords != 1 || rs.TornTail {
		t.Fatalf("file WAL recovery: %+v", rs)
	}
	if _, ok := e.Get("a"); !ok {
		t.Fatal("synced record lost from file WAL")
	}
	if _, ok := e.Get("b"); ok {
		t.Fatal("unsynced record survived file WAL crash")
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// sortedFind is the binary search over a run's sorted entries that point
// lookups used before runs had a hash index: the reference run.find must
// agree with.
func sortedFind(entries []runEntry, key string) (Cell, bool) {
	i := sort.Search(len(entries), func(i int) bool { return entries[i].key >= key })
	if i < len(entries) && entries[i].key == key {
		return entries[i].cell, true
	}
	return Cell{}, false
}

// TestRunIndexMatchesSortedSearch: a sealed run's hash index answers what
// a binary search over its entries answers. Every present key returns its
// own cell; absent keys below, between and above the entries miss. Sizes
// cover 0, 1, 2^k and 2^k+1 entries. The chain cases pick every key to
// share one or two home slots at the table's end, so hits and misses walk
// one probe chain that wraps past the last slot. A find whose probe ends
// at the table's last slot instead of wrapping to slot 0 passes every
// other test in the package and fails the chain cases.
func TestRunIndexMatchesSortedSearch(t *testing.T) {
	check := func(t *testing.T, present, absent []string) run {
		t.Helper()
		sort.Strings(present)
		entries := make([]runEntry, len(present))
		for i, k := range present {
			entries[i] = runEntry{key: k, cell: Cell{Version: Version{Seq: uint64(i + 1)}, Value: []byte(k)}}
		}
		r := sealRun(entries)
		for _, k := range append(append([]string(nil), present...), absent...) {
			got, gok := r.find(k, ring.KeyToken(k))
			want, wok := sortedFind(entries, k)
			if gok != wok || !reflect.DeepEqual(got, want) {
				t.Fatalf("%d entries, key %q: index %+v %v, sorted search %+v %v", len(entries), k, got, gok, want, wok)
			}
		}
		return r
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 8, 9, 64, 65, 1024, 1025} {
		var present, absent []string
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("k%05d", 2*i+1)
			present = append(present, k)
			absent = append(absent, fmt.Sprintf("k%05d", 2*i), k+"\x00") // between, and just above each
		}
		absent = append(absent, "", "a", "k", fmt.Sprintf("k%05d", 2*n+2), "z") // below and above all
		t.Run(fmt.Sprintf("sorted/%d", n), func(t *testing.T) { check(t, present, absent) })
	}
	for _, n := range []int{2, 4, 5, 9, 17} {
		shape := sealRun(make([]runEntry, n)) // a table sized for n entries
		last := len(shape.slots) - 1
		for _, homes := range [][]int{{last}, {last - 1, last}} {
			// n keys homed round-robin on homes, then two absent keys
			// homed on each, which must walk the chain to its empty end.
			var present, absent []string
			for i := 0; len(present)+len(absent) < n+2*len(homes); i++ {
				k := fmt.Sprintf("c%06d", i)
				if picked := len(present) + len(absent); shape.home(ring.KeyToken(k)) != homes[picked%len(homes)] {
					continue
				}
				if len(present) < n {
					present = append(present, k)
				} else {
					absent = append(absent, k)
				}
			}
			t.Run(fmt.Sprintf("chain/%d/homes=%d", n, len(homes)), func(t *testing.T) {
				r := check(t, present, absent)
				// The chain is n occupied slots from the first home,
				// wrapping past the last slot, then an empty one.
				mask := len(r.slots) - 1
				for j := 0; j <= n; j++ {
					if occupied := r.slots[(homes[0]+j)&mask] != 0; occupied != (j < n) {
						t.Fatalf("slot %d after home %d: occupied=%v; slots %v", j, homes[0], occupied, r.slots)
					}
				}
			})
		}
	}
}
