package storage

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"
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
	e.Delete("k", Version{Timestamp: 2, Seq: 2})
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
	if rs.Keys != 2 || e.Len() != 2 {
		t.Fatalf("post-recovery keys = %d / %d", rs.Keys, e.Len())
	}
}

func TestLSMRecoverRebuildsAccounting(t *testing.T) {
	e := NewLSMEngine(Options{FlushLimit: 300, SyncBytes: 0, MaxRuns: 4})
	var seq uint64
	fill(e, 30, &seq)
	wantBytes := e.Bytes()
	wantKeys := append([]string(nil), e.Keys()...)

	e.Crash()
	e.Recover()
	if e.Bytes() != wantBytes {
		t.Fatalf("Bytes() after recovery = %d, want %d", e.Bytes(), wantBytes)
	}
	got := e.Keys()
	if len(got) != len(wantKeys) {
		t.Fatalf("Keys() len = %d, want %d", len(got), len(wantKeys))
	}
	for i := range got {
		if got[i] != wantKeys[i] {
			t.Fatalf("Keys()[%d] = %s, want %s", i, got[i], wantKeys[i])
		}
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
	e.Delete("b", Version{Timestamp: 2, Seq: 9})
	var seen []string
	tombs := 0
	e.Scan("a", "d", func(k string, c Cell) bool {
		seen = append(seen, k)
		if c.Tombstone {
			tombs++
		}
		return true
	})
	if fmt.Sprint(seen) != "[a b c]" {
		t.Fatalf("scan order = %v", seen)
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
