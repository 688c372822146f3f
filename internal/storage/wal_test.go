package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fileEngine builds an LSM engine on a file-backed WAL in a fresh
// directory and returns the file's path.
func fileEngine(t *testing.T, o Options) (*LSMEngine, string) {
	o.Path = filepath.Join(t.TempDir(), "wal.log")
	e := NewLSMEngine(o)
	t.Cleanup(func() {
		if err := e.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return e, o.Path
}

// forEachWAL runs fn once per log substrate: the sim's in-memory buffer
// and the live engine's recycled file segment, each build on a file of
// its own.
func forEachWAL(t *testing.T, fn func(t *testing.T, build func(Options) *LSMEngine)) {
	t.Run("mem", func(t *testing.T) { fn(t, NewLSMEngine) })
	t.Run("file", func(t *testing.T) {
		fn(t, func(o Options) *LSMEngine {
			e, _ := fileEngine(t, o)
			return e
		})
	})
}

// tearLog cuts the durable log n bytes short: what the disk holds after
// a crash that kept only part of the final record.
func tearLog(w walog, n int) {
	switch w := w.(type) {
	case *memWAL:
		w.buf = w.buf[:len(w.buf)-n]
		w.synced = len(w.buf)
	case *fileWAL:
		w.synced -= int64(n)
	}
}

// flipLogByte damages the byte back bytes before the end of the durable
// log.
func flipLogByte(t *testing.T, w walog, back int) {
	switch w := w.(type) {
	case *memWAL:
		w.buf[w.synced-back] ^= 0xff
	case *fileWAL:
		var b [1]byte
		off := w.synced - int64(back)
		if _, err := w.f.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0xff
		if _, err := w.f.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
	}
}

// walWriteSet builds n distinct records' worth of writes.
func walWriteSet(n int) []struct {
	key  string
	cell Cell
} {
	set := make([]struct {
		key  string
		cell Cell
	}, n)
	for i := range set {
		set[i].key = fmt.Sprintf("key-%02d", i%7) // overwrites included
		set[i].cell = Cell{
			Version:   Version{Timestamp: time.Duration(i + 1), Seq: uint64(i + 1)},
			Value:     []byte(fmt.Sprintf("value-%03d", i)),
			Tombstone: i%5 == 4,
		}
	}
	return set
}

// TestWALRecordRoundTrip pins the record codec.
func TestWALRecordRoundTrip(t *testing.T) {
	var buf []byte
	set := walWriteSet(12)
	for _, w := range set {
		buf = appendWALRecord(buf, w.key, w.cell)
	}
	off := 0
	for i, w := range set {
		key, cell, n, err := decodeWALRecord(buf, off)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if key != w.key || cell.Version != w.cell.Version ||
			string(cell.Value) != string(w.cell.Value) || cell.Tombstone != w.cell.Tombstone {
			t.Fatalf("record %d round-trip: got %q %+v", i, key, cell)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

// TestWALReplayEveryBoundary crashes the engine with the WAL synced at
// every record boundary in turn: recovery must land on exactly the
// consistent prefix up to that boundary, never a partial or phantom
// record.
func TestWALReplayEveryBoundary(t *testing.T) {
	forEachWAL(t, testWALReplayEveryBoundary)
}

func testWALReplayEveryBoundary(t *testing.T, build func(Options) *LSMEngine) {
	set := walWriteSet(20)
	// Record the encoded size of each record to find the boundaries.
	sizes := make([]int, len(set))
	for i, w := range set {
		sizes[i] = len(appendWALRecord(nil, w.key, w.cell))
	}
	for cut := 0; cut <= len(set); cut++ {
		// SyncBytes huge: we control the durability point by hand.
		e := build(Options{FlushLimit: 0, SyncBytes: 1 << 30, MaxRuns: 64})
		for i, w := range set {
			e.Apply(w.key, w.cell)
			if i == cut-1 {
				e.sync()
			}
		}
		e.Crash()
		rs := e.Recover()
		if rs.TornTail {
			t.Fatalf("cut %d: clean boundary reported torn", cut)
		}
		// Expected state: the prefix set[:cut] applied to a fresh engine.
		want := NewMemEngine(0)
		applied := uint64(0)
		for _, w := range set[:cut] {
			want.Apply(w.key, w.cell)
			applied++
		}
		if rs.WALRecords > applied {
			t.Fatalf("cut %d: replayed %d records, appended only %d", cut, rs.WALRecords, applied)
		}
		if e.Len() != want.Len() {
			t.Fatalf("cut %d: %d keys recovered, want %d", cut, e.Len(), want.Len())
		}
		for _, k := range want.Keys() {
			wc, _ := want.Peek(k)
			gc, ok := e.Peek(k)
			if !ok || gc.Version != wc.Version || string(gc.Value) != string(wc.Value) || gc.Tombstone != wc.Tombstone {
				t.Fatalf("cut %d key %s: got %+v ok=%v want %+v", cut, k, gc, ok, wc)
			}
		}
	}
}

// TestWALReplayTornFinalRecord hand-corrupts the durable log mid-record:
// replay must keep the consistent prefix and flag the torn tail.
func TestWALReplayTornFinalRecord(t *testing.T) {
	forEachWAL(t, testWALReplayTornFinalRecord)
}

func testWALReplayTornFinalRecord(t *testing.T, build func(Options) *LSMEngine) {
	set := walWriteSet(6)
	e := build(Options{FlushLimit: 0, SyncBytes: 0, MaxRuns: 64})
	for _, w := range set {
		e.Apply(w.key, w.cell)
	}
	// Tear the final record: chop half of it off, then pretend the torn
	// state is what the disk held.
	last := len(appendWALRecord(nil, set[len(set)-1].key, set[len(set)-1].cell))
	tearLog(e.wal, last/2)

	e.Crash()
	rs := e.Recover()
	if !rs.TornTail {
		t.Fatal("torn tail not detected")
	}
	if rs.WALRecords != uint64(len(set)-1) {
		t.Fatalf("replayed %d records, want %d (consistent prefix)", rs.WALRecords, len(set)-1)
	}

	// Corrupt (not torn) record: flip a payload byte under the checksum.
	e2 := build(Options{FlushLimit: 0, SyncBytes: 0, MaxRuns: 64})
	for _, w := range set {
		e2.Apply(w.key, w.cell)
	}
	flipLogByte(t, e2.wal, walCRCBytes+2)
	e2.Crash()
	rs2 := e2.Recover()
	if !rs2.TornTail {
		t.Fatal("corrupt record not detected")
	}
	if rs2.WALRecords != uint64(len(set)-1) {
		t.Fatalf("replayed %d records past corruption, want %d", rs2.WALRecords, len(set)-1)
	}
}

// TestFileWALGenerationIsolation pins what makes recycling the segment
// safe: a memtable flush rewinds the log without truncating the file, so
// the previous generation's records lie past the new watermark with
// valid checksums, and recovery must replay exactly the new generation's
// synced records, never those.
func TestFileWALGenerationIsolation(t *testing.T) {
	e, path := fileEngine(t, Options{FlushLimit: 0, SyncBytes: 1 << 30, MaxRuns: 64})
	var seq uint64
	write := func(gen, i int) {
		seq++
		// Equal-sized records: the new generation's tail lands exactly on
		// a stale record boundary, the worst case for a replay that trusts
		// the file.
		e.Apply(fmt.Sprintf("gen%d-%02d", gen, i), Cell{
			Version: Version{Timestamp: time.Duration(seq), Seq: seq},
			Value:   []byte("12345678"),
		})
	}
	for i := 0; i < 12; i++ {
		write(1, i)
	}
	e.sync()
	e.Flush() // generation 1 is a run now; its 12 records stay in the file
	for i := 0; i < 3; i++ {
		write(2, i)
	}
	e.sync()
	write(2, 3)
	write(2, 4) // unsynced: lost

	// The hazard is real: a valid stale record sits right at the watermark.
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w := e.wal.(*fileWAL)
	if key, _, _, err := decodeWALRecord(disk, int(w.synced)); err != nil || key != "gen1-03" {
		t.Fatalf("expected the stale record gen1-03 past the watermark, got %q, %v", key, err)
	}

	e.Crash()
	rs := e.Recover()
	if rs.WALRecords != 3 || rs.TornTail || rs.RunsLoaded != 1 || rs.RunEntries != 12 {
		t.Fatalf("recovery replayed the wrong log: %+v", rs)
	}
	if lost := e.Stats().LostRecords; lost != 2 {
		t.Fatalf("lost records = %d, want 2", lost)
	}
	if e.Len() != 15 {
		t.Fatalf("%d keys after recovery, want 12 flushed + 3 replayed", e.Len())
	}
	for _, k := range []string{"gen2-03", "gen2-04"} {
		if _, ok := e.Peek(k); ok {
			t.Fatalf("unsynced record %s survived the crash", k)
		}
	}
}

// TestFileWALSameCountsAsMemWAL drives one Apply/Crash/Recover sequence
// through a mem-backed and a file-backed engine: every counter (appends,
// bytes, syncs, lost records, flushes, compactions) and the resident
// state must agree, i.e. buffering records until the sync did not move
// the sync cadence or what a crash loses.
func TestFileWALSameCountsAsMemWAL(t *testing.T) {
	opts := Options{FlushLimit: 2048, SyncBytes: 300, MaxRuns: 3}
	mem := NewLSMEngine(opts)
	file, _ := fileEngine(t, opts)
	for i := 0; i < 600; i++ {
		seq := uint64(i + 1)
		c := Cell{Version: Version{Timestamp: time.Duration(seq), Seq: seq}, Tombstone: i%11 == 10}
		if !c.Tombstone {
			c.Value = make([]byte, 10+i%90)
		}
		key := fmt.Sprintf("k%03d", (i*7)%53)
		if mem.Apply(key, c) != file.Apply(key, c) {
			t.Fatalf("write %d: engines disagree on acceptance", i)
		}
		if i%97 == 96 {
			mem.Crash()
			file.Crash()
			if mr, fr := mem.Recover(), file.Recover(); mr != fr {
				t.Fatalf("write %d: recover stats diverged:\n mem  %+v\n file %+v", i, mr, fr)
			}
		}
	}
	ms, fs := mem.Stats(), file.Stats()
	if ms != fs {
		t.Fatalf("stats diverged:\n mem  %+v\n file %+v", ms, fs)
	}
	if ms.WALSyncs == 0 || ms.LostRecords == 0 || ms.Compactions == 0 {
		t.Fatalf("sequence exercised too little: %+v", ms)
	}
	if got, want := snapshot(file), snapshot(mem); got != want {
		t.Fatalf("state diverged:\n file %s\n mem  %s", got, want)
	}
}

// TestFileWALHoldsHighWaterMark: the segment is recycled, not regrown.
// Across ten memtable generations of equal length the file keeps the
// size the first one gave it, neither truncated by a flush (the next
// generation's syncs must land on blocks the file already owns) nor
// grown past it.
func TestFileWALHoldsHighWaterMark(t *testing.T) {
	e, path := fileEngine(t, Options{FlushLimit: 0, SyncBytes: 256, MaxRuns: 4})
	size := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	var seq uint64
	var highWater int64
	for cycle := 0; cycle < 10; cycle++ {
		for i := 0; i < 40; i++ {
			seq++
			e.Apply(fmt.Sprintf("c%02d-k%02d", cycle, i), Cell{
				Version: Version{Timestamp: time.Duration(seq), Seq: seq},
				Value:   make([]byte, 100),
			})
			if cycle > 0 && size() != highWater {
				t.Fatalf("cycle %d record %d: file is %d bytes, first-cycle high-water mark %d", cycle, i, size(), highWater)
			}
		}
		e.Flush()
		if cycle == 0 {
			if highWater = size(); highWater == 0 {
				t.Fatal("first cycle wrote nothing")
			}
		}
	}
	if st := e.Stats(); st.Flushes != 10 || st.Compactions == 0 {
		t.Fatalf("cycles did not flush and compact: %+v", st)
	}
}
