package storage

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// BenchmarkWALAppend measures the WAL-logged apply path of the LSM
// engine (encode + append + per-record sync + memtable insert), the
// per-mutation overhead the durable engine adds over the map engine.
func BenchmarkWALAppend(b *testing.B) {
	e := NewLSMEngine(Options{FlushLimit: 0, SyncBytes: 0, MaxRuns: 64})
	val := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i + 1)
		e.Apply(fmt.Sprintf("user%08d", i%4096), Cell{
			Version: Version{Timestamp: time.Duration(seq), Seq: seq},
			Value:   val,
		})
	}
}

// BenchmarkFileWALApply measures the durable apply path on a real file
// in the shape serve-write-durable gives one replica: 256-byte values
// over 40 000 keys, a sync every 16 KiB, a memtable flush every MiB, so
// one op carries its share of the write + fdatasync per sync window, of
// the segment rewind per flush and of a compaction every fourth flush.
func BenchmarkFileWALApply(b *testing.B) {
	e := NewLSMEngine(Options{
		FlushLimit: 1 << 20, SyncBytes: 16 << 10,
		Path: filepath.Join(b.TempDir(), "wal.log"),
	})
	defer func() {
		if err := e.Close(); err != nil {
			b.Error(err)
		}
	}()
	const records = 40_000
	keys := make([]string, records)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%08d", i)
	}
	val := make([]byte, 256)
	rng := rand.New(rand.NewPCG(1, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i + 1)
		e.Apply(keys[rng.IntN(records)], Cell{
			Version: Version{Timestamp: time.Duration(seq), Seq: seq},
			Value:   val,
		})
	}
}

// durableRuns builds the runs one serve-write-durable replica holds
// just before a compaction: the previous compaction's 40 000-entry run
// under three fresh 3 500-entry memtable runs that overwrite it, 256 B
// values. seq is the last version stamped.
func durableRuns() (runs []run, seq uint64) {
	const records = 40_000
	val := make([]byte, 256)
	rng := rand.New(rand.NewPCG(3, 4))
	cell := func() Cell {
		seq++
		return Cell{Version: Version{Timestamp: time.Duration(seq), Seq: seq}, Value: val}
	}
	entries := make([][]runEntry, 4)
	for i := 0; i < records; i++ {
		entries[0] = append(entries[0], runEntry{key: fmt.Sprintf("user%08d", i), cell: cell()})
	}
	for r := 1; r < len(entries); r++ {
		picks := rng.Perm(records)[:3500]
		sort.Ints(picks) // run 0 is in key order, so index order is key order
		for _, i := range picks {
			entries[r] = append(entries[r], runEntry{key: entries[0][i].key, cell: cell()})
		}
	}
	runs = make([]run, len(entries))
	for r := range entries {
		runs[r] = sealRun(entries[r])
	}
	return runs, seq
}

// BenchmarkLSMCompact measures one size-tiered merge of durableRuns,
// sealing the merged run's index included.
func BenchmarkLSMCompact(b *testing.B) {
	runs, _ := durableRuns()
	e := NewLSMEngine(Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.runs = append(e.runs[:0], runs...) // runs are immutable: every merge reads the same input
		e.compact()
	}
	if len(e.runs) != 1 || len(e.runs[0].entries) != len(runs[0].entries) {
		b.Fatalf("compaction left %d runs, %d entries", len(e.runs), len(e.runs[0].entries))
	}
}

// BenchmarkLSMGet measures Get at serve-write-durable's steady shape:
// durableRuns under a memtable half way to its flush (1 750 overwrites).
// hit-oldest reads keys only the compacted run holds, so every layer is
// probed; hit-newest keys the newest run holds and the memtable does not;
// miss keys of the same length that no layer holds.
func BenchmarkLSMGet(b *testing.B) {
	runs, seq := durableRuns()
	e := NewLSMEngine(Options{})
	e.runs = runs
	val := make([]byte, 256)
	rng := rand.New(rand.NewPCG(5, 6))
	for _, i := range rng.Perm(len(runs[0].entries))[:1750] {
		seq++
		e.Apply(runs[0].entries[i].key, Cell{Version: Version{Timestamp: time.Duration(seq), Seq: seq}, Value: val})
	}
	// Versions are unique, so a run's entry is the resident cell exactly
	// when no layer above it holds the key.
	resident := func(ent runEntry) bool {
		c, _ := e.Peek(ent.key)
		return c.Version == ent.cell.Version
	}
	var oldest, newest, miss []string
	for _, ent := range runs[0].entries {
		if resident(ent) {
			oldest = append(oldest, ent.key)
		}
	}
	for _, ent := range runs[len(runs)-1].entries {
		if resident(ent) {
			newest = append(newest, ent.key)
		}
	}
	for i := range oldest {
		miss = append(miss, fmt.Sprintf("user%08d", len(runs[0].entries)+i))
	}
	for _, bc := range []struct {
		name string
		keys []string
		hit  bool
	}{{"hit-oldest", oldest, true}, {"hit-newest", newest, true}, {"miss", miss, false}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := e.Get(bc.keys[i%len(bc.keys)]); ok != bc.hit {
					b.Fatalf("Get(%s) ok=%v", bc.keys[i%len(bc.keys)], ok)
				}
			}
		})
	}
}

// BenchmarkMergeRead measures Get across a populated memtable plus
// three sorted runs — the read amplification of the LSM-lite layout,
// memtable-hit and run-probe paths both in the mix.
func BenchmarkMergeRead(b *testing.B) {
	e := NewLSMEngine(Options{FlushLimit: 0, SyncBytes: 1 << 20, MaxRuns: 64})
	const records = 4096
	var seq uint64
	for r := 0; r < 4; r++ {
		for i := r; i < records; i += 4 { // striped: each layer holds 1/4 of the keys
			seq++
			e.Apply(fmt.Sprintf("user%08d", i), Cell{
				Version: Version{Timestamp: time.Duration(seq), Seq: seq},
				Value:   make([]byte, 128),
			})
		}
		if r < 3 {
			e.Flush() // three sealed runs; the last stripe stays in the memtable
		}
	}
	keys := make([]string, records)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%08d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.Get(keys[i%records]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkSnapshotStream measures the full rejoin-streaming pipeline:
// snapshot-iterate a populated LSM engine, serialize every cell through
// the framed codec, and apply the chunks on a fresh mem engine — the
// per-cell cost of moving a replica's range during Join/Decommission.
func BenchmarkSnapshotStream(b *testing.B) {
	src := NewLSMEngine(Options{FlushLimit: 64 << 10, SyncBytes: 1 << 20, MaxRuns: 8})
	const records = 4096
	for i := 0; i < records; i++ {
		seq := uint64(i + 1)
		src.Apply(fmt.Sprintf("user%08d", i), Cell{
			Version: Version{Timestamp: time.Duration(seq), Seq: seq},
			Value:   make([]byte, 128),
		})
	}
	var chunk []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += records {
		dst := NewMemEngine(0)
		it := src.SnapshotRanges(fullRing)
		for {
			k, c, ok := it.Next()
			if !ok {
				break
			}
			chunk = EncodeCell(chunk[:0], k, c)
			if _, _, err := ApplyEncoded(dst, chunk); err != nil {
				b.Fatal(err)
			}
		}
		if dst.KeyCount() != records {
			b.Fatalf("streamed %d of %d cells", dst.KeyCount(), records)
		}
	}
}

// BenchmarkMemApply pins the volatile engine's apply path for
// comparison.
func BenchmarkMemApply(b *testing.B) {
	e := NewMemEngine(0)
	val := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i + 1)
		e.Apply(fmt.Sprintf("user%08d", i%4096), Cell{
			Version: Version{Timestamp: time.Duration(seq), Seq: seq},
			Value:   val,
		})
	}
}
