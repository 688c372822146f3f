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

// BenchmarkLSMCompact measures one size-tiered merge in the steady-state
// shape of serve-write-durable: the previous compaction's 40 000-entry
// run under three fresh 3 500-entry memtable runs that overwrite it.
func BenchmarkLSMCompact(b *testing.B) {
	const records = 40_000
	val := make([]byte, 256)
	rng := rand.New(rand.NewPCG(3, 4))
	var seq uint64
	cell := func() Cell {
		seq++
		return Cell{Version: Version{Timestamp: time.Duration(seq), Seq: seq}, Value: val}
	}
	runs := make([]run, 4)
	add := func(r *run, key string) {
		c := cell()
		r.entries = append(r.entries, runEntry{key: key, cell: c})
		r.bytes += int64(c.Size())
	}
	for i := 0; i < records; i++ {
		add(&runs[0], fmt.Sprintf("user%08d", i))
	}
	for r := 1; r < len(runs); r++ {
		picks := rng.Perm(records)[:3500]
		sort.Ints(picks) // run 0 is in key order, so index order is key order
		for _, i := range picks {
			add(&runs[r], runs[0].entries[i].key)
		}
	}
	e := NewLSMEngine(Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.runs = append(e.runs[:0], runs...) // runs are immutable: every merge reads the same input
		e.compact()
	}
	if len(e.runs) != 1 || len(e.runs[0].entries) != records {
		b.Fatalf("compaction left %d runs, %d entries", len(e.runs), len(e.runs[0].entries))
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
		if dst.Len() != records {
			b.Fatalf("streamed %d of %d cells", dst.Len(), records)
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
