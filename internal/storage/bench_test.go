package storage

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"slices"
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
// the segment rewind per flush and of the compactions the flushes trigger.
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

// durableRuns builds, in one engine, the runs a serve-write-durable
// replica holds just before a compaction: a 40 000-entry run under three
// fresh 3 500-entry memtable runs that overwrite it, 256 B values, each
// run in write order. seq is the last version stamped.
func durableRuns() (e *LSMEngine, seq uint64) {
	const records = 40_000
	e = NewLSMEngine(Options{SyncBytes: 1 << 30, MaxRuns: 8})
	val := make([]byte, 256)
	rng := rand.New(rand.NewPCG(3, 4))
	apply := func(i int) {
		seq++
		e.Apply(fmt.Sprintf("user%08d", i), Cell{Version: Version{Timestamp: time.Duration(seq), Seq: seq}, Value: val})
	}
	for i := range records {
		apply(i)
	}
	e.Flush()
	for range 3 {
		for _, i := range rng.Perm(records)[:3500] {
			apply(i)
		}
		e.Flush()
	}
	return e, seq
}

// BenchmarkLSMCompact measures one full merge of durableRuns, the merge
// the space bound triggers.
func BenchmarkLSMCompact(b *testing.B) {
	e, _ := durableRuns()
	runs := slices.Clone(e.runs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.runs = append(e.runs[:0], runs...) // runs are immutable: every merge reads the same input
		e.compact(len(e.runs))
	}
	if len(e.runs) != 1 || len(e.runs[0].entries) != len(runs[0].entries) {
		b.Fatalf("compaction left %d runs, %d entries", len(e.runs), len(e.runs[0].entries))
	}
}

// BenchmarkLSMFlush measures one flush of a 1 MiB memtable of 256 B
// cells over a 40 000-key resident set, serve-write-durable's replica
// shape: the memtable's cells copied out into a run. The runs stay
// under the space bound and MaxRuns, so no flush compacts.
func BenchmarkLSMFlush(b *testing.B) {
	const records = 40_000
	e := NewLSMEngine(Options{SyncBytes: 1 << 30, MaxRuns: 64})
	val := make([]byte, 256)
	rng := rand.New(rand.NewPCG(7, 8))
	var seq uint64
	apply := func(i int) {
		seq++
		e.Apply(fmt.Sprintf("user%08d", i), Cell{Version: Version{Timestamp: time.Duration(seq), Seq: seq}, Value: val})
	}
	for i := range records {
		apply(i)
	}
	e.Flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e.runs = e.runs[:1]
		for e.memBytes < 1<<20 {
			apply(rng.IntN(records))
		}
		b.StartTimer()
		e.Flush()
	}
	b.StopTimer()
	if st := e.Stats(); st.Compactions != 0 || st.Runs != 2 {
		b.Fatalf("flush left %d runs after %d compactions", st.Runs, st.Compactions)
	}
}

// BenchmarkLSMGet measures Get at serve-write-durable's steady shape:
// durableRuns under a memtable half way to its flush (1 750 overwrites).
// hit-oldest reads keys whose resident cell the oldest run holds,
// hit-newest keys whose resident cell the newest run holds, miss keys of
// the same length that no layer holds. Each is one probe of the resident
// table; no read touches a run.
func BenchmarkLSMGet(b *testing.B) {
	e, seq := durableRuns()
	runs := e.runs
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
