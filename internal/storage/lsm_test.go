package storage

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"path/filepath"
	"slices"
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
	var seq uint64
	fill(e, 8, &seq) // live filler keys keep the runs under the space bound
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
	want := int64(c.Size())
	for i := 0; i < 8; i++ {
		f, _ := e.Peek(fmt.Sprintf("k%03d", i))
		want += int64(f.Size())
	}
	if e.Bytes() != want {
		t.Fatalf("Bytes() = %d, want resident size %d", e.Bytes(), want)
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

// runShapeErr checks the bounds flushes and compaction keep after every
// flush. Space: the runs hold under twice the live bytes, or they are one
// run, and no run's entries carry spare capacity. Count: at most
// 1 + (MaxRuns-1)·(1+⌊log_MaxRuns Flushes⌋) runs, the oldest run (which a
// full merge may have built) plus fewer than MaxRuns in each tier the
// flushes can have filled.
func runShapeErr(e *LSMEngine) error {
	st := e.Stats()
	var runBytes int64
	for i := range e.runs {
		runBytes += e.runs[i].bytes
		if ents := e.runs[i].entries; cap(ents) != len(ents) {
			return fmt.Errorf("run %d holds %d entries in a capacity of %d", i, len(ents), cap(ents))
		}
	}
	if st.Runs > 1 && runBytes >= 2*e.Bytes() {
		return fmt.Errorf("%d runs hold %d bytes against %d live", st.Runs, runBytes, e.Bytes())
	}
	k := e.opts.MaxRuns
	if bound := 1 + (k-1)*tiers(k, st.Flushes); st.Runs > bound {
		return fmt.Errorf("%d runs after %d flushes, bound %d", st.Runs, st.Flushes, bound)
	}
	return nil
}

// tiers is how many tiers that many flushes can fill at fan-in k,
// 1+⌊log_k flushes⌋.
func tiers(k int, flushes uint64) int {
	n := 1
	for f := uint64(k); f <= flushes; f *= uint64(k) {
		n++
	}
	return n
}

// TestLSMWriteAmplification drives serve-write-durable's shape scaled
// down (a live set about ten memtables, 256 B values, default MaxRuns)
// with two streams, uniform overwrites and inserts only, checking
// runShapeErr (spare run capacity included) after every flush and
// bounding the bytes compaction rewrites per flushed byte. Under
// overwrites the bound is 3; merging all runs whenever MaxRuns of them
// exist rewrites the whole live set every third flush, over 4. An
// inserted byte is rewritten once per tier it climbs, so under inserts
// the bound is the tiers above tier 0. Read, write and space cost trade
// against each other, so the test logs all three.
func TestLSMWriteAmplification(t *testing.T) {
	const flushLimit, keys = 64 << 10, 2400
	val := make([]byte, 256)
	for _, tc := range []struct {
		name   string
		key    func(i int, rng *rand.Rand) int
		ops    int
		maxAmp func(flushes uint64) float64
	}{
		{"overwrite", func(i int, rng *rand.Rand) int { return rng.IntN(keys) }, 100_000,
			func(uint64) float64 { return 3 }},
		{"insert", func(i int, _ *rand.Rand) int { return keys + i }, 40_000,
			func(flushes uint64) float64 { return float64(tiers(4, flushes) - 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewLSMEngine(Options{FlushLimit: flushLimit})
			rng := rand.New(rand.NewPCG(1, 2))
			var seq uint64
			apply := func(k int) {
				seq++
				flushes := e.stats.Flushes
				e.Apply(fmt.Sprintf("user%08d", k), Cell{Version: Version{Timestamp: time.Duration(seq), Seq: seq}, Value: val})
				if e.stats.Flushes != flushes {
					if err := runShapeErr(e); err != nil {
						t.Fatalf("op %d: %v", seq, err)
					}
				}
			}
			for k := range keys {
				apply(k)
			}
			base := e.Stats()
			maxSpace := 0.0
			for i := range tc.ops {
				apply(tc.key(i, rng))
				var runBytes int64
				for j := range e.runs {
					runBytes += e.runs[j].bytes
				}
				maxSpace = max(maxSpace, float64(runBytes)/float64(e.Bytes()))
			}
			st := e.Stats()
			writeAmp := float64(st.CompactedBytes-base.CompactedBytes) / float64(st.FlushedBytes-base.FlushedBytes)
			t.Logf("read: 0 run probes per Get; write: %.2f compacted B per flushed B over %d flushes, %d compactions; space: runs at most %.2f× live, %d runs at the end",
				writeAmp, st.Flushes-base.Flushes, st.Compactions-base.Compactions, maxSpace, st.Runs)
			if bound := tc.maxAmp(st.Flushes); writeAmp > bound {
				t.Fatalf("compaction rewrote %.2f bytes per flushed byte, bound %.0f", writeAmp, bound)
			}
		})
	}
}

// lsmState is what the LSM model keeps of one moment: the resident cells
// and byte total, the memtable's keys and bytes, and the WAL's keys in
// log order, appends, bytes and syncs since the last flush.
type lsmState struct {
	cells                       map[string]Cell
	total                       int64
	mem                         map[string]bool
	memBytes                    int64
	walKeys                     []string
	walRecs, walBytes, walSyncs uint64
}

func (s lsmState) clone() lsmState {
	s.cells, s.mem, s.walKeys = maps.Clone(s.cells), maps.Clone(s.mem), slices.Clone(s.walKeys)
	return s
}

// lsmRun is one run of the model: its cells and its tier.
type lsmRun struct {
	cells map[string]Cell
	tier  int
}

// lsmModel is the LSM engine as Go maps: the live state, the runs (one
// map each, oldest first) and the durable state — the state at the last
// sync or flush, which Crash + Recover must bring back.
type lsmModel struct {
	opts    Options
	live    lsmState
	durable lsmState
	order   []string
	runs    []lsmRun // oldest first
	stats   Stats

	pendingRecs uint64
	unsynced    int64 // bytes appended since the last sync
	crashed     bool
}

func newLSMModel(opts Options) *lsmModel {
	m := &lsmModel{opts: opts}
	m.live = lsmState{cells: map[string]Cell{}, mem: map[string]bool{}}
	m.durable = m.live.clone()
	return m
}

func (m *lsmModel) apply(key string, c Cell) bool {
	m.stats.Writes++
	s := &m.live
	old, ok := s.cells[key]
	if ok && !c.Version.After(old.Version) {
		m.stats.Rejected++
		return false
	}
	if !ok {
		m.order = append(m.order, key)
	}
	delta := int64(c.Size())
	if ok {
		delta -= int64(old.Size())
	}
	s.cells[key] = c
	s.total += delta
	if s.mem[key] {
		s.memBytes += delta
	} else {
		s.mem[key] = true
		s.memBytes += int64(c.Size())
	}
	n := uint64(len(appendWALRecord(nil, key, c)))
	m.stats.WALAppends++
	m.stats.WALBytes += n
	s.walKeys = append(s.walKeys, key)
	s.walRecs++
	s.walBytes += n
	m.pendingRecs++
	m.unsynced += int64(n)
	if m.opts.SyncBytes <= 0 || m.unsynced >= m.opts.SyncBytes {
		m.stats.WALSyncs++
		s.walSyncs++
		m.pendingRecs, m.unsynced = 0, 0
		m.durable = s.clone()
	}
	if m.opts.FlushLimit > 0 && s.memBytes >= m.opts.FlushLimit {
		m.flush()
	}
	return true
}

func (m *lsmModel) flush() {
	s := &m.live
	if len(s.mem) == 0 {
		return
	}
	r := lsmRun{cells: map[string]Cell{}}
	for k := range s.mem {
		r.cells[k] = s.cells[k]
	}
	m.runs = append(m.runs, r)
	m.stats.Flushes++
	m.stats.FlushedBytes += uint64(s.memBytes)
	s.mem, s.memBytes = map[string]bool{}, 0
	s.walKeys, s.walRecs, s.walBytes, s.walSyncs = nil, 0, 0, 0
	m.pendingRecs, m.unsynced = 0, 0
	m.durable = s.clone()
	m.compact()
	m.stats.Runs, m.stats.RunEntries = len(m.runs), 0
	for _, r := range m.runs {
		m.stats.RunEntries += len(r.cells)
	}
}

// compact is the engine's policy restated: every run into one once the
// runs hold twice the live bytes, else the newest MaxRuns (0 means 4, at
// least 2) into one run a tier up for as long as all of them share a
// tier.
func (m *lsmModel) compact() {
	var runBytes int64
	for _, r := range m.runs {
		for _, c := range r.cells {
			runBytes += int64(c.Size())
		}
	}
	if len(m.runs) > 1 && runBytes >= 2*m.live.total {
		m.merge(len(m.runs))
	}
	fanIn := m.opts.MaxRuns
	if fanIn <= 0 {
		fanIn = 4
	}
	fanIn = max(fanIn, 2)
	for len(m.runs) >= fanIn {
		newest := m.runs[len(m.runs)-fanIn:]
		for _, r := range newest {
			if r.tier != newest[0].tier {
				return
			}
		}
		m.merge(fanIn)
	}
}

// merge replaces the newest n runs by one holding each key's newest
// cell, a tier above the highest of them.
func (m *lsmModel) merge(n int) {
	merged := lsmRun{cells: map[string]Cell{}}
	for _, r := range m.runs[len(m.runs)-n:] {
		merged.tier = max(merged.tier, r.tier+1)
		for k, c := range r.cells {
			m.stats.CompactedBytes += uint64(c.Size())
			if old, ok := merged.cells[k]; !ok || c.Version.After(old.Version) {
				merged.cells[k] = c
			}
		}
	}
	m.runs = append(m.runs[:len(m.runs)-n], merged)
	m.stats.Compactions++
}

// recoveryOrder is the key order Recover rebuilds: each key where it
// first appears among the runs, oldest first and each in key order, then
// among the WAL's keys in log order.
func recoveryOrder(runs []lsmRun, walKeys []string) []string {
	var order []string
	seen := map[string]bool{}
	add := func(keys []string) {
		for _, k := range keys {
			if !seen[k] {
				seen[k] = true
				order = append(order, k)
			}
		}
	}
	for _, r := range runs {
		keys := make([]string, 0, len(r.cells))
		for k := range r.cells {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		add(keys)
	}
	add(walKeys)
	return order
}

func (m *lsmModel) crash() {
	m.stats.Crashes++
	m.stats.LostRecords += m.pendingRecs
	m.pendingRecs, m.unsynced = 0, 0
	m.live = lsmState{cells: map[string]Cell{}, mem: map[string]bool{}}
	m.order = nil
	m.crashed = true
}

// FuzzLSMEngine drives LSMEngine and lsmModel with the same calls. The
// first two bytes set the options: a flush limit of up to 255 bytes (0
// disables it), MaxRuns 0–4 and a sync cadence of 0, 50, 100 or 150 bytes.
// Each later byte picks Apply, ApplyAt, Get, Flush, Reserve, Crash,
// Recover or SnapshotRanges and the bytes after it the arguments: one of
// 24 keys and a version whose timestamp and sequence collide often, so
// replacements, refusals, equal versions and tombstones all occur. After
// every call the results, every key's cell, KeyAt order, Stats and Bytes
// must match the model and the resident table's index invariants must
// hold; after every flush the runs must keep runShapeErr's space and
// count bounds; a Recover after Crash must bring back exactly the model's
// durable state, the state at the last sync or flush, in the key order
// the model computes (recoveryOrder).
func FuzzLSMEngine(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 3, 0, 1, 1, 2, 2, 3, 1, 5, 6, 2, 1, 3, 0, 1})
	f.Add([]byte{90, 8, 0, 3, 40, 0, 5, 9, 9, 2, 5, 1, 1, 5, 3, 6, 0, 5, 2, 2, 3, 3, 3, 5, 6})
	f.Add([]byte{200, 17, 0, 0, 1, 1, 1, 0, 2, 1, 1, 4, 7, 3, 9, 0, 3, 2, 2, 1, 9, 9, 9, 5, 6, 1, 3, 4, 5, 6})
	f.Add([]byte{60, 11, 0, 0, 0, 1, 7, 0, 2, 12, 1, 3, 17, 5, 6, 0, 4, 9, 3, 5, 6, 7, 1, 2})
	f.Add([]byte("00010000000%&")) // a run flushed out of key order, then Crash and Recover
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%02d", i)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		opts := Options{FlushLimit: int64(data[0]), MaxRuns: int(data[1] % 5), SyncBytes: int64(data[1]/5%4) * 50}
		data = data[2:]
		e := NewLSMEngine(opts)
		m := newLSMModel(opts)
		arg := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		same := func(a, b Cell) bool { return fmt.Sprint(a) == fmt.Sprint(b) }
		for step := 0; len(data) > 0; step++ {
			flushes := m.stats.Flushes
			op := arg() % 8
			if m.crashed && op != 5 && op != 6 {
				continue // the engine is unusable until Recover
			}
			switch op {
			case 0, 1, 2:
				key, b := keys[arg()%len(keys)], arg()
				c := Cell{Version: Version{Timestamp: time.Duration(b % 8), Seq: uint64(b / 8 % 4)}, Value: []byte(key[:b%6])}
				if b%7 == 0 {
					c.Value, c.Tombstone = nil, true
				}
				var got bool
				if op == 2 {
					got = e.ApplyAt(key, ring.KeyToken(key), c)
				} else {
					got = e.Apply(key, c)
				}
				if want := m.apply(key, c); got != want {
					t.Fatalf("step %d: apply(%s, %v) = %v, want %v", step, key, c.Version, got, want)
				}
			case 3:
				key := keys[arg()%len(keys)]
				c, ok := e.Get(key)
				m.stats.Reads++
				if w, wok := m.live.cells[key]; ok != wok || !same(c, w) {
					t.Fatalf("step %d: Get(%s) = %v %v, want %v %v", step, key, c, ok, w, wok)
				}
			case 4:
				if arg()%2 == 0 {
					e.Flush()
					m.flush()
				} else {
					e.Reserve(arg())
				}
			case 5:
				e.Crash()
				m.crash()
			case 6:
				rs := e.Recover()
				if !m.crashed {
					if rs != (RecoverStats{}) {
						t.Fatalf("step %d: Recover on a running engine = %+v", step, rs)
					}
					break
				}
				d := m.durable
				want := RecoverStats{RunsLoaded: len(m.runs), RunEntries: m.stats.RunEntries,
					WALRecords: d.walRecs, WALBytes: d.walBytes, Keys: len(d.cells)}
				if rs != want {
					t.Fatalf("step %d: Recover = %+v, want %+v", step, rs, want)
				}
				m.crashed = false
				m.stats.Replays++
				m.stats.WALAppends += d.walRecs
				m.stats.WALBytes += d.walBytes
				m.stats.WALSyncs += d.walSyncs
				m.live = d.clone()
				m.order = recoveryOrder(m.runs, d.walKeys)
				if len(m.order) != len(d.cells) {
					t.Fatalf("step %d: recovered %d keys, want %d", step, len(m.order), len(d.cells))
				}
			case 7:
				lo, hi := ring.KeyToken(keys[arg()%len(keys)]), ring.KeyToken(keys[arg()%len(keys)])
				ranges := []ring.Range{{Start: lo, End: hi}}
				if lo == hi {
					ranges = nil
				}
				it := e.SnapshotRanges(ranges)
				m.flush()
				var want []string
				for k := range m.live.cells {
					if ring.RangesContain(ranges, ring.KeyToken(k)) {
						want = append(want, k)
					}
				}
				slices.Sort(want)
				for _, k := range want {
					gk, gc, ok := it.Next()
					if !ok || gk != k || !same(gc, m.live.cells[k]) {
						t.Fatalf("step %d: snapshot streamed %q %v %v, want %q %v", step, gk, gc, ok, k, m.live.cells[k])
					}
				}
				if gk, _, ok := it.Next(); ok {
					t.Fatalf("step %d: snapshot streamed extra key %q", step, gk)
				}
			}
			if err := e.cells.Verify(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if m.stats.Flushes != flushes {
				if err := runShapeErr(e); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			if e.Stats() != m.stats || e.Bytes() != m.live.total || e.KeyCount() != len(m.order) {
				t.Fatalf("step %d: stats %+v bytes %d keys %d, want %+v %d %d",
					step, e.Stats(), e.Bytes(), e.KeyCount(), m.stats, m.live.total, len(m.order))
			}
			for i, key := range m.order {
				if e.KeyAt(i) != key {
					t.Fatalf("step %d: KeyAt(%d) = %s, want %s", step, i, e.KeyAt(i), key)
				}
				w, wok := m.live.cells[key]
				if c, ok := e.Peek(key); !ok || !wok || !same(c, w) {
					t.Fatalf("step %d: Peek(%s) = %v %v, want %v %v", step, key, c, ok, w, wok)
				}
			}
		}
	})
}
