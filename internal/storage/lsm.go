package storage

import (
	"slices"
	"strings"

	"repro/internal/ring"
)

// runEntry is one key's cell inside an immutable run, with the key's id
// in the resident table.
type runEntry struct {
	key  string
	cell Cell
	id   int32
}

// sortEntries sorts duplicate-free entries by key.
func sortEntries(entries []runEntry) {
	slices.SortFunc(entries, func(a, b runEntry) int { return strings.Compare(a.key, b.key) })
}

// run is an immutable run sealed from a memtable flush (or built by
// compaction): its entries in write order (a merge's in the order its
// inputs first hold each key), their byte total and its tier. Runs are
// "on disk": they survive Crash. Nothing reads a run but compaction and
// Recover; the resident table answers every read.
type run struct {
	entries []runEntry
	bytes   int64
	tier    int // 0 for a flushed run; a merge's output sits one above its highest input
}

// spaceFactor bounds the runs' space amplification: once the runs hold
// this many times the live bytes, a flush merges them all.
const spaceFactor = 2

// sealRun seals duplicate-free entries into a run, summing their bytes.
func sealRun(entries []runEntry) run {
	r := run{entries: entries}
	for i := range entries {
		r.bytes += int64(entries[i].cell.Size())
	}
	return r
}

// LSMEngine is the durable LSM-lite engine: an append-only WAL ahead of
// an in-memory memtable, immutable runs sealed by flushes, and
// RocksDB's universal compaction scaled down (see Flush). No read
// touches a run, so compaction buys only space and a shorter Recover: it
// merges every run once they hold spaceFactor times the live bytes, and
// otherwise keeps the run count logarithmic in flushes by merging
// MaxRuns runs of one tier into one run of the next.
//
// Every read is one probe of the resident table the mem engine reads
// too: each key's newest cell, whichever layer holds it (Bitcask's
// keydir). The memtable is the ids of the keys written since the last
// flush, each marked in inMem; a flush copies their cells out, in that
// order and with their ids, into a run. No write compares keys: a merge
// meets a key's entries by id. Because Apply enforces last-write-wins
// against the resident cell, a newer run's entry for a key always
// supersedes an older run's.
//
// Crash drops the resident table, the memtable and the un-fsynced WAL
// tail; the runs and the fsynced WAL prefix survive. Recover rebuilds the
// table from the runs, oldest first and each sorted by key, and replays
// that prefix, stopping at the first torn or corrupt record
// (consistent-prefix recovery); whatever was lost past the durability
// point comes back via hinted handoff and anti-entropy, exactly like a
// lagging replica.
//
// Tombstones flow through WAL, memtable, runs and compaction like any
// other cell: compaction keeps them even when they win (no GC grace
// tracking here), so a late out-of-order write older than the deletion
// still loses — the property that keeps replica application commutative.
type LSMEngine struct {
	resident
	opts   Options
	wal    wal
	memIDs []int32 // the memtable: ids of the keys written since the last flush
	inMem  []bool  // inMem[id]: the memtable holds id; one mark per resident key
	runs   []run   // oldest first
	pos    []int32 // merge scratch indexed by id, all zero between merges; see mergeRuns

	memBytes    int64
	pendingRecs uint64 // records appended since the last sync
	replaying   bool   // Recover replay in flight: skip re-counting writes
	crashed     bool   // Crash happened; Recover has not run yet
	scratch     []byte // record-encode buffer, reused across appends
	stats       Stats
}

// NewLSMEngine builds an LSM engine from opts. The WAL lies in a file
// segment when opts.Path is set, in a memory one otherwise (panics on I/O
// errors: storage engines run under deterministic drivers with no error
// channel, and a broken WAL file is fatal to the node anyway).
func NewLSMEngine(opts Options) *LSMEngine {
	if opts.MaxRuns <= 0 {
		opts.MaxRuns = 4
	}
	opts.MaxRuns = max(opts.MaxRuns, 2)
	seg, err := openSegment(opts.Path)
	if err != nil {
		panic(err.Error())
	}
	return &LSMEngine{opts: opts, wal: wal{seg: seg}}
}

// Get returns the resident cell for key.
func (e *LSMEngine) Get(key string) (Cell, bool) {
	e.stats.Reads++
	return e.Peek(key)
}

// Apply merges cell into the engine under last-write-wins: the accepted
// cell is WAL-logged before it lands in the memtable.
func (e *LSMEngine) Apply(key string, c Cell) bool { return e.apply(key, 0, false, c) }

// ApplyAt is Apply with the key's ring token handed down.
func (e *LSMEngine) ApplyAt(key string, tok ring.Token, c Cell) bool {
	return e.apply(key, tok, true, c)
}

// apply is the one write path: one table probe decides last-write-wins,
// and an accepted cell is WAL-logged and joins the memtable.
func (e *LSMEngine) apply(key string, tok ring.Token, placed bool, c Cell) bool {
	if !e.replaying {
		e.stats.Writes++
	}
	id, delta, ok := e.put(key, tok, placed, c)
	if !ok {
		if !e.replaying {
			e.stats.Rejected++
		}
		return false
	}
	e.logRecord(key, c)
	if id == len(e.inMem) { // a new key
		e.inMem = append(e.inMem, false)
	}
	if e.inMem[id] {
		e.memBytes += delta
	} else {
		e.inMem[id] = true
		e.memIDs = append(e.memIDs, int32(id))
		e.memBytes += int64(c.Size())
	}
	if e.opts.FlushLimit > 0 && e.memBytes >= e.opts.FlushLimit {
		e.Flush()
	}
	return true
}

// logRecord appends the cell to the WAL and syncs per the cadence. The
// encode buffer is engine-owned scratch (the log copies the record out
// before returning), so the steady-state append allocates nothing.
func (e *LSMEngine) logRecord(key string, c Cell) {
	e.scratch = appendWALRecord(e.scratch[:0], key, c)
	rec := e.scratch
	e.wal.append(rec)
	e.stats.WALAppends++
	e.stats.WALBytes += uint64(len(rec))
	e.pendingRecs++
	if e.opts.SyncBytes <= 0 || e.wal.unsynced() >= e.opts.SyncBytes {
		e.sync()
	}
}

func (e *LSMEngine) sync() {
	if e.pendingRecs == 0 {
		return
	}
	e.wal.sync()
	e.stats.WALSyncs++
	e.pendingRecs = 0
}

// Reserve sizes the resident table and its memtable marks for n more
// keys.
func (e *LSMEngine) Reserve(n int) {
	e.cells.Reserve(n)
	e.inMem = slices.Grow(e.inMem, n)
}

// Stats reports the engine counters plus the current run shape.
func (e *LSMEngine) Stats() Stats {
	s := e.stats
	s.Runs = len(e.runs)
	for i := range e.runs {
		s.RunEntries += len(e.runs[i].entries)
	}
	return s
}

// Flush seals the memtable into an immutable run of tier 0,
// rewinds the WAL (the run is durable now) and compacts: every run into
// one once they hold spaceFactor times the live bytes, else the newest
// MaxRuns runs into one of the next tier for as long as they share a
// tier. Tiers never rise toward the newest run, so a suffix shares a
// tier when its two ends do.
func (e *LSMEngine) Flush() {
	if len(e.memIDs) == 0 {
		return
	}
	entries := make([]runEntry, len(e.memIDs))
	for i, id := range e.memIDs {
		entries[i] = runEntry{key: e.cells.Key(int(id)), cell: e.cells.Val(int(id)).cell, id: id}
		e.inMem[id] = false
	}
	e.runs = append(e.runs, sealRun(entries))
	e.stats.Flushes++
	e.stats.FlushedBytes += uint64(e.memBytes)
	e.memIDs = e.memIDs[:0]
	e.memBytes = 0
	e.wal.reset()
	e.pendingRecs = 0
	var runBytes int64
	for i := range e.runs {
		runBytes += e.runs[i].bytes
	}
	if runBytes >= spaceFactor*e.totalBytes {
		e.compact(len(e.runs))
	}
	k := e.opts.MaxRuns
	for len(e.runs) >= k && e.runs[len(e.runs)-k].tier == e.runs[len(e.runs)-1].tier {
		e.compact(k)
	}
}

// compact merges the newest n runs into one run a tier above the highest
// of them, keeping only the newest version per key. Tombstones survive
// the merge when they win; see the type comment.
func (e *LSMEngine) compact(n int) {
	if n <= 1 {
		return
	}
	in := e.runs[len(e.runs)-n:]
	var inBytes int64
	tier := 0
	for i := range in {
		inBytes += in[i].bytes
		tier = max(tier, in[i].tier)
	}
	if n := e.cells.Len(); len(e.pos) < n {
		e.pos = append(e.pos, make([]int32, n-len(e.pos))...)
	}
	merged := mergeRuns(in, e.pos)
	merged.tier = tier + 1
	e.runs = append(e.runs[:len(e.runs)-n], merged)
	e.stats.Compactions++
	e.stats.CompactedBytes += uint64(inBytes)
}

// mergeRuns merges runs (oldest first) into one run holding the winning
// cell per key, comparing no keys: entries meet by id. pos is scratch
// indexed by id, zero on entry and again on return. A counting pass marks
// every id (-1) and sizes the output exactly; then one pass, oldest run
// first, gives an id's first entry the next place in the output (pos
// holds place+1) and lets a later entry replace it only when its version
// is strictly After. Walking the output clears the marks.
func mergeRuns(runs []run, pos []int32) run {
	total := 0
	for i := range runs {
		for j := range runs[i].entries {
			if id := runs[i].entries[j].id; pos[id] == 0 {
				pos[id] = -1
				total++
			}
		}
	}
	merged := make([]runEntry, 0, total)
	for i := range runs {
		for j := range runs[i].entries {
			ent := &runs[i].entries[j]
			switch p := pos[ent.id]; {
			case p < 0:
				pos[ent.id] = int32(len(merged)) + 1
				merged = append(merged, *ent)
			case ent.cell.Version.After(merged[p-1].cell.Version):
				merged[p-1].cell = ent.cell
			}
		}
	}
	for i := range merged {
		pos[merged[i].id] = 0
	}
	return sealRun(merged)
}

// Crash kills the process: the resident table, the memtable and the
// un-fsynced WAL tail are lost; the runs and the fsynced WAL prefix
// survive. The engine is unusable until Recover.
func (e *LSMEngine) Crash() {
	e.crashed = true
	e.stats.Crashes++
	e.stats.LostRecords += e.pendingRecs
	e.pendingRecs = 0
	e.wal.crash()
	e.reset()
	e.memIDs, e.inMem = e.memIDs[:0], e.inMem[:0]
	e.memBytes = 0
}

// Recover rebuilds the engine from durable state: the runs' entries go
// into the resident table oldest run first, under last-write-wins, each
// run sorted by key first and each entry taking its key's new id. That
// sort, the only one a run sees, makes the rebuilt KeyAt order (which
// anti-entropy samples) depend on the runs' contents alone, not on the
// order flushes and merges left them in. Then the durable WAL prefix is
// replayed record by record into a fresh memtable/WAL, stopping at the
// first torn or corrupt record. Replayed mutations go through the normal
// Apply path (minus the operation counters), so they are re-logged and
// re-synced — the recovered state is durable again when Recover returns.
// Recover is only meaningful after Crash; on a running engine it is a
// no-op (re-running it would discard the durable WAL).
func (e *LSMEngine) Recover() RecoverStats {
	if !e.crashed {
		return RecoverStats{}
	}
	e.crashed = false
	e.stats.Replays++
	rs := RecoverStats{RunsLoaded: len(e.runs)}
	for i := range e.runs {
		entries := e.runs[i].entries
		rs.RunEntries += len(entries)
		sortEntries(entries)
		for j := range entries {
			id, _, _ := e.put(entries[j].key, 0, false, entries[j].cell)
			entries[j].id = int32(id)
		}
	}
	e.inMem = append(e.inMem, make([]bool, e.cells.Len())...)

	// Replay the durable WAL prefix through the normal apply path.
	log := e.wal.durable()
	e.wal.reset()
	e.pendingRecs = 0
	e.replaying = true
	off := 0
	for off < len(log) {
		key, cell, n, err := decodeWALRecord(log, off)
		if err != nil {
			// Torn or corrupt record: keep the consistent prefix.
			rs.TornTail = true
			break
		}
		e.Apply(key, cell)
		rs.WALRecords++
		rs.WALBytes += uint64(n)
		off += n
	}
	e.replaying = false
	e.sync()
	rs.Keys = e.cells.Len()
	return rs
}

// Close releases the WAL's segment (a no-op in memory).
func (e *LSMEngine) Close() error { return e.wal.seg.Close() }
