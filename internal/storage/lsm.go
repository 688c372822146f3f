package storage

import (
	"sort"

	"repro/internal/ring"
)

// runEntry is one key's cell inside an immutable sorted run.
type runEntry struct {
	key  string
	cell Cell
}

// run is an immutable sorted run sealed from a memtable flush (or built
// by compaction). Runs are "on disk": they survive Crash. entries stay
// in key order for compaction's merge; point lookups go through slots, an
// open-addressed hash index built once by sealRun: slots[i] holds an
// entry index + 1, 0 marks an empty slot, and a key's home slot is its
// ring token times a 64-bit Fibonacci constant, shifted down to the
// table's bits, with linear probing past collisions. The table has a
// power-of-two slot count of at least twice the entries (load ≤ 1/2), so
// every probe ends at an empty slot. Its memory is 4 B × slots, 8–16 B
// per entry: 512 KiB for a 40 000-entry run.
type run struct {
	entries []runEntry
	slots   []int32
	shift   uint8 // 64 - log2(len(slots))
	bytes   int64
}

// fibMul spreads a token over the slot table: the top bits of the
// product are the home slot (Fibonacci hashing, 2^64 / φ).
const fibMul = 0x9E3779B97F4A7C15

// sealRun seals sorted, duplicate-free entries into a run: it sums their
// bytes and builds the hash index. Every run is built here, so no run
// without an index exists.
func sealRun(entries []runEntry) run {
	bits := uint8(1)
	for 1<<bits < 2*len(entries) {
		bits++
	}
	r := run{entries: entries, slots: make([]int32, 1<<bits), shift: 64 - bits}
	mask := len(r.slots) - 1
	for i := range entries {
		s := r.home(ring.KeyToken(entries[i].key))
		for r.slots[s] != 0 {
			s = (s + 1) & mask
		}
		r.slots[s] = int32(i + 1)
		r.bytes += int64(entries[i].cell.Size())
	}
	return r
}

// home is tok's first slot.
func (r *run) home(tok ring.Token) int { return int(uint64(tok) * fibMul >> r.shift) }

// find probes the index from tok's home slot (tok is ring.KeyToken(key))
// until it reaches key, a hit only on full-key equality, or an empty slot.
func (r *run) find(key string, tok ring.Token) (Cell, bool) {
	mask := len(r.slots) - 1
	for s := r.home(tok); ; s = (s + 1) & mask {
		i := r.slots[s]
		if i == 0 {
			return Cell{}, false
		}
		if ent := &r.entries[i-1]; ent.key == key {
			return ent.cell, true
		}
	}
}

// LSMEngine is the durable LSM-lite engine: an append-only WAL ahead of
// an in-memory memtable, immutable sorted runs sealed by flushes, and
// size-tiered compaction merging runs once enough accumulate.
//
// Reads merge across the memtable and the runs newest-first. Because
// Apply enforces last-write-wins against the resident version before
// admitting a cell, a memtable entry always supersedes every run entry
// for its key, and a newer run's entry always supersedes an older run's —
// so the first hit in memtable → newest run → ... → oldest run order is
// the resident cell.
//
// Crash drops the memtable and the un-fsynced WAL tail; the runs and the
// fsynced WAL prefix survive. Recover reloads the runs and replays that
// prefix, stopping at the first torn or corrupt record (consistent-prefix
// recovery); whatever was lost past the durability point comes back via
// hinted handoff and anti-entropy, exactly like a lagging replica.
//
// Tombstones flow through WAL, memtable, runs and compaction like any
// other cell: compaction keeps them even when they win (no GC grace
// tracking here), so a late out-of-order write older than the deletion
// still loses — the property that keeps replica application commutative.
type LSMEngine struct {
	opts Options
	wal  walog
	mem  map[string]Cell
	runs []run // oldest first
	keys keyIndex

	memBytes    int64
	totalBytes  int64
	pendingRecs uint64 // records appended since the last sync
	replaying   bool   // Recover replay in flight: skip re-counting writes
	crashed     bool   // Crash happened; Recover has not run yet
	scratch     []byte // record-encode buffer, reused across appends
	stats       Stats
}

// NewLSMEngine builds an LSM engine from opts. A file-backed WAL is used
// when opts.Path is set (panics on I/O errors: storage engines run under
// deterministic drivers with no error channel, and a broken WAL file is
// fatal to the node anyway).
func NewLSMEngine(opts Options) *LSMEngine {
	if opts.MaxRuns <= 0 {
		opts.MaxRuns = 4
	}
	e := &LSMEngine{opts: opts, mem: make(map[string]Cell)}
	if opts.Path != "" {
		w, err := newFileWAL(opts.Path)
		if err != nil {
			panic(err.Error())
		}
		e.wal = w
	} else {
		e.wal = &memWAL{}
	}
	return e
}

// Get returns the resident cell for key via merge-read.
func (e *LSMEngine) Get(key string) (Cell, bool) {
	e.stats.Reads++
	return e.Peek(key)
}

// Peek is Get without touching the read counters. A memtable hit, or a
// miss with no runs below it, never hashes the key.
func (e *LSMEngine) Peek(key string) (Cell, bool) {
	if c, ok := e.mem[key]; ok || len(e.runs) == 0 {
		return c, ok
	}
	return e.lookup(key, ring.KeyToken(key))
}

// lookup is the merge-read below the memtable: the newest run holding key
// has its resident cell. tok is ring.KeyToken(key), hashed once by the
// caller for every run's index.
func (e *LSMEngine) lookup(key string, tok ring.Token) (Cell, bool) {
	for i := len(e.runs) - 1; i >= 0; i-- {
		if c, ok := e.runs[i].find(key, tok); ok {
			return c, true
		}
	}
	return Cell{}, false
}

// Apply merges cell into the engine under last-write-wins: the accepted
// cell is WAL-logged before it lands in the memtable.
func (e *LSMEngine) Apply(key string, c Cell) bool { return e.apply(key, 0, false, c) }

// ApplyAt is Apply with the key's ring token handed down.
func (e *LSMEngine) ApplyAt(key string, tok ring.Token, c Cell) bool {
	return e.apply(key, tok, true, c)
}

// apply is the one write path; tok is the key's token when placed is set
// and hashed here, at most once, when the runs must be probed or the key
// is new.
func (e *LSMEngine) apply(key string, tok ring.Token, placed bool, c Cell) bool {
	if !e.replaying {
		e.stats.Writes++
	}
	old, inMem := e.mem[key]
	exists := inMem
	if !inMem && len(e.runs) > 0 {
		if !placed {
			tok, placed = ring.KeyToken(key), true
		}
		old, exists = e.lookup(key, tok)
	}
	if exists && !c.Version.After(old.Version) {
		if !e.replaying {
			e.stats.Rejected++
		}
		return false
	}
	e.logRecord(key, c)
	e.mem[key] = c
	if !exists {
		if !placed {
			tok = ring.KeyToken(key)
		}
		e.keys.add(key, tok)
	}
	delta := int64(c.Size())
	if exists {
		delta -= int64(old.Size())
	}
	e.totalBytes += delta
	if inMem {
		e.memBytes += delta
	} else {
		e.memBytes += int64(c.Size())
	}
	if e.opts.FlushLimit > 0 && e.memBytes >= e.opts.FlushLimit {
		e.Flush()
	}
	return true
}

// logRecord appends the cell to the WAL and syncs per the cadence. The
// encode buffer is engine-owned scratch (both logs copy the record out
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

// Reserve sizes the key index for n more keys. The memtable is bounded
// by FlushLimit and keeps its buckets across flushes, so it is sized only
// when it never flushes and is still empty.
func (e *LSMEngine) Reserve(n int) {
	e.keys.reserve(n)
	if e.opts.FlushLimit <= 0 && len(e.mem) == 0 {
		e.mem = make(map[string]Cell, n)
	}
}

// Delete applies a tombstone with the given version.
func (e *LSMEngine) Delete(key string, v Version) bool {
	return e.Apply(key, Cell{Version: v, Tombstone: true})
}

// Len reports the number of resident keys (tombstones included).
func (e *LSMEngine) Len() int { return e.keys.count() }

// Bytes reports the live (resident) data size in bytes.
func (e *LSMEngine) Bytes() int64 { return e.totalBytes }

// Stats reports the engine counters plus the current run shape.
func (e *LSMEngine) Stats() Stats {
	s := e.stats
	s.Runs = len(e.runs)
	for i := range e.runs {
		s.RunEntries += len(e.runs[i].entries)
	}
	return s
}

// KeyCount reports the number of distinct keys resident.
func (e *LSMEngine) KeyCount() int { return e.keys.count() }

// KeyAt returns the i-th key in insertion order (post-recovery the order
// is rebuild order: run entries oldest-run-first, then WAL replay).
func (e *LSMEngine) KeyAt(i int) string { return e.keys.at(i) }

// Keys returns all resident keys in sorted order. Callers must not
// mutate the returned slice.
func (e *LSMEngine) Keys() []string { return e.keys.sortedKeys() }

// Scan visits resident cells with from <= key < to in sorted order,
// merge-reading each key (tombstones included).
func (e *LSMEngine) Scan(from, to string, fn func(key string, c Cell) bool) {
	scanSorted(e.keys.sortedKeys(), from, to, e.Peek, fn)
}

// Range calls fn for every resident cell in unspecified order until fn
// returns false.
func (e *LSMEngine) Range(fn func(key string, c Cell) bool) {
	for _, k := range e.keys.list {
		c, ok := e.Peek(k)
		if !ok {
			continue
		}
		if !fn(k, c) {
			return
		}
	}
}

// Flush seals the memtable into an immutable sorted run, rewinds the
// WAL (the run is durable now) and triggers size-tiered compaction when
// enough runs piled up.
func (e *LSMEngine) Flush() {
	if len(e.mem) == 0 {
		return
	}
	keys := make([]string, 0, len(e.mem))
	for k := range e.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	entries := make([]runEntry, 0, len(keys))
	for _, k := range keys {
		entries = append(entries, runEntry{key: k, cell: e.mem[k]})
	}
	e.runs = append(e.runs, sealRun(entries))
	e.stats.Flushes++
	e.stats.FlushedBytes += uint64(e.memBytes)
	clear(e.mem)
	e.memBytes = 0
	e.wal.reset()
	e.pendingRecs = 0
	if len(e.runs) >= e.opts.MaxRuns {
		e.compact()
	}
}

// compact merges every run into one, keeping only the newest version per
// key (size-tiered full merge — one tier, sized for this repo).
// Tombstones survive the merge when they win; see the type comment.
func (e *LSMEngine) compact() {
	if len(e.runs) <= 1 {
		return
	}
	var inBytes int64
	for i := range e.runs {
		inBytes += e.runs[i].bytes
	}
	merged := mergeRuns(e.runs)
	e.runs = e.runs[:0]
	e.runs = append(e.runs, merged)
	e.stats.Compactions++
	e.stats.CompactedBytes += uint64(inBytes)
}

// mergeRuns k-way merges sorted runs (oldest first) into one run holding
// the winning cell per key: among entries of one key a later run's cell
// replaces an earlier one's only when its version is strictly After. The
// runs are few (MaxRuns), so each step scans the run heads linearly
// rather than keeping a heap.
func mergeRuns(runs []run) run {
	total := 0
	for i := range runs {
		total += len(runs[i].entries)
	}
	merged := make([]runEntry, 0, total)
	pos := make([]int, len(runs))
	for {
		// The smallest head key; on a tie the oldest run holds it first.
		first := -1
		for i := range runs {
			if pos[i] == len(runs[i].entries) {
				continue
			}
			if first < 0 || runs[i].entries[pos[i]].key < runs[first].entries[pos[first]].key {
				first = i
			}
		}
		if first < 0 {
			return sealRun(merged)
		}
		win := runs[first].entries[pos[first]]
		pos[first]++
		for i := first + 1; i < len(runs); i++ {
			if pos[i] == len(runs[i].entries) {
				continue
			}
			if ent := &runs[i].entries[pos[i]]; ent.key == win.key {
				if ent.cell.Version.After(win.cell.Version) {
					win.cell = ent.cell
				}
				pos[i]++
			}
		}
		merged = append(merged, win)
	}
}

// Crash kills the process: the memtable and the un-fsynced WAL tail are
// lost; the sorted runs and the fsynced WAL prefix survive. The engine
// is unusable until Recover.
func (e *LSMEngine) Crash() {
	e.crashed = true
	e.stats.Crashes++
	e.stats.LostRecords += e.pendingRecs
	e.pendingRecs = 0
	e.wal.crash()
	e.mem = make(map[string]Cell)
	e.memBytes, e.totalBytes = 0, 0
	e.keys.reset()
}

// Recover rebuilds the engine from durable state: the key index and size
// accounting are recomputed from the runs, then the durable WAL prefix is
// replayed record by record into a fresh memtable/WAL, stopping at the
// first torn or corrupt record. Replayed mutations go through the normal
// Apply path (minus the operation counters), so they are re-logged and
// re-synced — the recovered state is durable again when Recover returns.
// Recover is only meaningful after Crash; on a running engine it is a
// no-op (re-running it would duplicate the key index and discard the
// durable WAL).
func (e *LSMEngine) Recover() RecoverStats {
	if !e.crashed {
		return RecoverStats{}
	}
	e.crashed = false
	e.stats.Replays++
	rs := RecoverStats{RunsLoaded: len(e.runs)}

	// Rebuild index and accounting from the runs (oldest first: the
	// resident winner per key is the newest run's entry).
	winners := make(map[string]Cell)
	for i := range e.runs {
		rs.RunEntries += len(e.runs[i].entries)
		for _, ent := range e.runs[i].entries {
			if old, ok := winners[ent.key]; !ok {
				e.keys.add(ent.key, ring.KeyToken(ent.key))
				winners[ent.key] = ent.cell
			} else if ent.cell.Version.After(old.Version) {
				winners[ent.key] = ent.cell
			}
		}
	}
	for _, c := range winners {
		e.totalBytes += int64(c.Size())
	}

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
	rs.Keys = e.keys.count()
	return rs
}

// Close releases the WAL file (no-op for the in-memory log).
func (e *LSMEngine) Close() error { return e.wal.close() }
