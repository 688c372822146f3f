package storage

import "repro/internal/ring"

// MemEngine is the volatile map engine: cells live in a flat map with
// flush and size *accounting* only (nothing is written anywhere). It is
// the original engine of the store and remains the default. Crash drops
// every cell — a crashed node recovers an empty store and relies on
// hinted handoff and anti-entropy to catch back up.
type MemEngine struct {
	cells map[string]Cell
	keys  keyIndex

	memBytes   int64 // bytes resident in the memtable since last flush
	totalBytes int64 // bytes resident overall (live data size)
	flushLimit int64 // flush threshold; 0 disables flush accounting
	crashed    bool  // Crash happened; Recover has not run yet
	stats      Stats
}

// NewMemEngine returns an empty engine with the given memtable flush
// threshold (0 disables flush accounting).
func NewMemEngine(flushLimit int64) *MemEngine {
	return &MemEngine{cells: make(map[string]Cell), flushLimit: flushLimit}
}

// Get returns the resident cell for key.
func (e *MemEngine) Get(key string) (Cell, bool) {
	e.stats.Reads++
	c, ok := e.cells[key]
	return c, ok
}

// Peek is Get without touching the read counters.
func (e *MemEngine) Peek(key string) (Cell, bool) {
	c, ok := e.cells[key]
	return c, ok
}

// Apply merges cell into the engine under last-write-wins and reports
// whether it became the resident version.
func (e *MemEngine) Apply(key string, c Cell) bool { return e.apply(key, 0, false, c) }

// ApplyAt is Apply with the key's ring token handed down.
func (e *MemEngine) ApplyAt(key string, tok ring.Token, c Cell) bool {
	return e.apply(key, tok, true, c)
}

// apply is the one write path; tok is the key's token when placed is set
// and hashed here, on first insertion only, when it is not.
func (e *MemEngine) apply(key string, tok ring.Token, placed bool, c Cell) bool {
	e.stats.Writes++
	old, exists := e.cells[key]
	if exists && !c.Version.After(old.Version) {
		e.stats.Rejected++
		return false
	}
	if !exists {
		if !placed {
			tok = ring.KeyToken(key)
		}
		e.keys.add(key, tok)
	}
	e.cells[key] = c
	delta := int64(c.Size())
	if exists {
		delta -= int64(old.Size())
	}
	e.totalBytes += delta
	e.memBytes += int64(c.Size())
	if e.flushLimit > 0 && e.memBytes >= e.flushLimit {
		e.Flush()
	}
	return true
}

// Reserve sizes the key index for n more keys and, while the engine is
// still empty, the cell map too: a load of n records then grows nothing.
func (e *MemEngine) Reserve(n int) {
	e.keys.reserve(n)
	if len(e.cells) == 0 {
		e.cells = make(map[string]Cell, n)
	}
}

// Delete applies a tombstone with the given version.
func (e *MemEngine) Delete(key string, v Version) bool {
	return e.Apply(key, Cell{Version: v, Tombstone: true})
}

// Len reports the number of resident keys (tombstones included).
func (e *MemEngine) Len() int { return len(e.cells) }

// Bytes reports the live data size in bytes.
func (e *MemEngine) Bytes() int64 { return e.totalBytes }

// Stats reports the engine counters.
func (e *MemEngine) Stats() Stats { return e.stats }

// KeyCount reports the number of keys ever inserted.
func (e *MemEngine) KeyCount() int { return e.keys.count() }

// KeyAt returns the i-th key in insertion order.
func (e *MemEngine) KeyAt(i int) string { return e.keys.at(i) }

// Keys returns all resident keys in sorted order; used by tests and
// full-scan anti-entropy on small stores. Callers must not mutate the
// returned slice.
func (e *MemEngine) Keys() []string { return e.keys.sortedKeys() }

// Scan visits resident cells with from <= key < to in sorted order.
func (e *MemEngine) Scan(from, to string, fn func(key string, c Cell) bool) {
	scanSorted(e.keys.sortedKeys(), from, to, e.Peek, fn)
}

// Range calls fn for every key in unspecified order until fn returns
// false. Mutating the engine during Range is not allowed.
func (e *MemEngine) Range(fn func(key string, c Cell) bool) {
	for k, c := range e.cells {
		if !fn(k, c) {
			return
		}
	}
}

// Flush accounts one memtable flush (no data moves anywhere).
func (e *MemEngine) Flush() {
	if e.memBytes == 0 {
		return
	}
	e.stats.Flushes++
	e.stats.FlushedBytes += uint64(e.memBytes)
	e.memBytes = 0
}

// Crash drops every cell: nothing in this engine is durable. Counters
// survive (they are metering infrastructure, not process state).
func (e *MemEngine) Crash() {
	e.crashed = true
	e.stats.Crashes++
	e.cells = make(map[string]Cell)
	e.keys.reset()
	e.memBytes, e.totalBytes = 0, 0
}

// Recover starts empty — there is no durable state to rebuild. The node
// catches up through hinted handoff and anti-entropy. Like the LSM
// engine, Recover without a preceding Crash is a no-op.
func (e *MemEngine) Recover() RecoverStats {
	if !e.crashed {
		return RecoverStats{}
	}
	e.crashed = false
	e.stats.Replays++
	return RecoverStats{}
}

// Close releases nothing: the engine holds no external resources.
func (e *MemEngine) Close() error { return nil }
