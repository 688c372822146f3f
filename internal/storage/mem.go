package storage

import (
	"repro/internal/keytab"
	"repro/internal/ring"
)

// MemEngine is the volatile engine: one dense table of cells with flush
// and size *accounting* only (nothing is written anywhere). It is the
// original engine of the store and remains the default. Crash drops every
// cell — a crashed node recovers an empty store and relies on hinted
// handoff and anti-entropy to catch back up.
//
// The table (keytab) keeps each key's cell and ring token in insertion
// order behind one open-addressed index: KeyAt is an entry, a
// range-restricted snapshot filters the entries by token, and a write is
// one probe that ends at the key or at the empty slot a new key takes.
type MemEngine struct {
	cells keytab.Table[memCell]

	memBytes   int64 // bytes resident in the memtable since last flush
	totalBytes int64 // bytes resident overall (live data size)
	flushLimit int64 // flush threshold; 0 disables flush accounting
	crashed    bool  // Crash happened; Recover has not run yet
	stats      Stats
}

// memCell is one key's resident cell and the key's ring token, learned
// when the key is inserted.
type memCell struct {
	tok  ring.Token
	cell Cell
}

// NewMemEngine returns an empty engine with the given memtable flush
// threshold (0 disables flush accounting).
func NewMemEngine(flushLimit int64) *MemEngine {
	return &MemEngine{flushLimit: flushLimit}
}

// Get returns the resident cell for key.
func (e *MemEngine) Get(key string) (Cell, bool) {
	e.stats.Reads++
	return e.Peek(key)
}

// Peek is Get without touching the read counters.
func (e *MemEngine) Peek(key string) (Cell, bool) {
	i, ok := e.cells.Find(key)
	if !ok {
		return Cell{}, false
	}
	return e.cells.Val(i).cell, true
}

// Apply merges cell into the engine under last-write-wins and reports
// whether it became the resident version.
func (e *MemEngine) Apply(key string, c Cell) bool { return e.apply(key, 0, false, c) }

// ApplyAt is Apply with the key's ring token handed down.
func (e *MemEngine) ApplyAt(key string, tok ring.Token, c Cell) bool {
	return e.apply(key, tok, true, c)
}

// apply is the one write path; tok is the key's token when placed is set
// and hashed here, on first insertion only, when it is not. A key the
// table did not hold always takes the cell.
func (e *MemEngine) apply(key string, tok ring.Token, placed bool, c Cell) bool {
	e.stats.Writes++
	i, exists := e.cells.Insert(key)
	m := e.cells.Val(i)
	if exists && !c.Version.After(m.cell.Version) {
		e.stats.Rejected++
		return false
	}
	delta := int64(c.Size())
	if exists {
		delta -= int64(m.cell.Size())
	} else {
		if !placed {
			tok = ring.KeyToken(key)
		}
		m.tok = tok
	}
	m.cell = c
	e.totalBytes += delta
	e.memBytes += int64(c.Size())
	if e.flushLimit > 0 && e.memBytes >= e.flushLimit {
		e.Flush()
	}
	return true
}

// Reserve sizes the table for n more keys: a load of n records then
// grows nothing.
func (e *MemEngine) Reserve(n int) { e.cells.Reserve(n) }

// Bytes reports the live data size in bytes.
func (e *MemEngine) Bytes() int64 { return e.totalBytes }

// Stats reports the engine counters.
func (e *MemEngine) Stats() Stats { return e.stats }

// KeyCount reports the number of keys ever inserted.
func (e *MemEngine) KeyCount() int { return e.cells.Len() }

// KeyAt returns the i-th key in insertion order.
func (e *MemEngine) KeyAt(i int) string { return e.cells.Key(i) }

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
	e.cells.Reset()
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
