package storage

import "repro/internal/ring"

// MemEngine is the volatile engine: the resident table with flush and
// size *accounting* only (nothing is written anywhere). It is the original
// engine of the store and remains the default. Crash drops every cell — a
// crashed node recovers an empty store and relies on hinted handoff and
// anti-entropy to catch back up.
type MemEngine struct {
	resident

	memBytes   int64 // bytes resident in the memtable since last flush
	flushLimit int64 // flush threshold; 0 disables flush accounting
	crashed    bool  // Crash happened; Recover has not run yet
	stats      Stats
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

// Apply merges cell into the engine under last-write-wins and reports
// whether it became the resident version.
func (e *MemEngine) Apply(key string, c Cell) bool { return e.apply(key, 0, false, c) }

// ApplyAt is Apply with the key's ring token handed down.
func (e *MemEngine) ApplyAt(key string, tok ring.Token, c Cell) bool {
	return e.apply(key, tok, true, c)
}

// apply is the one write path: one table probe, which ends at the key or
// at the empty slot a new key takes.
func (e *MemEngine) apply(key string, tok ring.Token, placed bool, c Cell) bool {
	e.stats.Writes++
	if _, _, ok := e.put(key, tok, placed, c); !ok {
		e.stats.Rejected++
		return false
	}
	e.memBytes += int64(c.Size())
	if e.flushLimit > 0 && e.memBytes >= e.flushLimit {
		e.Flush()
	}
	return true
}

// Reserve sizes the table for n more keys: a load of n records then
// grows nothing.
func (e *MemEngine) Reserve(n int) { e.cells.Reserve(n) }

// Stats reports the engine counters.
func (e *MemEngine) Stats() Stats { return e.stats }

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
	e.reset()
	e.memBytes = 0
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
