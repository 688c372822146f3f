package storage

import (
	"repro/internal/keytab"
	"repro/internal/ring"
)

// resident is the table both engines answer reads from: every resident
// key's newest cell and ring token, in first-insertion order behind one
// open-addressed index (internal/keytab), and their byte total. KeyAt is
// an entry, a range-restricted snapshot filters the entries by token, and
// a read or a write is one probe.
type resident struct {
	cells      keytab.Table[memCell]
	totalBytes int64 // bytes resident overall (live data size)
}

// memCell is one key's resident cell and the key's ring token, learned
// when the key is inserted.
type memCell struct {
	tok  ring.Token
	cell Cell
}

// put makes c key's resident cell under last-write-wins: a key the table
// holds keeps its cell unless c is strictly newer, a new key always takes
// c. tok is ring.KeyToken(key) when placed is set and is hashed here, on
// first insertion only, when it is not. put returns key's id, how much
// the resident bytes grew, and whether c was taken.
func (r *resident) put(key string, tok ring.Token, placed bool, c Cell) (id int, delta int64, ok bool) {
	id, exists := r.cells.Insert(key)
	m := r.cells.Val(id)
	if exists && !c.Version.After(m.cell.Version) {
		return id, 0, false
	}
	delta = int64(c.Size())
	if exists {
		delta -= int64(m.cell.Size())
	} else {
		if !placed {
			tok = ring.KeyToken(key)
		}
		m.tok = tok
	}
	m.cell = c
	r.totalBytes += delta
	return id, delta, true
}

// reset drops every cell and releases the table's memory.
func (r *resident) reset() {
	r.cells.Reset()
	r.totalBytes = 0
}

// Peek is Get without touching the read counters.
func (r *resident) Peek(key string) (Cell, bool) {
	i, ok := r.cells.Find(key)
	if !ok {
		return Cell{}, false
	}
	return r.cells.Val(i).cell, true
}

// Bytes reports the live (resident) data size in bytes.
func (r *resident) Bytes() int64 { return r.totalBytes }

// KeyCount reports the number of distinct resident keys.
func (r *resident) KeyCount() int { return r.cells.Len() }

// KeyAt returns the i-th key in insertion order.
func (r *resident) KeyAt(i int) string { return r.cells.Key(i) }

// SnapshotRanges returns a point-in-time iterator restricted to the
// given token ranges: the resident cells whose key tokens fall inside one
// of the arcs are copied out at the call and sorted by key, so later
// mutations do not leak into the stream. An empty range set yields an
// empty snapshot.
func (r *resident) SnapshotRanges(ranges []ring.Range) SnapshotIter {
	var entries []runEntry
	for i := range r.cells.Len() {
		if m := r.cells.Val(i); ring.RangesContain(ranges, m.tok) {
			entries = append(entries, runEntry{key: r.cells.Key(i), cell: m.cell})
		}
	}
	sortEntries(entries)
	return &memSnapshot{entries: entries}
}
