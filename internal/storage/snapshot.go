package storage

// Snapshot streaming: an engine exposes the resident cells of a set of
// token ranges as a point-in-time iterator in sorted key order, and the
// wire codec frames cells with the WAL's length+CRC record format so a
// stream can be chunked, sized for the traffic meter, and verified on
// arrival. This is
// the mechanism behind bootstrap/rejoin streaming at the store layer
// (Cassandra's bootstrap and repair streaming): the sender walks a
// consistent snapshot, the receiver applies each framed cell through the
// normal last-write-wins path, so a stream is idempotent and can overlap
// hints and anti-entropy without conflict.
//
// Both engines remember each key's ring token, so membership streams ask
// for exactly the moved arcs (ring.Diff) and the engine walks only those
// cells.

import "repro/internal/ring"

// SnapshotIter walks a consistent point-in-time snapshot of an engine in
// sorted key order. Next returns ok=false when the snapshot is
// exhausted. Mutations made after the snapshot was taken do not appear.
type SnapshotIter interface {
	Next() (key string, c Cell, ok bool)
}

// memSnapshot is a materialized snapshot (cells copied at snapshot time).
type memSnapshot struct {
	entries []runEntry
	pos     int
}

func (s *memSnapshot) Next() (string, Cell, bool) {
	if s.pos >= len(s.entries) {
		return "", Cell{}, false
	}
	e := s.entries[s.pos]
	s.pos++
	return e.key, e.cell, true
}

// SnapshotRanges seals the memtable into a run first (Cassandra flushes
// before streaming), then walks the resident table like the mem engine:
// only the selected cells are copied and sorted, never the whole
// keyspace. An empty range set yields an empty snapshot (but still
// flushes).
func (e *LSMEngine) SnapshotRanges(ranges []ring.Range) SnapshotIter {
	e.Flush()
	return e.resident.SnapshotRanges(ranges)
}

// EncodeCell appends the framed wire encoding of one (key, cell) pair to
// buf and returns the extended slice. The framing is the WAL record
// format (length + type + payload + CRC32), so a snapshot stream is
// torn- and corruption-detectable exactly like a log replay.
func EncodeCell(buf []byte, key string, c Cell) []byte {
	return appendWALRecord(buf, key, c)
}

// DecodeCell decodes one framed cell starting at off, returning the key,
// cell and total encoded size. Errors mirror WAL replay: a torn record
// means the stream was cut short, a corrupt one means checksum damage.
func DecodeCell(data []byte, off int) (key string, c Cell, n int, err error) {
	return decodeWALRecord(data, off)
}

// ApplyEncoded decodes every framed cell in data and applies it to the
// engine through the normal last-write-wins path. It returns how many
// cells were decoded and how many were accepted as the new resident
// version; err is non-nil when the buffer ends in a torn or corrupt
// record (the consistent prefix before it is still applied).
func ApplyEncoded(e Engine, data []byte) (total, applied int, err error) {
	off := 0
	for off < len(data) {
		key, cell, n, derr := DecodeCell(data, off)
		if derr != nil {
			return total, applied, derr
		}
		total++
		if e.Apply(key, cell) {
			applied++
		}
		off += n
	}
	return total, applied, nil
}
