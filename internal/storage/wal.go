package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"time"
)

// The write-ahead log. Every accepted mutation is appended as one framed
// record before it lands in the memtable; the synced prefix of the log
// is what survives a crash. Under simulation the log is a deterministic
// in-memory byte buffer with an explicit durable watermark. Under the
// live engine it can be one recycled file segment (NoKV's managed wal
// segment, sized for this repo): records gather in memory, a sync is one
// write at the watermark plus one fdatasync, and a memtable flush
// rewinds the watermark to offset 0 so the next generation overwrites
// blocks the file already owns.
//
// Record framing, after NoKV's manager:
//
//	+--------+-------+-----------+--------+
//	| Length | Type  | Payload   | CRC32  |
//	| [4]    | [1]   | [N]       | [4]    |
//	+--------+-------+-----------+--------+
//
// Length covers Type+Payload; the CRC covers Type+Payload. A cell
// payload is keyLen(4) key ts(8) seq(8) tombstone(1) valLen(4) value.

const (
	walRecordCell  = byte(1)
	walHeaderBytes = 4
	walCRCBytes    = 4
)

var (
	// errTornRecord marks a record cut short by a crash mid-append: the
	// replay keeps the consistent prefix before it.
	errTornRecord = errors.New("storage: torn wal record")
	// errCorruptRecord marks a checksum or framing mismatch.
	errCorruptRecord = errors.New("storage: corrupt wal record")
)

// appendWALRecord encodes one cell record onto buf and returns the
// extended slice.
func appendWALRecord(buf []byte, key string, c Cell) []byte {
	payload := 1 + 4 + len(key) + 8 + 8 + 1 + 4 + len(c.Value) // type byte included in length
	var hdr [walHeaderBytes]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(payload))
	buf = append(buf, hdr[:]...)
	body := len(buf)
	buf = append(buf, walRecordCell)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(c.Version.Timestamp))
	buf = binary.BigEndian.AppendUint64(buf, c.Version.Seq)
	tomb := byte(0)
	if c.Tombstone {
		tomb = 1
	}
	buf = append(buf, tomb)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(c.Value)))
	buf = append(buf, c.Value...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[body:]))
}

// decodeWALRecord decodes the record starting at off. It returns the key,
// cell and total encoded size. errTornRecord means the log ends inside
// the record (a crash mid-append); errCorruptRecord means framing or
// checksum damage.
func decodeWALRecord(log []byte, off int) (key string, c Cell, n int, err error) {
	rest := log[off:]
	if len(rest) < walHeaderBytes {
		return "", Cell{}, 0, errTornRecord
	}
	length := int(binary.BigEndian.Uint32(rest))
	if length < 1+4+8+8+1+4 {
		return "", Cell{}, 0, errCorruptRecord
	}
	total := walHeaderBytes + length + walCRCBytes
	if len(rest) < total {
		return "", Cell{}, 0, errTornRecord
	}
	body := rest[walHeaderBytes : walHeaderBytes+length]
	sum := binary.BigEndian.Uint32(rest[walHeaderBytes+length:])
	if crc32.ChecksumIEEE(body) != sum {
		return "", Cell{}, 0, errCorruptRecord
	}
	if body[0] != walRecordCell {
		return "", Cell{}, 0, errCorruptRecord
	}
	p := body[1:]
	keyLen := int(binary.BigEndian.Uint32(p))
	p = p[4:]
	if len(p) < keyLen+8+8+1+4 {
		return "", Cell{}, 0, errCorruptRecord
	}
	key = string(p[:keyLen])
	p = p[keyLen:]
	c.Version.Timestamp = time.Duration(binary.BigEndian.Uint64(p))
	c.Version.Seq = binary.BigEndian.Uint64(p[8:])
	c.Tombstone = p[16] == 1
	valLen := int(binary.BigEndian.Uint32(p[17:]))
	p = p[21:]
	if len(p) != valLen {
		return "", Cell{}, 0, errCorruptRecord
	}
	if valLen > 0 {
		c.Value = append([]byte(nil), p...)
	}
	return key, c, total, nil
}

// walog is the byte-log substrate of the LSM engine's WAL: an in-memory
// buffer under simulation, a recycled file segment under the live
// engine. Appends buffer; sync moves the durable watermark; crash
// discards everything past it.
type walog interface {
	append(rec []byte)
	sync()
	unsynced() int64
	// durable returns a copy of the synced prefix (what survives a
	// crash); the caller owns it across later resets and appends.
	durable() []byte
	// reset discards the whole log (the memtable it covered was flushed
	// to a durable run).
	reset()
	// crash discards the unsynced tail.
	crash()
	close() error
}

// memWAL is the deterministic in-memory log used under simulation.
type memWAL struct {
	buf    []byte
	synced int
}

func (w *memWAL) append(rec []byte) { w.buf = append(w.buf, rec...) }
func (w *memWAL) sync()             { w.synced = len(w.buf) }
func (w *memWAL) unsynced() int64   { return int64(len(w.buf) - w.synced) }
func (w *memWAL) durable() []byte   { return append([]byte(nil), w.buf[:w.synced]...) }
func (w *memWAL) reset()            { w.buf, w.synced = w.buf[:0], 0 }
func (w *memWAL) crash()            { w.buf = w.buf[:w.synced] }
func (w *memWAL) close() error      { return nil }

// fileWAL backs the log with one recycled file segment. The log is the
// file's bytes [0, synced): the in-memory watermark defines it, not the
// file length, because reset rewinds the watermark without truncating —
// from the second memtable generation on, every sync overwrites blocks
// the file already owns and the fdatasync has no size change to journal.
// Past the watermark the file therefore holds stale records of earlier
// generations with valid checksums. That is safe only because the file
// is truncated at open and never read by a later process; a restart path
// that re-reads it needs a generation stamp in the record header first.
//
// Records appended since the last sync wait in tail; a sync is one
// write of tail at the watermark and one fdatasync, a crash drops tail
// (what a power cut leaves of writes the device never saw). The file
// holds its high-water mark: the longest log one memtable generation
// wrote.
type fileWAL struct {
	f      *os.File
	tail   []byte // appended, not yet written or synced; reused across syncs
	synced int64  // durable watermark
}

func newFileWAL(path string) (*fileWAL, error) {
	//repolint:allow simpure live-only file WAL; the sim engine runs on memWAL
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: wal: %w", err)
	}
	return &fileWAL{f: f}, nil
}

func (w *fileWAL) append(rec []byte) { w.tail = append(w.tail, rec...) }

func (w *fileWAL) sync() {
	if _, err := w.f.WriteAt(w.tail, w.synced); err != nil {
		panic(fmt.Sprintf("storage: wal write: %v", err))
	}
	if err := fdatasync(w.f); err != nil {
		panic(fmt.Sprintf("storage: wal sync: %v", err))
	}
	w.synced += int64(len(w.tail))
	w.tail = w.tail[:0]
}

func (w *fileWAL) unsynced() int64 { return int64(len(w.tail)) }

func (w *fileWAL) durable() []byte {
	buf := make([]byte, w.synced)
	if _, err := w.f.ReadAt(buf, 0); err != nil {
		panic(fmt.Sprintf("storage: wal read: %v", err))
	}
	return buf
}

func (w *fileWAL) reset()       { w.tail, w.synced = w.tail[:0], 0 }
func (w *fileWAL) crash()       { w.tail = w.tail[:0] }
func (w *fileWAL) close() error { return w.f.Close() }
