// Package wire is the serving layer's binary codec: compact varint
// primitives, a versioned length-prefixed frame format for the kv
// message set (the same length + type + payload + CRC32 framing the
// storage WAL uses, so a torn or corrupt peer stream is detected exactly
// like a torn log), and a RESP2 protocol reader/writer for the
// Redis-compatible front end. Everything is allocation-conscious:
// encoders append into caller-owned buffers, decoders return views into
// the input, and the RESP reader/writer reuse their internal buffers
// across commands so the steady-state encode/decode path allocates
// nothing.
package wire

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/bits"
)

// FrameVersion is the peer-protocol version stamped into every frame; a
// decoder refuses frames from a different protocol generation instead of
// misparsing them.
const FrameVersion = 1

const (
	frameLenBytes = 4 // big-endian length of everything after it
	frameHdrBytes = 2 // version byte + kind byte
	frameCRCBytes = 4 // CRC32 (IEEE) over version + kind + body
)

// FrameOverhead is what a frame adds around its body: the length,
// version and kind ahead of it and the CRC behind it.
const FrameOverhead = frameLenBytes + frameHdrBytes + frameCRCBytes

// Frame decode errors.
var (
	// ErrFrameCorrupt reports a checksum mismatch or impossible length.
	ErrFrameCorrupt = errors.New("wire: corrupt frame")
	// ErrFrameVersion reports a frame from an unknown protocol version.
	ErrFrameVersion = errors.New("wire: unsupported frame version")
)

// BeginFrame appends a frame header for kind to buf and returns the
// extended slice. The caller appends the body and closes the frame with
// EndFrame, passing the length buf had before BeginFrame:
//
//	start := len(buf)
//	buf = wire.BeginFrame(buf, kind)
//	buf = append(buf, body...)
//	buf = wire.EndFrame(buf, start)
func BeginFrame(buf []byte, kind byte) []byte {
	return append(buf, 0, 0, 0, 0, FrameVersion, kind)
}

// EndFrame patches the length of the frame opened at start and appends
// its CRC, returning the completed slice.
func EndFrame(buf []byte, start int) []byte {
	crc := crc32.ChecksumIEEE(buf[start+frameLenBytes:])
	buf = binary.BigEndian.AppendUint32(buf, crc)
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-frameLenBytes))
	return buf
}

// ReadFrame parses one frame at the head of data. It returns the frame
// kind, a view of its body (valid only while data is) and the total
// bytes consumed. An incomplete frame returns n == 0 with a nil error —
// the caller reads more input and retries; a checksum or version
// mismatch returns an error.
func ReadFrame(data []byte) (kind byte, body []byte, n int, err error) {
	if len(data) < frameLenBytes {
		return 0, nil, 0, nil
	}
	length := int(binary.BigEndian.Uint32(data))
	if length < frameHdrBytes+frameCRCBytes {
		return 0, nil, 0, ErrFrameCorrupt
	}
	total := frameLenBytes + length
	if len(data) < total {
		return 0, nil, 0, nil
	}
	crcOff := total - frameCRCBytes
	sum := crc32.ChecksumIEEE(data[frameLenBytes:crcOff])
	if sum != binary.BigEndian.Uint32(data[crcOff:]) {
		return 0, nil, 0, ErrFrameCorrupt
	}
	if data[frameLenBytes] != FrameVersion {
		return 0, nil, 0, ErrFrameVersion
	}
	kind = data[frameLenBytes+1]
	body = data[frameLenBytes+frameHdrBytes : crcOff]
	return kind, body, total, nil
}

// Varint primitives. Append* extend a caller-owned buffer; the read
// forms return the decoded value and bytes consumed (n == 0 on a
// truncated or overlong input).

// AppendUvarint appends x in LEB128 form.
func AppendUvarint(buf []byte, x uint64) []byte {
	for x >= 0x80 {
		buf = append(buf, byte(x)|0x80)
		x >>= 7
	}
	return append(buf, byte(x))
}

// UvarintLen is len(AppendUvarint(nil, x)): one byte per started seven
// bits.
func UvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Uvarint decodes a LEB128 value from the head of data.
func Uvarint(data []byte) (x uint64, n int) {
	var shift uint
	for i, b := range data {
		if i == binary.MaxVarintLen64 {
			return 0, 0
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, 0
			}
			return x | uint64(b)<<shift, i + 1
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, 0
}

// AppendVarint appends x zigzag-encoded.
func AppendVarint(buf []byte, x int64) []byte {
	return AppendUvarint(buf, uint64(x)<<1^uint64(x>>63))
}

// VarintLen is len(AppendVarint(nil, x)).
func VarintLen(x int64) int { return UvarintLen(uint64(x)<<1 ^ uint64(x>>63)) }

// Varint decodes a zigzag-encoded value from the head of data.
func Varint(data []byte) (x int64, n int) {
	u, n := Uvarint(data)
	return int64(u>>1) ^ -int64(u&1), n
}

// AppendBytes appends v length-prefixed.
func AppendBytes(buf, v []byte) []byte {
	buf = AppendUvarint(buf, uint64(len(v)))
	return append(buf, v...)
}

// AppendString appends s length-prefixed.
func AppendString(buf []byte, s string) []byte {
	buf = AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Bytes decodes a length-prefixed byte field, returning a view into
// data (the caller copies if it retains the value past the buffer).
func Bytes(data []byte) (v []byte, n int) {
	l, n := Uvarint(data)
	if n == 0 || uint64(len(data)-n) < l {
		return nil, 0
	}
	return data[n : n+int(l)], n + int(l)
}

// AppendBool appends b as one byte.
func AppendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// Bool decodes a one-byte bool.
func Bool(data []byte) (b bool, n int) {
	if len(data) == 0 {
		return false, 0
	}
	return data[0] != 0, 1
}
