package wire

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// frame builds one complete frame of kind around body.
func frame(kind byte, body string) []byte {
	buf := BeginFrame(nil, kind)
	buf = append(buf, body...)
	return EndFrame(buf, 0)
}

// framesOf concatenates one single-byte-body frame per kind.
func framesOf(kinds ...byte) []byte {
	var buf []byte
	for i, k := range kinds {
		start := len(buf)
		buf = BeginFrame(buf, k)
		buf = append(buf, byte('a'+i))
		buf = EndFrame(buf, start)
	}
	return buf
}

func TestFrameRoundTrip(t *testing.T) {
	buf := frame(7, "hello frame")
	if len(buf) != FrameOverhead+len("hello frame") {
		t.Fatalf("frame of %d bytes, want FrameOverhead + body = %d", len(buf), FrameOverhead+len("hello frame"))
	}

	kind, body, n, err := ReadFrame(buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if kind != 7 {
		t.Fatalf("kind = %d, want 7", kind)
	}
	if string(body) != "hello frame" {
		t.Fatalf("body = %q", body)
	}
	if n != len(buf) {
		t.Fatalf("n = %d, want %d", n, len(buf))
	}
}

func TestFrameIncomplete(t *testing.T) {
	buf := frame(3, "payload")
	for cut := 0; cut < len(buf); cut++ {
		kind, body, n, err := ReadFrame(buf[:cut])
		if err != nil || n != 0 || kind != 0 || body != nil {
			t.Fatalf("cut %d: got kind=%d n=%d err=%v, want incomplete", cut, kind, n, err)
		}
	}
}

func TestFrameCorrupt(t *testing.T) {
	buf := frame(3, "payload")

	flipped := append([]byte(nil), buf...)
	flipped[6] ^= 0x40 // body byte
	if _, _, _, err := ReadFrame(flipped); err != ErrFrameCorrupt {
		t.Fatalf("body corruption: err = %v, want ErrFrameCorrupt", err)
	}

	badVer := append([]byte(nil), buf...)
	badVer[4] = FrameVersion + 1
	sum := crc32.ChecksumIEEE(badVer[4 : len(badVer)-4])
	binary.BigEndian.PutUint32(badVer[len(badVer)-4:], sum)
	if _, _, _, err := ReadFrame(badVer); err != ErrFrameVersion {
		t.Fatalf("bad version: err = %v, want ErrFrameVersion", err)
	}
}

func TestFrameMultiple(t *testing.T) {
	buf := framesOf(1, 2, 3)
	off := 0
	for i := 0; i < 3; i++ {
		kind, body, n, err := ReadFrame(buf[off:])
		if err != nil || n == 0 {
			t.Fatalf("frame %d: n=%d err=%v", i, n, err)
		}
		if kind != byte(i+1) || len(body) != 1 || body[0] != byte('a'+i) {
			t.Fatalf("frame %d: kind=%d body=%q", i, kind, body)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d", off, len(buf))
	}
}

func TestVarintRoundTrip(t *testing.T) {
	uvals := []uint64{0, 1, 127, 128, 300, 1<<14 - 1, 1 << 14, 1 << 20, 1<<56 - 1, 1 << 56, 1<<63 - 1, 1 << 63, 1<<64 - 1}
	for _, v := range uvals {
		buf := AppendUvarint(nil, v)
		got, n := Uvarint(buf)
		if n != len(buf) || got != v {
			t.Fatalf("uvarint %d: got %d n=%d", v, got, n)
		}
		if l := UvarintLen(v); l != len(buf) {
			t.Fatalf("UvarintLen(%d) = %d, encoded in %d", v, l, len(buf))
		}
	}
	ivals := []int64{0, 1, -1, 63, -64, 64, -65, 1 << 40, -(1 << 40), 1<<63 - 1, -1 << 63}
	for _, v := range ivals {
		buf := AppendVarint(nil, v)
		got, n := Varint(buf)
		if n != len(buf) || got != v {
			t.Fatalf("varint %d: got %d n=%d", v, got, n)
		}
		if l := VarintLen(v); l != len(buf) {
			t.Fatalf("VarintLen(%d) = %d, encoded in %d", v, l, len(buf))
		}
	}
}

func TestUvarintOverlong(t *testing.T) {
	buf := bytes.Repeat([]byte{0x80}, 11)
	if _, n := Uvarint(buf); n > 0 {
		t.Fatalf("overlong uvarint accepted, n=%d", n)
	}
	if _, n := Uvarint([]byte{0x80}); n != 0 {
		t.Fatalf("truncated uvarint: n=%d, want 0", n)
	}
}

func TestBytesAndBool(t *testing.T) {
	buf := AppendBytes(nil, []byte("abc"))
	buf = AppendString(buf, "defg")
	buf = AppendBool(buf, true)
	buf = AppendBool(buf, false)

	b, n := Bytes(buf)
	if string(b) != "abc" || n == 0 {
		t.Fatalf("Bytes = %q, n=%d", b, n)
	}
	buf = buf[n:]
	b, n = Bytes(buf)
	if string(b) != "defg" {
		t.Fatalf("Bytes = %q", b)
	}
	buf = buf[n:]
	v, n := Bool(buf)
	if !v || n != 1 {
		t.Fatalf("Bool = %v n=%d", v, n)
	}
	v, n = Bool(buf[1:])
	if v || n != 1 {
		t.Fatalf("Bool = %v n=%d", v, n)
	}
}

// FuzzReadFrame feeds the frame reader arbitrary input, seeded with the
// round-trip tests' frames. It must never panic, never claim more bytes
// than it was given, consume nothing when it refuses or waits for more,
// and any frame it accepts must re-encode byte for byte through
// BeginFrame and EndFrame.
func FuzzReadFrame(f *testing.F) {
	f.Add(frame(7, "hello frame"))
	f.Add(frame(3, "payload"))
	f.Add(frame(1, ""))
	f.Add(framesOf(1, 2, 3))
	f.Add(frame(3, "payload")[:5])
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, body, n, err := ReadFrame(data)
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if err != nil || n == 0 {
			if n != 0 || body != nil {
				t.Fatalf("refused or incomplete frame (err %v) consumed %d bytes, body %q", err, n, body)
			}
			return
		}
		re := EndFrame(append(BeginFrame(nil, kind), body...), 0)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("accepted frame %x re-encodes as %x", data[:n], re)
		}
	})
}

func BenchmarkFrameEncode(b *testing.B) {
	body := bytes.Repeat([]byte("x"), 64)
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		buf = BeginFrame(buf, 1)
		buf = append(buf, body...)
		buf = EndFrame(buf, 0)
	}
}

func BenchmarkFrameDecode(b *testing.B) {
	buf := BeginFrame(nil, 1)
	buf = append(buf, bytes.Repeat([]byte("x"), 64)...)
	buf = EndFrame(buf, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := ReadFrame(buf); err != nil {
			b.Fatal(err)
		}
	}
}
