package kv

import (
	"encoding/hex"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/storage"
	"repro/internal/wire"
)

// roundTrip marshals payload as a frame, reads it back and decodes it.
func roundTrip(t *testing.T, from, to netsim.NodeID, payload any) any {
	t.Helper()
	buf, ok := MarshalMessage(nil, from, to, payload)
	if !ok {
		t.Fatalf("MarshalMessage(%T): no wire form", payload)
	}
	kind, body, n, err := wire.ReadFrame(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("ReadFrame: n=%d err=%v", n, err)
	}
	gotFrom, gotTo, decoded, err := UnmarshalMessage(kind, body)
	if err != nil {
		t.Fatalf("UnmarshalMessage: %v", err)
	}
	if gotFrom != from || gotTo != to {
		t.Fatalf("addresses %d->%d, want %d->%d", gotFrom, gotTo, from, to)
	}
	return decoded
}

func testCell(ts int64, val string) storage.Cell {
	c := storage.Cell{Version: storage.Version{Timestamp: time.Duration(ts), Seq: 7}}
	if val == "" {
		c.Tombstone = true
	} else {
		c.Value = []byte(val)
	}
	return c
}

// wireCase is one row of the wire test table: a payload in the shape
// senders hand to the transport and its frame (from 3 to 11) as the
// commit before the field-list codec marshalled it.
type wireCase struct {
	name    string
	payload any
	golden  string
}

// wireCases returns one message of every wire-borne kind. Each call
// builds fresh payloads, because marshalling consumes the pooled ones.
func wireCases() []wireCase {
	cell := testCell(12345, "value-bytes")
	tomb := testCell(999, "")
	return []wireCase{
		{"replicaRead", replicaReads.put(replicaRead{ID: 42, Key: "k1", Digest: true, Coord: 3, RingSeq: 9}),
			"0000000f010106162a026b3101060922312f60"},
		{"replicaReadResp", replicaReadResps.put(replicaReadResp{ID: 42, Key: "k1", Cell: cell, Exists: true, Digest: false, From: 2}),
			"00000020010206162a026b31f2c00107000b76616c75652d6279746573010004139ae62f"},
		{"replicaWrite", replicaWrites.put(replicaWrite{ID: 7, Key: "k2", Cell: tomb, Coord: 1, Repair: true, Hint: true, RingSeq: 4}),
			"000000150103061607026b32ce0f0701000201010447d38623"},
		{"replicaWriteAck", replicaWriteAcks.put(replicaWriteAck{ID: 7, Key: "k2", Version: cell.Version, From: 5}),
			"000000110104061607026b32f2c001070a1f49b34c"},
		{"replicaBatchRead", &replicaBatchRead{ID: 8, Idxs: []int{0, 2}, Keys: []string{"a", "b"}, Coord: 0, RingSeq: 2},
			"0000001301050616080200040201610162000276479b57"},
		{"replicaBatchReadResp", &replicaBatchReadResp{ID: 8, Items: []batchReadItem{{Idx: 0, Cell: cell, Exists: true}, {Idx: 2}}, From: 1},
			"0000002401060616080200f2c00107000b76616c75652d627974657301040000000000025debb81a"},
		{"replicaBatchWrite", &replicaBatchWrite{ID: 9, Idxs: []int{1}, Keys: []string{"c"}, Cells: []storage.Cell{cell}, Coord: 2, RingSeq: 3},
			"000000220107061609010201016301f2c00107000b76616c75652d62797465730403ad453dfe"},
		{"replicaBatchWriteAck", &replicaBatchWriteAck{ID: 9, Idxs: []int{1, 5}, From: 4},
			"0000000d010806160902020a08c461d1c8"},
		{"aeOffer", aeOffer{Keys: []string{"x", "y"}, Versions: []storage.Version{cell.Version, tomb.Version}, From: 2},
			"0000001601090616020178017902f2c00107ce0f0704faa163c1"},
		{"aeReply", aeReply{Updates: []aeCell{{Key: "x", Cell: cell}}, Want: []string{"y"}, From: 3},
			"00000020010a0616010178f2c00107000b76616c75652d6279746573010179060128f746"},
		{"aePush", aePush{Updates: []aeCell{{Key: "z", Cell: tomb}}},
			"00000010010b061601017ace0f070100c3e3025d"},
		{"streamRequest", streamRequest{Joiner: 6, Ranges: []ring.Range{{Start: ^ring.Token(0) - 9, End: 40}, {Start: 40, End: 99}}},
			"00000017010c06160c02f6ffffffffffffffff012828630482cc3b"},
		{"streamChunk", streamChunk{From: 1, Data: []byte{1, 2, 3}, Count: 3},
			"0000000e010d06160203010203064c78da4a"},
		{"streamDone", streamDone{From: 1, Chunks: 2, Cells: 30, Bytes: 4096, NeedAck: true},
			"0000000e010e061602043c80400162155c68"},
		{"streamAck", streamAck{From: 6},
			"00000009010f06160cb2824bb5"},
	}
}

// deref returns a copy of the message value behind a payload, whether
// the kind travels as a pointer or as a value.
func deref(payload any) any {
	v := reflect.ValueOf(payload)
	if v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	return v.Interface()
}

func TestWireMessageRoundTrips(t *testing.T) {
	for _, tc := range wireCases() {
		t.Run(tc.name, func(t *testing.T) {
			want := deref(tc.payload) // marshalling consumes a pooled payload
			decoded := roundTrip(t, 3, 11, tc.payload)
			if got := deref(decoded); !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded %+v, want %+v", got, want)
			}
			ReleaseMessage(decoded)
		})
	}
}

// TestWireFramesGolden is the proof that the field-list codec did not
// change the peer protocol: every golden frame was produced by running
// this same table through MarshalMessage at the parent commit (98c1fa3,
// the hand-written per-kind encoders), and a process of either build
// must decode the other's frames for a 3-process cluster to roll.
func TestWireFramesGolden(t *testing.T) {
	for _, tc := range wireCases() {
		buf, ok := MarshalMessage(nil, 3, 11, tc.payload)
		if !ok {
			t.Fatalf("%s: no wire form", tc.name)
		}
		if got := hex.EncodeToString(buf); got != tc.golden {
			t.Errorf("%s frame\n got %s\nwant %s", tc.name, got, tc.golden)
		}
	}
}

func TestWireMessageNoForm(t *testing.T) {
	// Client and gossip messages never cross processes: coordinator
	// selection is pinned to local nodes, and multi-process gossip is an
	// explicit follow-on. The codec must refuse them, not mis-frame them.
	for _, payload := range []any{
		&clientRead{}, &clientWrite{}, gossipTick{}, aeTick{}, hintTick{}, &workDone{},
	} {
		if _, ok := MarshalMessage(nil, 0, 1, payload); ok {
			t.Fatalf("MarshalMessage(%T) claimed a wire form", payload)
		}
	}
}

func TestWireMessageCorrupt(t *testing.T) {
	for _, tc := range wireCases() {
		buf, _ := MarshalMessage(nil, 0, 1, tc.payload)
		kind, body, _, err := wire.ReadFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		// Truncated bodies must decode to an error, never panic.
		for cut := 0; cut < len(body); cut++ {
			if _, _, _, err := UnmarshalMessage(kind, append([]byte(nil), body[:cut]...)); err == nil {
				t.Fatalf("%s: truncated body (%d of %d bytes) decoded cleanly", tc.name, cut, len(body))
			}
		}
	}
	if _, _, _, err := UnmarshalMessage(200, []byte{0, 2}); err == nil {
		t.Fatal("unknown kind decoded cleanly")
	}
}

// bombBody is a replicaBatchWriteAck body (from 0, to 1, ID 9) whose Idxs
// list claims count elements and supplies none. The frame around it is
// six to fourteen bytes with a valid CRC, so the frame layer accepts it.
func bombBody(count uint64) []byte {
	body := wire.AppendVarint(nil, 0)
	body = wire.AppendVarint(body, 1)
	body = wire.AppendUvarint(body, 9)
	return wire.AppendUvarint(body, count)
}

// TestWireDecodeBomb: a list count is input from the mesh socket, not a
// size to trust. Decoders used to make([]T, 0, count) directly, so a
// count of 2^62 panicked UnmarshalMessage (makeslice: cap out of range)
// and 2^40 killed the process (out of memory) on the mesh read loop.
func TestWireDecodeBomb(t *testing.T) {
	refuse := func(name string, kind byte, body []byte) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err := UnmarshalMessage(kind, body)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s kind %d: over-count decoded cleanly", name, kind)
		}
		// The error value and the message struct, nothing sized by the
		// claimed count (the smallest one below would be 8 MiB of ints).
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<10 {
			t.Errorf("%s kind %d: allocated %d bytes refusing an over-count", name, kind, grew)
		}
	}
	refuse("count 1<<62", wireReplicaBatchWriteAck, bombBody(1<<62))
	refuse("count 1<<40", wireReplicaBatchWriteAck, bombBody(1<<40))

	// One over-count per list-carrying kind: the first list of the body
	// claims more elements than the body has bytes left. The cut keeps
	// everything up to that list's count (addresses, and the ID where
	// the kind has one before its list).
	for _, tc := range []struct {
		kind byte
		keep int // leading fields before the first list
	}{
		{wireReplicaBatchRead, 3}, {wireReplicaBatchReadResp, 3}, {wireReplicaBatchWrite, 3},
		{wireReplicaBatchWriteAck, 3}, {wireAeOffer, 2}, {wireAeReply, 2}, {wireAePush, 2},
		{wireStreamRequest, 3},
	} {
		body := []byte{0, 2, 9}[:tc.keep] // one-byte varints: from 0, to 1, ID/Joiner 9
		body = wire.AppendUvarint(body, 1<<20)
		refuse("over-count", tc.kind, append(body, make([]byte, 64)...))
	}
}

// FuzzUnmarshalMessage feeds arbitrary frame bodies to the decoder the
// mesh read loop runs on peer input. It must never panic; a body that
// decodes cleanly must re-marshal to a frame that decodes to an equal
// message (the codec's two directions agree on every input, not just on
// the round-trip table); and every decoded payload is released.
func FuzzUnmarshalMessage(f *testing.F) {
	for _, tc := range wireCases() {
		buf, _ := MarshalMessage(nil, 3, 11, tc.payload)
		kind, body, _, err := wire.ReadFrame(buf)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(kind, body)
	}
	f.Add(wireReplicaBatchWriteAck, bombBody(1<<62))
	f.Add(wireReplicaBatchWriteAck, bombBody(1<<40))
	f.Fuzz(func(t *testing.T, kind byte, body []byte) {
		from, to, payload, err := UnmarshalMessage(kind, body)
		if err != nil {
			return
		}
		want := deref(payload) // marshalling consumes a pooled payload
		buf, ok := MarshalMessage(nil, from, to, payload)
		if !ok {
			t.Fatalf("decoded %T has no wire form", payload)
		}
		kind2, body2, _, err := wire.ReadFrame(buf)
		if err != nil || kind2 != kind {
			t.Fatalf("re-marshalled frame: kind %d (want %d), err %v", kind2, kind, err)
		}
		from2, to2, again, err := UnmarshalMessage(kind2, body2)
		if err != nil {
			t.Fatalf("re-marshalled frame does not decode: %v", err)
		}
		if got := deref(again); from2 != from || to2 != to || !reflect.DeepEqual(got, want) {
			t.Fatalf("re-decoded %d->%d %+v, want %d->%d %+v", from2, to2, got, from, to, want)
		}
		ReleaseMessage(again)
	})
}

// BenchmarkWireRoundTripLoopback measures the full inter-process codec
// path: marshal a replica write into a frame, read the frame back and
// decode it — the per-message cost of the TCP mesh.
func BenchmarkWireRoundTripLoopback(b *testing.B) {
	value := make([]byte, 64)
	for i := range value {
		value[i] = 'x'
	}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := replicaWrites.put(replicaWrite{
			ID: reqID(i), Key: "key:12345678",
			Cell:  storage.Cell{Version: storage.Version{Timestamp: time.Duration(i), Seq: 1}, Value: value},
			Coord: 1, RingSeq: 3,
		})
		var ok bool
		buf, ok = MarshalMessage(buf[:0], 1, 2, w)
		if !ok {
			b.Fatal("no wire form")
		}
		kind, body, _, err := wire.ReadFrame(buf)
		if err != nil {
			b.Fatal(err)
		}
		_, _, payload, err := UnmarshalMessage(kind, body)
		if err != nil {
			b.Fatal(err)
		}
		replicaWrites.take(payload.(*replicaWrite))
	}
}
