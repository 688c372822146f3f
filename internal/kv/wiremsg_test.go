package kv

import (
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/gossip"
	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wire"
)

// testBoxes are the codec tests' own boxes, as a cluster owns its set:
// their topology has 16 nodes, so every id of the table decodes.
var testBoxes = boxes{wireNodes: 16}

// roundTrip marshals payload as a frame, reads it back and decodes it.
func roundTrip(t *testing.T, from, to netsim.NodeID, payload any) any {
	t.Helper()
	buf, ok := testBoxes.MarshalMessage(nil, from, to, payload)
	if !ok {
		t.Fatalf("MarshalMessage(%T): no wire form", payload)
	}
	kind, body, n, err := wire.ReadFrame(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("ReadFrame: n=%d err=%v", n, err)
	}
	gotFrom, gotTo, decoded, err := testBoxes.UnmarshalMessage(kind, body)
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

// boxed returns a box of b holding v.
func boxed[T any](b *box[T], v T) *T {
	p := b.put()
	*p = v
	return p
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
		{"replicaRead", boxed(&testBoxes.replicaReads, replicaRead{ID: 42, Key: "k1", Digest: true, Coord: 3, RingSeq: 9}),
			"0000000f010106162a026b3101060922312f60"},
		{"replicaReadResp", boxed(&testBoxes.replicaReadResps, replicaReadResp{ID: 42, Key: "k1", Cell: cell, Exists: true, Digest: false, From: 2}),
			"00000020010206162a026b31f2c00107000b76616c75652d6279746573010004139ae62f"},
		{"replicaWrite", boxed(&testBoxes.replicaWrites, replicaWrite{ID: 7, Key: "k2", Cell: tomb, Coord: 1, Repair: true, Hint: true, RingSeq: 4}),
			"000000150103061607026b32ce0f0701000201010447d38623"},
		{"replicaWriteAck", boxed(&testBoxes.replicaWriteAcks, replicaWriteAck{ID: 7, Key: "k2", Version: cell.Version, From: 5}),
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
			testBoxes.ReleaseMessage(decoded)
		})
	}
}

// TestWireFramesGolden is the proof that the field-list codec did not
// change the peer protocol: every golden frame was produced by running
// this same table through MarshalMessage at the parent commit (98c1fa3,
// the hand-written per-kind encoders), and a process of either build
// must decode the other's frames for a 3-process cluster to roll. The
// size the transport meters each message at is its frame's length, and
// sizing allocates nothing.
func TestWireFramesGolden(t *testing.T) {
	for _, tc := range wireCases() {
		size := testBoxes.MessageSize(3, 11, tc.payload) // before marshalling consumes it
		if allocs := testing.AllocsPerRun(10, func() { testBoxes.MessageSize(3, 11, tc.payload) }); allocs != 0 {
			t.Errorf("%s: sizing allocates %.0f times", tc.name, allocs)
		}
		buf, ok := testBoxes.MarshalMessage(nil, 3, 11, tc.payload)
		if !ok {
			t.Fatalf("%s: no wire form", tc.name)
		}
		if got := hex.EncodeToString(buf); got != tc.golden {
			t.Errorf("%s frame\n got %s\nwant %s", tc.name, got, tc.golden)
		}
		if size != len(buf) {
			t.Errorf("%s: sized at %d bytes, frame of %d", tc.name, size, len(buf))
		}
	}
}

// sizeProbe is one point of TestMessageSizeAtFieldBoundaries' grid: the
// value every field of its type takes in one message.
type sizeProbe struct {
	u    uint64        // ids, sequence numbers, ring tokens
	i    int64         // timestamps, positions and counts
	node netsim.NodeID // frame addresses and node fields
	str  string        // keys
	val  []byte        // values and stream data
	n    int           // list length; -1 is a nil list
	flag bool          // every flag; a set flag makes the cell a tombstone
}

func (p sizeProbe) cell() storage.Cell {
	c := storage.Cell{Version: storage.Version{Timestamp: time.Duration(p.i), Seq: p.u}, Tombstone: p.flag}
	if !p.flag {
		c.Value = p.val
	}
	return c
}

// list returns p's list of elem: nil, or n copies.
func list[T any](p sizeProbe, elem T) []T {
	if p.n < 0 {
		return nil
	}
	out := make([]T, p.n)
	for i := range out {
		out[i] = elem
	}
	return out
}

// sizeProbeKinds build one message of every wire kind from a probe.
var sizeProbeKinds = []func(p sizeProbe) any{
	func(p sizeProbe) any {
		return boxed(&testBoxes.replicaReads, replicaRead{ID: reqID(p.u), Key: p.str, Digest: p.flag, Coord: p.node, RingSeq: p.u})
	},
	func(p sizeProbe) any {
		return boxed(&testBoxes.replicaReadResps, replicaReadResp{ID: reqID(p.u), Key: p.str, Cell: p.cell(), Exists: p.flag, Digest: p.flag, From: p.node})
	},
	func(p sizeProbe) any {
		return boxed(&testBoxes.replicaWrites, replicaWrite{ID: reqID(p.u), Key: p.str, Cell: p.cell(), Coord: p.node, Repair: p.flag, Hint: p.flag, RingSeq: p.u})
	},
	func(p sizeProbe) any {
		return boxed(&testBoxes.replicaWriteAcks, replicaWriteAck{ID: reqID(p.u), Key: p.str, Version: p.cell().Version, From: p.node})
	},
	func(p sizeProbe) any {
		return &replicaBatchRead{ID: reqID(p.u), Idxs: list(p, int(p.i)), Keys: list(p, p.str), Coord: p.node, RingSeq: p.u}
	},
	func(p sizeProbe) any {
		return &replicaBatchReadResp{ID: reqID(p.u), Items: list(p, batchReadItem{Idx: int(p.i), Cell: p.cell(), Exists: p.flag}), From: p.node}
	},
	func(p sizeProbe) any {
		return &replicaBatchWrite{ID: reqID(p.u), Idxs: list(p, int(p.i)), Keys: list(p, p.str), Cells: list(p, p.cell()), Coord: p.node, RingSeq: p.u}
	},
	func(p sizeProbe) any {
		return &replicaBatchWriteAck{ID: reqID(p.u), Idxs: list(p, int(p.i)), From: p.node}
	},
	func(p sizeProbe) any {
		return aeOffer{Keys: list(p, p.str), Versions: list(p, p.cell().Version), From: p.node}
	},
	func(p sizeProbe) any {
		return aeReply{Updates: list(p, aeCell{Key: p.str, Cell: p.cell()}), Want: list(p, p.str), From: p.node}
	},
	func(p sizeProbe) any { return aePush{Updates: list(p, aeCell{Key: p.str, Cell: p.cell()})} },
	func(p sizeProbe) any {
		return streamRequest{Joiner: p.node, Ranges: list(p, ring.Range{Start: ring.Token(p.u), End: ring.Token(p.u / 2)})}
	},
	func(p sizeProbe) any { return streamChunk{From: p.node, Data: p.val, Count: int(p.i)} },
	func(p sizeProbe) any {
		return streamDone{From: p.node, Chunks: int(p.i), Cells: int(p.i), Bytes: int(p.i), NeedAck: p.flag}
	},
	func(p sizeProbe) any { return streamAck{From: p.node} },
}

// sizeProbes is the grid TestMessageSizeAtFieldBoundaries sizes every
// kind at: unsigned varints either side of each byte step and at the
// maximum, negative and extreme signed ones, node ids either side of a
// zigzag byte step, empty and 200-byte keys and values, nil, empty,
// one- and many-element lists, and tombstones.
func sizeProbes() []sizeProbe {
	long := string(make([]byte, 200))
	var probes []sizeProbe
	for _, u := range []uint64{0, 127, 128, 16383, 16384, ^uint64(0)} {
		for _, i := range []int64{0, 63, 64, 16383, 16384, -1, -64, -65, -1 << 63, 1<<63 - 1} {
			for _, node := range []netsim.NodeID{0, 63, 64, 8191, 8192} {
				for _, str := range []string{"", long} {
					for _, val := range [][]byte{nil, {}, []byte(long)} {
						for _, n := range []int{-1, 0, 1, 5} {
							for _, flag := range []bool{false, true} {
								probes = append(probes, sizeProbe{u: u, i: i, node: node, str: str, val: val, n: n, flag: flag})
							}
						}
					}
				}
			}
		}
	}
	return probes
}

// TestMessageSizeAtFieldBoundaries: for every wire kind, the generated
// size equals the marshalled frame's length at every point of the
// boundary grid, the frame addresses stepping across a zigzag byte
// boundary too. TestWireFramesGolden sizes one message per kind; this
// reaches the edges the fuzzer finds only when it runs.
func TestMessageSizeAtFieldBoundaries(t *testing.T) {
	kinds := map[byte]bool{}
	for _, p := range sizeProbes() {
		from, to := p.node, 63+netsim.NodeID(p.n&1)
		for _, build := range sizeProbeKinds {
			payload := build(p)
			size := testBoxes.MessageSize(from, to, payload)
			buf, ok := testBoxes.MarshalMessage(nil, from, to, payload)
			if !ok {
				t.Fatalf("%T has no wire form", payload)
			}
			if size != len(buf) {
				t.Fatalf("%T %+v %d->%d: sized at %d bytes, frame of %d", payload, p, from, to, size, len(buf))
			}
			kind, _, _, err := wire.ReadFrame(buf)
			if err != nil {
				t.Fatal(err)
			}
			kinds[kind] = true
		}
	}
	for k := wireReplicaRead; k <= wireStreamAck; k++ {
		if !kinds[k] {
			t.Errorf("wire kind %d never sized", k)
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
		if _, ok := testBoxes.MarshalMessage(nil, 0, 1, payload); ok {
			t.Fatalf("MarshalMessage(%T) claimed a wire form", payload)
		}
	}
}

// TestDeclaredSizes: a kind without a wire form is metered at the size
// its send site declared before sizes were measured — a 64-byte envelope,
// its keys and values, 16 bytes per rumor or ring event — and a payload
// that is no network message at nothing.
func TestDeclaredSizes(t *testing.T) {
	two := []gossip.Update{{}, {}}
	events := []gossip.RingEvent{{}, {}, {}}
	for _, c := range []struct {
		payload any
		want    int
	}{
		{&clientRead{Key: "abc"}, 64 + 3},
		{&clientWrite{Key: "ab", Value: []byte("xyz")}, 64 + 5},
		{&clientReadReply{res: ReadResult{Key: "ignored", Value: []byte("four")}}, 64 + 4},
		{&clientWriteReply{res: WriteResult{Key: "ignored"}}, 64},
		{clientBatchRead{Keys: []string{"a", "bc"}}, 64 + 3},
		{clientBatchWrite{Ops: []BatchOp{{Key: "a", Value: []byte("xy")}, {Key: "bc", Delete: true}}}, 64 + 5},
		{clientBatchReadReply{res: []ReadResult{{Value: []byte("v")}, {Value: []byte("vw")}}}, 64 + 3},
		{clientBatchWriteReply{res: []WriteResult{{Key: "ignored"}}}, 64},
		{gossipPing{Updates: two}, 64 + 2*16},
		{gossipAck{Updates: two, Events: events}, 64 + 5*16},
		{gossipEvents{Events: events}, 64 + 3*16},
		{notOwner{Key: "k", Keys: []string{"a", "bc"}, Events: events[:1]}, 64 + 1 + 3 + 16},
		{aeTick{}, 0},
		{"not a message", 0},
	} {
		if got := testBoxes.MessageSize(0, 1, c.payload); got != c.want {
			t.Errorf("MessageSize(%T) = %d, want %d", c.payload, got, c.want)
		}
	}
}

func TestWireMessageCorrupt(t *testing.T) {
	for _, tc := range wireCases() {
		buf, _ := testBoxes.MarshalMessage(nil, 0, 1, tc.payload)
		kind, body, _, err := wire.ReadFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		// Truncated bodies must decode to an error, never panic.
		for cut := 0; cut < len(body); cut++ {
			if _, _, _, err := testBoxes.UnmarshalMessage(kind, append([]byte(nil), body[:cut]...)); err == nil {
				t.Fatalf("%s: truncated body (%d of %d bytes) decoded cleanly", tc.name, cut, len(body))
			}
		}
	}
	if _, _, _, err := testBoxes.UnmarshalMessage(200, []byte{0, 2}); err == nil {
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
		_, _, _, err := testBoxes.UnmarshalMessage(kind, body)
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

// nodeFields returns the node-id fields of a message: the struct fields
// of type netsim.NodeID, settable when payload is a pointer.
func nodeFields(payload any) []reflect.Value {
	v := reflect.ValueOf(payload)
	if v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	var out []reflect.Value
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Type() == reflect.TypeOf(netsim.NodeID(0)) {
			out = append(out, v.Field(i))
		}
	}
	return out
}

// TestWireRefusesHostileBodies: a node id is input from the mesh socket,
// and the replica that answers a request routes its reply by the id the
// request names. A replicaRead naming coordinator 1<<20 used to decode
// cleanly and panic the replica's send (Topology.Class, index out of
// range). Every kind is refused with an out-of-range id in either frame
// address or in any node field of its body. Lists a handler walks side
// by side must line up: a batch whose positions, keys and cells differ
// in length, or an anti-entropy offer with fewer versions than keys,
// used to decode and panic the replica that indexed one by the other.
func TestWireRefusesHostileBodies(t *testing.T) {
	refused := func(what string, from, to netsim.NodeID, payload any) {
		t.Helper()
		buf, ok := testBoxes.MarshalMessage(nil, from, to, payload)
		if !ok {
			t.Fatalf("%s: no wire form", what)
		}
		kind, body, _, err := wire.ReadFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, decoded, err := testBoxes.UnmarshalMessage(kind, body); err == nil {
			t.Errorf("%s decoded cleanly: %+v", what, deref(decoded))
			testBoxes.ReleaseMessage(decoded)
		}
	}
	for i, tc := range wireCases() {
		fields := len(nodeFields(tc.payload))
		testBoxes.ReleaseMessage(tc.payload)
		// Every refusal marshals a fresh payload: marshalling consumes it.
		for _, bad := range []netsim.NodeID{-1, 16, 1 << 20} {
			refused(fmt.Sprintf("%s from %d", tc.name, bad), bad, 11, wireCases()[i].payload)
			refused(fmt.Sprintf("%s to %d", tc.name, bad), 3, bad, wireCases()[i].payload)
			for j := 0; j < fields; j++ {
				payload := wireCases()[i].payload
				if reflect.ValueOf(payload).Kind() != reflect.Pointer {
					p := reflect.New(reflect.TypeOf(payload))
					p.Elem().Set(reflect.ValueOf(payload))
					nodeFields(p.Interface())[j].SetInt(int64(bad))
					payload = p.Elem().Interface()
				} else {
					nodeFields(payload)[j].SetInt(int64(bad))
				}
				refused(fmt.Sprintf("%s body node field %d = %d", tc.name, j, bad), 3, 11, payload)
			}
		}
	}
	refused("batch read with more positions than keys", 3, 11,
		&replicaBatchRead{ID: 8, Idxs: []int{0, 1}, Keys: []string{"a"}, Coord: 0})
	refused("batch write with more keys than cells", 3, 11,
		&replicaBatchWrite{ID: 9, Idxs: []int{0, 1}, Keys: []string{"a", "b"}, Cells: []storage.Cell{testCell(1, "v")}, Coord: 2})
	refused("anti-entropy offer with more keys than versions", 3, 11,
		aeOffer{Keys: []string{"a", "b"}, Versions: []storage.Version{{Seq: 1}}, From: 2})
}

// TestBatchPositionsOutsideTheBatch: a batched read response or write
// acknowledgement naming positions outside the coordinator's batch (a
// peer's frame decodes any int there) used to index past the batch's
// items and panic the coordinator. They answer for nothing, and the
// batch completes from its genuine replies.
func TestBatchPositionsOutsideTheBatch(t *testing.T) {
	topo := netsim.SingleDC(3)
	eng := sim.New(1)
	tr := netsim.NewTransport(eng, topo)
	cfg := DefaultConfig()
	cfg.HintReplayInterval, cfg.AntiEntropyInterval = 0, 0
	cl := New(topo, tr, cfg)
	// inFlight steps the engine until a coordinator holds batch id and
	// returns that coordinator.
	inFlight := func(id reqID, write bool) netsim.NodeID {
		for eng.Step() {
			for nid, n := range cl.nodes {
				if _, ok := n.batchReads[id]; ok && !write {
					return nid
				}
				if _, ok := n.batchWrites[id]; ok && write {
					return nid
				}
			}
		}
		t.Fatalf("batch %d never reached a coordinator", id)
		return 0
	}

	var writes []WriteResult
	cl.WriteBatch([]BatchOp{{Key: "a", Value: []byte("1")}, {Key: "b", Value: []byte("2")}}, All,
		func(r []WriteResult) { writes = r })
	coord := inFlight(cl.nextID, true)
	tr.Deliver(1, coord, &replicaBatchWriteAck{ID: cl.nextID, Idxs: []int{2, -1, 1 << 30}, From: 1}, false)
	var reads []ReadResult
	cl.ReadBatch([]string{"a", "b"}, All, func(r []ReadResult) { reads = r })
	coord = inFlight(cl.nextID, false)
	tr.Deliver(1, coord, &replicaBatchReadResp{ID: cl.nextID, Items: []batchReadItem{{Idx: 2}, {Idx: -1}}, From: 1}, false)
	eng.Run()
	if len(writes) != 2 || writes[0].Err != nil || writes[1].Err != nil {
		t.Fatalf("batch write: %+v", writes)
	}
	if len(reads) != 2 || !reads[0].Exists || !reads[1].Exists {
		t.Fatalf("batch read: %+v", reads)
	}
}

// FuzzUnmarshalMessage feeds arbitrary frame bodies to the decoder the
// mesh read loop runs on peer input. It must never panic; a body that
// decodes cleanly names only nodes of the topology, is sized at exactly
// the length of the frame it re-marshals to, and that frame decodes to
// an equal message (the codec's three modes agree on every input, not
// just on the round-trip table); and every decoded payload is released.
func FuzzUnmarshalMessage(f *testing.F) {
	for _, tc := range wireCases() {
		buf, _ := testBoxes.MarshalMessage(nil, 3, 11, tc.payload)
		kind, body, _, err := wire.ReadFrame(buf)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(kind, body)
	}
	f.Add(wireReplicaBatchWriteAck, bombBody(1<<62))
	f.Add(wireReplicaBatchWriteAck, bombBody(1<<40))
	f.Fuzz(func(t *testing.T, kind byte, body []byte) {
		from, to, payload, err := testBoxes.UnmarshalMessage(kind, body)
		if err != nil {
			return
		}
		ids := []int64{int64(from), int64(to)}
		for _, f := range nodeFields(payload) {
			ids = append(ids, f.Int())
		}
		for _, id := range ids {
			if id < 0 || id >= int64(testBoxes.wireNodes) {
				t.Fatalf("decoded %T names node %d outside [0, %d)", payload, id, testBoxes.wireNodes)
			}
		}
		want := deref(payload) // marshalling consumes a pooled payload
		size := testBoxes.MessageSize(from, to, payload)
		buf, ok := testBoxes.MarshalMessage(nil, from, to, payload)
		if !ok {
			t.Fatalf("decoded %T has no wire form", payload)
		}
		if size != len(buf) {
			t.Fatalf("decoded %T sized at %d bytes, re-marshalled frame of %d", payload, size, len(buf))
		}
		kind2, body2, _, err := wire.ReadFrame(buf)
		if err != nil || kind2 != kind {
			t.Fatalf("re-marshalled frame: kind %d (want %d), err %v", kind2, kind, err)
		}
		from2, to2, again, err := testBoxes.UnmarshalMessage(kind2, body2)
		if err != nil {
			t.Fatalf("re-marshalled frame does not decode: %v", err)
		}
		if got := deref(again); from2 != from || to2 != to || !reflect.DeepEqual(got, want) {
			t.Fatalf("re-decoded %d->%d %+v, want %d->%d %+v", from2, to2, got, from, to, want)
		}
		testBoxes.ReleaseMessage(again)
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
		w := boxed(&testBoxes.replicaWrites, replicaWrite{
			ID: reqID(i), Key: "key:12345678",
			Cell:  storage.Cell{Version: storage.Version{Timestamp: time.Duration(i), Seq: 1}, Value: value},
			Coord: 1, RingSeq: 3,
		})
		var ok bool
		buf, ok = testBoxes.MarshalMessage(buf[:0], 1, 2, w)
		if !ok {
			b.Fatal("no wire form")
		}
		kind, body, _, err := wire.ReadFrame(buf)
		if err != nil {
			b.Fatal(err)
		}
		_, _, payload, err := testBoxes.UnmarshalMessage(kind, body)
		if err != nil {
			b.Fatal(err)
		}
		testBoxes.replicaWrites.take(payload.(*replicaWrite))
	}
}

// sizeSink keeps BenchmarkMessageSize's result live.
var sizeSink int

// BenchmarkMessageSize measures what the transport adds to every network
// send: sizing the four per-replica kinds and a four-item batch write by
// their generated size methods, and a client read by its declared size.
func BenchmarkMessageSize(b *testing.B) {
	cell := testCell(12345, "value-bytes")
	const key = "key:12345678"
	keys := []string{key, key, key, key}
	for _, c := range []struct {
		name    string
		payload any
	}{
		{"replicaRead", &replicaRead{ID: 42, Key: key, Coord: 3, RingSeq: 9}},
		{"replicaReadResp", &replicaReadResp{ID: 42, Key: key, Cell: cell, Exists: true, From: 2}},
		{"replicaWrite", &replicaWrite{ID: 42, Key: key, Cell: cell, Coord: 3, RingSeq: 9}},
		{"replicaWriteAck", &replicaWriteAck{ID: 42, Key: key, Version: cell.Version, From: 2}},
		{"replicaBatchWrite", &replicaBatchWrite{ID: 42, Idxs: []int{0, 1, 2, 3}, Keys: keys,
			Cells: []storage.Cell{cell, cell, cell, cell}, Coord: 3, RingSeq: 9}},
		{"clientRead", &clientRead{ID: 42, Key: key}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sizeSink = testBoxes.MessageSize(1, 2, c.payload)
			}
		})
	}
}
