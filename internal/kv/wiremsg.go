package kv

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Cross-process wire form of the replica-facing message set. A
// multi-process deployment runs the full cluster actor set in every
// process but serves only its local nodes; messages addressed to a node
// owned by a peer process are encoded here, framed by internal/wire and
// shipped over a TCP mesh (internal/live). Client messages (they route
// replies through a process-local op slab), self-messages (they carry
// engine-internal pointers) and gossip messages (multi-process
// membership is static for now) never cross a process boundary, so they
// have no wire form — MarshalMessage reports them unencodable and the
// mesh treats sending one as a programming error.

// Wire kinds of the cross-process message set. Values are part of the
// peer protocol, as is the field order of each kind's wire method
// (messages.go): append new kinds and new trailing fields, never
// renumber or reorder — TestWireFramesGolden pins one frame per kind.
const (
	wireReplicaRead byte = iota + 1
	wireReplicaReadResp
	wireReplicaWrite
	wireReplicaWriteAck
	wireReplicaBatchRead
	wireReplicaBatchReadResp
	wireReplicaBatchWrite
	wireReplicaBatchWriteAck
	wireAeOffer
	wireAeReply
	wireAePush
	wireStreamRequest
	wireStreamChunk
	wireStreamDone
	wireStreamAck
)

// MarshalMessage appends one framed message to buf and reports whether
// payload has a wire form. Encodable pooled message boxes are consumed:
// the box returns to its pool once its fields are on the wire, exactly
// as a local delivery recycles it in Handle.
func MarshalMessage(buf []byte, from, to netsim.NodeID, payload any) ([]byte, bool) {
	start := len(buf)
	c := wireCodec{buf: buf}
	switch m := payload.(type) {
	case *replicaRead:
		m.wire(c.open(wireReplicaRead, from, to))
		replicaReads.take(m)
	case *replicaReadResp:
		m.wire(c.open(wireReplicaReadResp, from, to))
		replicaReadResps.take(m)
	case *replicaWrite:
		m.wire(c.open(wireReplicaWrite, from, to))
		replicaWrites.take(m)
	case *replicaWriteAck:
		m.wire(c.open(wireReplicaWriteAck, from, to))
		replicaWriteAcks.take(m)
	case *replicaBatchRead:
		m.wire(c.open(wireReplicaBatchRead, from, to))
	case *replicaBatchReadResp:
		m.wire(c.open(wireReplicaBatchReadResp, from, to))
	case *replicaBatchWrite:
		m.wire(c.open(wireReplicaBatchWrite, from, to))
	case *replicaBatchWriteAck:
		m.wire(c.open(wireReplicaBatchWriteAck, from, to))
	case aeOffer:
		m.wire(c.open(wireAeOffer, from, to))
	case aeReply:
		m.wire(c.open(wireAeReply, from, to))
	case aePush:
		m.wire(c.open(wireAePush, from, to))
	case streamRequest:
		m.wire(c.open(wireStreamRequest, from, to))
	case streamChunk:
		m.wire(c.open(wireStreamChunk, from, to))
	case streamDone:
		m.wire(c.open(wireStreamDone, from, to))
	case streamAck:
		m.wire(c.open(wireStreamAck, from, to))
	default:
		return buf, false
	}
	return wire.EndFrame(c.buf, start), true
}

// UnmarshalMessage decodes one frame body produced by MarshalMessage
// into the pooled box (or value) Node.Handle dispatches on. Keys and
// values are copied out of body — the caller may reuse its read buffer
// as soon as UnmarshalMessage returns.
func UnmarshalMessage(kind byte, body []byte) (from, to netsim.NodeID, payload any, err error) {
	c := wireCodec{data: body, dec: true}
	c.node(&from)
	c.node(&to)
	switch kind {
	case wireReplicaRead:
		payload = replicaReads.put(replicaRead{}).wire(&c)
	case wireReplicaReadResp:
		payload = replicaReadResps.put(replicaReadResp{}).wire(&c)
	case wireReplicaWrite:
		payload = replicaWrites.put(replicaWrite{}).wire(&c)
	case wireReplicaWriteAck:
		payload = replicaWriteAcks.put(replicaWriteAck{}).wire(&c)
	case wireReplicaBatchRead:
		payload = new(replicaBatchRead).wire(&c)
	case wireReplicaBatchReadResp:
		payload = new(replicaBatchReadResp).wire(&c)
	case wireReplicaBatchWrite:
		payload = new(replicaBatchWrite).wire(&c)
	case wireReplicaBatchWriteAck:
		payload = new(replicaBatchWriteAck).wire(&c)
	case wireAeOffer:
		payload = *new(aeOffer).wire(&c)
	case wireAeReply:
		payload = *new(aeReply).wire(&c)
	case wireAePush:
		payload = *new(aePush).wire(&c)
	case wireStreamRequest:
		payload = *new(streamRequest).wire(&c)
	case wireStreamChunk:
		payload = *new(streamChunk).wire(&c)
	case wireStreamDone:
		payload = *new(streamDone).wire(&c)
	case wireStreamAck:
		payload = *new(streamAck).wire(&c)
	default:
		return 0, 0, nil, fmt.Errorf("kv: unknown wire message kind %d", kind)
	}
	if c.err {
		ReleaseMessage(payload)
		return 0, 0, nil, fmt.Errorf("kv: truncated wire message kind %d", kind)
	}
	return from, to, payload, nil
}

// wireCodec walks a message's field list in one of two directions. A
// kind's wire method (messages.go) names each field once, in protocol
// order, by handing the codec a pointer to it: encoding (dec unset)
// appends the field to buf, decoding overwrites it with the next field
// of data — so the two directions cannot disagree on order or form. The
// method walks its receiver in place (a pooled kind decodes straight
// into its box) and returns it, so each dispatch below is one expression.
// The first failed read latches err and empties data, every later read
// leaves its field zero, and the decoder checks once at the end instead
// of after every field.
//
// The codec must stay on its caller's stack (it is made once per
// message): field lists are called on concrete types only, never through
// an interface or a func value, which would make it escape.
type wireCodec struct {
	buf  []byte // encoding: the frame under construction
	data []byte // decoding: the unread rest of the frame body
	dec  bool
	err  bool
}

// open begins a frame of the given kind addressed from→to; the field
// list walked next is the rest of its body.
func (c *wireCodec) open(kind byte, from, to netsim.NodeID) *wireCodec {
	c.buf = wire.BeginFrame(c.buf, kind)
	c.node(&from)
	c.node(&to)
	return c
}

// fail latches the decode error; with nothing left unread every later
// read fails too.
func (c *wireCodec) fail() {
	c.err = true
	c.data = nil
}

// advance consumes the n bytes a wire primitive decoded, n == 0 being the
// primitive's report of a truncated or malformed field.
func (c *wireCodec) advance(n int) {
	if n == 0 {
		c.fail()
		return
	}
	c.data = c.data[n:]
}

func (c *wireCodec) uvarint(p *uint64) {
	if !c.dec {
		c.buf = wire.AppendUvarint(c.buf, *p)
		return
	}
	v, n := wire.Uvarint(c.data)
	*p = v
	c.advance(n)
}

func (c *wireCodec) varint(p *int64) {
	if !c.dec {
		c.buf = wire.AppendVarint(c.buf, *p)
		return
	}
	v, n := wire.Varint(c.data)
	*p = v
	c.advance(n)
}

func (c *wireCodec) flag(p *bool) {
	if !c.dec {
		c.buf = wire.AppendBool(c.buf, *p)
		return
	}
	v, n := wire.Bool(c.data)
	*p = v
	c.advance(n)
}

// bytes copies a length-prefixed field out of the body; an empty field
// decodes to nil.
func (c *wireCodec) bytes(p *[]byte) {
	if !c.dec {
		c.buf = wire.AppendBytes(c.buf, *p)
		return
	}
	v, n := wire.Bytes(c.data)
	*p = append([]byte(nil), v...)
	c.advance(n)
}

func (c *wireCodec) str(p *string) {
	if !c.dec {
		c.buf = wire.AppendString(c.buf, *p)
		return
	}
	v, n := wire.Bytes(c.data)
	*p = string(v)
	c.advance(n)
}

func (c *wireCodec) id(p *reqID) { c.uvarint((*uint64)(p)) }

func (c *wireCodec) int(p *int) {
	v := int64(*p)
	c.varint(&v)
	*p = int(v)
}

func (c *wireCodec) node(p *netsim.NodeID) { c.int((*int)(p)) }

func (c *wireCodec) version(p *storage.Version) {
	c.varint((*int64)(&p.Timestamp))
	c.uvarint(&p.Seq)
}

func (c *wireCodec) cell(p *storage.Cell) {
	c.version(&p.Version)
	c.flag(&p.Tombstone)
	c.bytes(&p.Value)
}

// wireList walks the count of a length-prefixed list and returns the
// list for the caller to range over, walking each element. Decoding, it
// makes the list — after refusing a count the body cannot hold: every
// element encodes to at least one byte, so a larger count is corrupt,
// and trusting it would let a six-byte frame demand any allocation.
func wireList[T any](c *wireCodec, p *[]T) []T {
	n := uint64(len(*p))
	c.uvarint(&n)
	if c.dec {
		if n > uint64(len(c.data)) {
			c.fail()
			n = 0
		}
		if n > 0 {
			*p = make([]T, n)
		}
	}
	return *p
}

func (c *wireCodec) ints(p *[]int) {
	for i := range wireList(c, p) {
		c.int(&(*p)[i])
	}
}

func (c *wireCodec) strs(p *[]string) {
	for i := range wireList(c, p) {
		c.str(&(*p)[i])
	}
}
