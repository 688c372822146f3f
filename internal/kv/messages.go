package kv

import (
	"time"

	"repro/internal/gossip"
	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/storage"
)

// This file defines every message a node or the client endpoint handles.
// A message has one of three shapes:
//
//   - Pooled box (*T out of a box[T]): the kinds that travel once per
//     replica per operation — client requests and replies, replica reads
//     and writes and their acks. Every Send boxes its payload into an
//     interface, and for these kinds that boxing dominated allocations,
//     so senders put the value into a recycled box and the receiver takes
//     it out again before dispatching: a box never outlives one delivery
//     and the steady-state message path allocates nothing. The boxes are
//     the cluster's own (boxes, below), touched only under the cluster's
//     serialisation: the simulator's one goroutine, or the live engine's
//     lock, under which the mesh also decodes inbound frames.
//   - Plain value (T, or *T for the batch kinds): everything that travels
//     per batch, per anti-entropy round, per gossip probe or per
//     membership change. Each carries freshly built slices the in-flight
//     message owns, next to which one boxing allocation is noise.
//   - Self-message: a node's own ticks and work completions (the tick
//     kinds here; workDone and coordExec are pooled boxes, declared in
//     node.go). They never leave the node. A request's timeout is not a
//     message: it is a cancelable timer its context holds (armTimeout).
//
// To add a kind: declare its struct here (with a box[x] field in boxes if
// it is pooled) and give it one dispatch line in Node.Handle. If it
// crosses processes it also gets a field-list method (wire, see the codec
// in wiremsg.go) and a kind constant with one dispatch line in each of
// wireCodec.message and UnmarshalMessage; the field list is then also
// the size the transport meters it at, once wiresize.go is regenerated
// (go test -run TestMessageSizeGenerated ./internal/kv -regen). A network
// kind without a wire form declares its size in one place instead,
// declaredSize; a self-message needs neither.

// box recycles the boxes of one pooled message kind through a LIFO free
// list. put and take are the whole lifecycle: whoever receives a *T takes
// it exactly once and never touches the pointer again (repolint's
// poolsafe analyzer checks that). A box belongs to one cluster and is
// used only under that cluster's serialisation, so the list needs no
// lock; it never shrinks, and so holds at most the peak number of its
// kind ever in flight at once.
type box[T any] struct{ free []*T }

// put returns an empty box for the sender to fill in place. Filled field
// by field, a message is never built in a temporary and then copied into
// its box; take leaves every recycled box zeroed, so nothing is cleared
// here.
func (b *box[T]) put() *T {
	if n := len(b.free) - 1; n >= 0 {
		p := b.free[n]
		b.free = b.free[:n]
		return p
	}
	return new(T)
}

// take copies the message out of its box and recycles the box, zeroed so
// it pins nothing while it waits on the free list.
func (b *box[T]) take(p *T) T {
	v := *p
	var zero T
	*p = zero
	b.free = append(b.free, p)
	return v
}

// boxes is a cluster's recycling: one box per pooled message kind and the
// free lists of the coordinator contexts (coordinator.go). Its exported
// methods, the mesh codec (wiremsg.go) and ReleaseMessage (node.go), are
// the Cluster's, which embeds it; WireBenchRoundTrip owns a set of its
// own.
type boxes struct {
	clientReads        box[clientRead]
	clientWrites       box[clientWrite]
	clientReadReplies  box[clientReadReply]
	clientWriteReplies box[clientWriteReply]
	replicaWrites      box[replicaWrite]
	replicaWriteAcks   box[replicaWriteAck]
	replicaReads       box[replicaRead]
	replicaReadResps   box[replicaReadResp]
	workDones          box[workDone]
	coordExecs         box[coordExec]

	readCtxs  []*readCtx
	writeCtxs []*writeCtx

	wireNodes int // the topology's size: the codec decodes node ids in [0, wireNodes)
}

// reqID identifies one client operation across the cluster.
type reqID uint64

// opRoute says how a result finds its way back to the issuing client: a
// slot in the cluster's pooled op slab (clientop.go); gen catches replies
// that outlive a timed-out, recycled slot.
type opRoute struct {
	op  uint32
	gen uint32
}

// clientRead enters the cluster from a client and is handled by the
// coordinator node it is addressed to.
type clientRead struct {
	ID    reqID
	Key   string
	Level Level
	rt    opRoute
}

// clientWrite is the write counterpart of clientRead; with tombstone set
// it deletes the key instead of storing a value.
type clientWrite struct {
	ID        reqID
	Key       string
	Value     []byte
	Level     Level
	tombstone bool
	rt        opRoute
}

// clientReadReply carries the result back to the client endpoint.
type clientReadReply struct {
	rt  opRoute
	res ReadResult
}

// clientWriteReply carries the result back to the client endpoint.
type clientWriteReply struct {
	rt  opRoute
	res WriteResult
}

// BatchOp is one item of a multi-key batch mutation. Delete issues a
// tombstone for Key instead of storing Value.
type BatchOp struct {
	Key    string
	Value  []byte
	Delete bool
}

// clientBatchRead admits a multi-key read on one coordinator: one
// admission for the whole batch, results delivered together in key
// order.
type clientBatchRead struct {
	ID    reqID
	Keys  []string
	Level Level
	rt    opRoute
}

// clientBatchWrite is the write counterpart of clientBatchRead.
type clientBatchWrite struct {
	ID    reqID
	Ops   []BatchOp
	Level Level
	rt    opRoute
}

// clientBatchReadReply carries a whole batch's results back to the
// client endpoint in one message.
type clientBatchReadReply struct {
	rt  opRoute
	res []ReadResult
}

// clientBatchWriteReply is the write counterpart.
type clientBatchWriteReply struct {
	rt  opRoute
	res []WriteResult
}

// replicaBatchRead asks one replica for every batch item it serves — at
// most one request message per replica per batch. Batched reads always
// carry full data (no digests): the batch already amortizes transfer,
// and per-item digest refetches would reintroduce per-key messages.
type replicaBatchRead struct {
	ID    reqID
	Idxs  []int // batch positions, parallel to Keys
	Keys  []string
	Coord netsim.NodeID
	// RingSeq is the coordinator's ring knowledge (gossip mode only);
	// a replica with a strictly newer ring refuses items it no longer
	// owns (notOwner) instead of serving them.
	RingSeq uint64
}

func (m *replicaBatchRead) wire(c *wireCodec) *replicaBatchRead {
	c.id(&m.ID)
	c.ints(&m.Idxs)
	c.strs(&m.Keys)
	if c.dec && len(m.Keys) != len(m.Idxs) {
		c.fail() // the replica walks positions and keys side by side
	}
	c.node(&m.Coord)
	c.uvarint(&m.RingSeq)
	return m
}

// batchReadItem is one replica's answer for one batch position.
type batchReadItem struct {
	Idx    int
	Cell   storage.Cell
	Exists bool
}

// replicaBatchReadResp answers a replicaBatchRead in one message.
type replicaBatchReadResp struct {
	ID    reqID
	Items []batchReadItem
	From  netsim.NodeID
}

func (m *replicaBatchReadResp) wire(c *wireCodec) *replicaBatchReadResp {
	c.id(&m.ID)
	for i := range wireList(c, &m.Items) {
		c.int(&m.Items[i].Idx)
		c.cell(&m.Items[i].Cell)
		c.flag(&m.Items[i].Exists)
	}
	c.node(&m.From)
	return m
}

// replicaBatchWrite carries every batch mutation a replica owns in one
// message.
type replicaBatchWrite struct {
	ID      reqID
	Idxs    []int // batch positions, parallel to Keys/Cells
	Keys    []string
	Cells   []storage.Cell
	Coord   netsim.NodeID
	RingSeq uint64 // see replicaBatchRead.RingSeq
}

func (m *replicaBatchWrite) wire(c *wireCodec) *replicaBatchWrite {
	c.id(&m.ID)
	c.ints(&m.Idxs)
	c.strs(&m.Keys)
	for i := range wireList(c, &m.Cells) {
		c.cell(&m.Cells[i])
	}
	if c.dec && (len(m.Keys) != len(m.Idxs) || len(m.Cells) != len(m.Idxs)) {
		c.fail()
	}
	c.node(&m.Coord)
	c.uvarint(&m.RingSeq)
	return m
}

// replicaBatchWriteAck acknowledges all items of a replicaBatchWrite.
type replicaBatchWriteAck struct {
	ID   reqID
	Idxs []int
	From netsim.NodeID
}

func (m *replicaBatchWriteAck) wire(c *wireCodec) *replicaBatchWriteAck {
	c.id(&m.ID)
	c.ints(&m.Idxs)
	c.node(&m.From)
	return m
}

// replicaWrite asks a replica to apply a cell. Repair and hint replays
// reuse it with Repair/Hint set, which keeps replica application uniform.
type replicaWrite struct {
	ID      reqID
	Key     string
	Cell    storage.Cell
	Coord   netsim.NodeID
	Repair  bool   // read-repair or anti-entropy write: no ack expected
	Hint    bool   // replayed hint: ack expected by nobody, but applied
	RingSeq uint64 // see replicaBatchRead.RingSeq (coordinated writes only)
}

func (m *replicaWrite) wire(c *wireCodec) *replicaWrite {
	c.id(&m.ID)
	c.str(&m.Key)
	c.cell(&m.Cell)
	c.node(&m.Coord)
	c.flag(&m.Repair)
	c.flag(&m.Hint)
	c.uvarint(&m.RingSeq)
	return m
}

// replicaWriteAck acknowledges a replicaWrite to its coordinator.
type replicaWriteAck struct {
	ID      reqID
	Key     string
	Version storage.Version
	From    netsim.NodeID
}

func (m *replicaWriteAck) wire(c *wireCodec) *replicaWriteAck {
	c.id(&m.ID)
	c.str(&m.Key)
	c.version(&m.Version)
	c.node(&m.From)
	return m
}

// replicaRead asks a replica for its resident cell; when Digest is set
// only the version travels back.
type replicaRead struct {
	ID      reqID
	Key     string
	Digest  bool
	Coord   netsim.NodeID
	RingSeq uint64 // see replicaBatchRead.RingSeq
}

func (m *replicaRead) wire(c *wireCodec) *replicaRead {
	c.id(&m.ID)
	c.str(&m.Key)
	c.flag(&m.Digest)
	c.node(&m.Coord)
	c.uvarint(&m.RingSeq)
	return m
}

// replicaReadResp answers a replicaRead.
type replicaReadResp struct {
	ID     reqID
	Key    string
	Cell   storage.Cell
	Exists bool
	Digest bool
	From   netsim.NodeID
}

func (m *replicaReadResp) wire(c *wireCodec) *replicaReadResp {
	c.id(&m.ID)
	c.str(&m.Key)
	c.cell(&m.Cell)
	c.flag(&m.Exists)
	c.flag(&m.Digest)
	c.node(&m.From)
	return m
}

// aeTick triggers one anti-entropy round on a node. epoch ties the tick
// chain to a node incarnation: ticks scheduled before a crash do not
// duplicate the chain the restart starts.
type aeTick struct{ epoch uint32 }

// hintTick triggers hint replay attempts on a node (same epoch contract
// as aeTick).
type hintTick struct{ epoch uint32 }

// aeOffer opens an anti-entropy exchange: the initiator offers the
// versions of a sample of its keys.
type aeOffer struct {
	Keys     []string
	Versions []storage.Version
	From     netsim.NodeID
}

func (m *aeOffer) wire(c *wireCodec) *aeOffer {
	c.strs(&m.Keys)
	for i := range wireList(c, &m.Versions) {
		c.version(&m.Versions[i])
	}
	if c.dec && len(m.Versions) != len(m.Keys) {
		c.fail() // the answering replica walks keys and versions side by side
	}
	c.node(&m.From)
	return m
}

// aeReply answers an offer with cells newer on the responder and the list
// of keys where the initiator was newer.
type aeReply struct {
	Updates []aeCell
	Want    []string
	From    netsim.NodeID
}

func (m *aeReply) wire(c *wireCodec) *aeReply {
	c.aeCells(&m.Updates)
	c.strs(&m.Want)
	c.node(&m.From)
	return m
}

// aePush closes the exchange: the initiator pushes the requested cells.
type aePush struct {
	Updates []aeCell
}

func (m *aePush) wire(c *wireCodec) *aePush {
	c.aeCells(&m.Updates)
	return m
}

// aeCell pairs a key with its cell for anti-entropy transfer.
type aeCell struct {
	Key  string
	Cell storage.Cell
}

// aeCells walks the cell list aeReply and aePush both carry.
func (c *wireCodec) aeCells(p *[]aeCell) {
	for i := range wireList(c, p) {
		c.str(&(*p)[i].Key)
		c.cell(&(*p)[i].Cell)
	}
}

// streamRequest asks a current member to snapshot-stream the ranges the
// joiner will own under the pending post-join placement. Ranges are the
// ring.Diff movements the joiner enters, in ring's sorted order; every
// peer receives the same list and serves the subset it sources (the
// per-range single-source rule), so the sender walks only the moved
// arcs instead of filtering a full store snapshot per key.
type streamRequest struct {
	Joiner netsim.NodeID
	Ranges []ring.Range
}

func (m *streamRequest) wire(c *wireCodec) *streamRequest {
	c.node(&m.Joiner)
	for i := range wireList(c, &m.Ranges) {
		c.uvarint((*uint64)(&m.Ranges[i].Start))
		c.uvarint((*uint64)(&m.Ranges[i].End))
	}
	return m
}

// streamChunk carries framed cells (storage.EncodeCell records) of a
// snapshot stream; Count is the number of cells in Data.
type streamChunk struct {
	From  netsim.NodeID
	Data  []byte
	Count int
}

func (m *streamChunk) wire(c *wireCodec) *streamChunk {
	c.node(&m.From)
	c.bytes(&m.Data)
	c.int(&m.Count)
	return m
}

// streamDone closes one snapshot stream, announcing its totals so the
// receiver can detect chunks still in flight. NeedAck marks decommission
// handoffs: the receiver acknowledges completion with a streamAck.
type streamDone struct {
	From    netsim.NodeID
	Chunks  int
	Cells   int
	Bytes   int
	NeedAck bool
}

func (m *streamDone) wire(c *wireCodec) *streamDone {
	c.node(&m.From)
	c.int(&m.Chunks)
	c.int(&m.Cells)
	c.int(&m.Bytes)
	c.flag(&m.NeedAck)
	return m
}

// streamAck confirms a decommission handoff stream fully applied on the
// new owner.
type streamAck struct {
	From netsim.NodeID
}

func (m *streamAck) wire(c *wireCodec) *streamAck {
	c.node(&m.From)
	return m
}

// Gossip protocol messages (Config.Gossip only), all plain values.

// gossipTick triggers one gossip round on a node: probe the next peer
// with piggybacked rumors. epoch has the same crash-invalidaton
// contract as aeTick.
type gossipTick struct{ epoch uint32 }

// gossipPing probes one peer, carrying the sender's ring knowledge and
// a bounded batch of liveness rumors. TargetStatus/TargetInc state the
// prober's current claim about the pingee: a pingee held suspect or
// dead refutes on receipt (incarnation bump), which is what heals a
// view after a partition even when the original rumor's piggyback
// budget is long spent.
type gossipPing struct {
	From    netsim.NodeID
	FromInc uint64 // sender's self-incarnation: the ping proves it alive
	Seq     uint64 // probe sequence on the sender; the ack echoes it
	RingSeq uint64
	// The prober's claim about the pingee (the refutation handshake).
	TargetStatus gossip.Status
	TargetInc    uint64
	Updates      []gossip.Update
}

// gossipAck answers a ping. Events bridges the sender forward when the
// responder's ring is newer; when the responder is the stale side, its
// RingSeq tells the ping sender to bridge it with a gossipEvents.
// TargetStatus/TargetInc mirror the ping's refutation handshake in the
// other direction (the responder's claim about the prober).
type gossipAck struct {
	From         netsim.NodeID
	FromInc      uint64
	Seq          uint64
	RingSeq      uint64
	TargetStatus gossip.Status
	TargetInc    uint64
	Updates      []gossip.Update
	Events       []gossip.RingEvent
}

// gossipEvents ships a missing ring-event suffix to a stale peer.
type gossipEvents struct {
	From   netsim.NodeID
	Events []gossip.RingEvent
}

// gossipProbeTimeout fires when a ping went unanswered for half the
// gossip interval: the prober suspects the target.
type gossipProbeTimeout struct {
	Seq    uint64
	Target netsim.NodeID
	epoch  uint32
}

// gossipSuspicionTimeout fires when a suspicion aged out unrefuted: the
// suspector declares the target dead (View.Confirm checks that the
// exact suspicion, by incarnation, still stands).
type gossipSuspicionTimeout struct {
	Target netsim.NodeID
	Inc    uint64
	epoch  uint32
}

// notOwner is a replica's refusal of a coordinated request for a range
// it no longer owns under its strictly newer ring. Events carries the
// ring-event suffix the coordinator is missing, so every refusal
// advances the coordinator's ring — the retry loop terminates even
// without the retry budget.
type notOwner struct {
	ID    reqID
	From  netsim.NodeID
	Write bool
	// Batch marks batched requests; Idxs/Keys list the refused items
	// (single-key refusals leave them nil and use Key).
	Batch  bool
	Idxs   []int
	Keys   []string
	Key    string
	Events []gossip.RingEvent
}

// ReadResult reports the outcome of a read operation.
type ReadResult struct {
	Err     error
	Key     string
	Value   []byte
	Version storage.Version
	Exists  bool
	// Stale is the staleness oracle's ground-truth verdict: the value
	// returned was older than the latest write issued before the read
	// started. It is measurement infrastructure, not something a real
	// client could observe.
	Stale    bool
	Level    Level
	Latency  time.Duration
	Replicas int // replicas contacted
	// Cached marks a read served from the coordinator's hot-key cache
	// (Config.HotCache): no replica was contacted. The monitor uses it
	// to report the effective post-cache load to the autoscaler.
	Cached bool
}

// WriteResult reports the outcome of a write operation.
type WriteResult struct {
	Err     error
	Key     string
	Version storage.Version
	Level   Level
	Latency time.Duration
	Acked   int // replica acks received by completion time
}

// Error values the store reports. They mirror Cassandra's exceptions.
type storeError string

func (e storeError) Error() string { return string(e) }

// Store-level failures.
const (
	// ErrTimeout: the coordinator did not assemble the required
	// acknowledgements within the request timeout.
	ErrTimeout = storeError("kv: operation timed out")
	// ErrUnavailable: fewer live replicas than the level requires.
	ErrUnavailable = storeError("kv: not enough live replicas for level")
	// ErrDeadline: the client-side per-operation deadline expired before
	// the result arrived.
	ErrDeadline = storeError("kv: operation deadline exceeded")
	// ErrCanceled: the operation's context was canceled before issue.
	ErrCanceled = storeError("kv: operation canceled")
	// ErrNotMember: Fail, Crash or Recover named no ring member.
	ErrNotMember = storeError("kv: node is not a member")
)
