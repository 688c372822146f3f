package netsim

import (
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Handler receives messages addressed to a node. Handlers run one at a
// time per transport (the simulation is single-threaded), so node state
// needs no locking.
type Handler func(from NodeID, payload any)

// Codec is the store a transport carries (kv.Cluster): a refused message
// goes back to its pools through ReleaseMessage, a transport that spans
// processes frames the rest with Marshal/UnmarshalMessage, and every
// network send is metered at MessageSize — for a kind with a wire form,
// the length of the frame MarshalMessage writes for it. The size takes
// the addresses because the frame carries them as varints.
type Codec interface {
	ReleaseMessage(payload any)
	MarshalMessage(buf []byte, from, to NodeID, payload any) ([]byte, bool)
	UnmarshalMessage(kind byte, body []byte) (from, to NodeID, payload any, err error)
	MessageSize(from, to NodeID, payload any) int
}

// Transport delivers messages between topology nodes over the
// discrete-event engine, sampling per-class latency laws, applying
// partitions and node failures, and metering traffic for the cost
// model. It is the one delivery model of the store: the simulator steps
// its engine in virtual time, the live engine (internal/live) steps the
// same transport against the wall clock and only changes where a
// zero-delay or cross-process message waits. Handler and failure
// lookups are dense slices indexed by NodeID+1 (ClientID is -1), and the
// partition check short-circuits when nothing is configured. An
// in-flight message is one engine event and nothing else: its endpoints
// ride packed in the event's argument (route), the message is the
// event's payload, so the transport keeps no slab of its own and a
// delivery touches one slot. A message refused at departure or on
// arrival has one fate: its box goes back to the carried Codec.
type Transport struct {
	eng   *sim.Engine
	topo  *Topology
	rng   *stats.Source
	meter TrafficMeter

	handlers []Handler // indexed by NodeID+1
	down     []bool    // indexed by NodeID+1, always as long as handlers
	downN    int       // number of nodes marked down

	partition map[[2]NodeID]bool

	codec Codec // the store carried (Carry); nil until then

	deliverCb sim.Callback // pre-bound t.deliver, allocated once
}

// NewTransport wires a transport for topo over eng.
func NewTransport(eng *sim.Engine, topo *Topology) *Transport {
	t := &Transport{
		eng:      eng,
		topo:     topo,
		rng:      eng.RNG().Stream("netsim.transport"),
		handlers: make([]Handler, topo.N()+1),
		down:     make([]bool, topo.N()+1),
	}
	t.deliverCb = t.deliver
	return t
}

// slot maps a NodeID (ClientID = -1 included) onto its dense index.
func slot(id NodeID) int { return int(id) + 1 }

// grow extends the endpoint tables to reach id and returns its slot.
func (t *Transport) grow(id NodeID) int {
	for slot(id) >= len(t.handlers) {
		t.handlers = append(t.handlers, nil)
		t.down = append(t.down, false)
	}
	return slot(id)
}

// Register installs the message handler for a node (or for ClientID).
func (t *Transport) Register(id NodeID, h Handler) { t.handlers[t.grow(id)] = h }

// Topology returns the topology the transport runs over.
func (t *Transport) Topology() *Topology { return t.topo }

// Meter returns a snapshot of the traffic meter.
func (t *Transport) Meter() TrafficMeter { return t.meter.Snapshot() }

// Carry records the store built on the transport; kv.New calls it.
func (t *Transport) Carry(c Codec) { t.codec = c }

// Codec returns the carried store, nil before Carry.
func (t *Transport) Codec() Codec { return t.codec }

// Remote reports whether another process serves id: never, in one process.
func (t *Transport) Remote(NodeID) bool { return false }

// Release returns a refused message's box to the carried store, if any.
func (t *Transport) Release(payload any) {
	if t.codec != nil {
		t.codec.ReleaseMessage(payload)
	}
}

// Fail marks a node down: messages to and from it are dropped until
// Recover. The node's local timers keep firing (its clock is alive, its
// network is not), which models a network-isolated rather than crashed
// machine; crashed machines are modeled at the store layer.
func (t *Transport) Fail(id NodeID) {
	if i := t.grow(id); !t.down[i] {
		t.down[i] = true
		t.downN++
	}
}

// Recover clears the failure of id.
func (t *Transport) Recover(id NodeID) {
	if i := t.grow(id); t.down[i] {
		t.down[i] = false
		t.downN--
	}
}

// Partition blocks traffic between every pair in a × b (both ways).
func (t *Transport) Partition(a, b []NodeID) {
	if t.partition == nil {
		t.partition = make(map[[2]NodeID]bool)
	}
	for _, x := range a {
		for _, y := range b {
			t.partition[[2]NodeID{x, y}] = true
			t.partition[[2]NodeID{y, x}] = true
		}
	}
}

// Heal removes all partitions.
func (t *Transport) Heal() { t.partition = nil }

// route packs a message's endpoints into the one integer an engine event
// carries: the dense indexes (NodeID+1, so ClientID is 0) of from and to,
// and whether it is a self-message.
func route(from, to NodeID, local bool) uint64 {
	arg := uint64(slot(from))<<32 | uint64(slot(to))<<1
	if local {
		arg |= 1
	}
	return arg
}

// unroute is the inverse of route.
func unroute(arg uint64) (from, to NodeID, local bool) {
	return NodeID(arg>>32) - 1, NodeID(uint32(arg)>>1) - 1, arg&1 != 0
}

// deliver is the engine callback of every scheduled delivery.
func (t *Transport) deliver(arg uint64, payload any) {
	from, to, local := unroute(arg)
	t.Deliver(from, to, payload, local)
}

// Deliver hands a message that has arrived to its destination handler.
// to may be any id (a peer frame can name one the tables do not reach).
// A network message to a failed node is dropped — failure is re-checked
// at arrival, so a node that died while the message was in flight does
// not receive it — and so is one to an unregistered endpoint, both
// counted; a self-message (local) reaches even a failed node, and one
// without a handler is not traffic and is not counted. A dropped
// message's box goes back to the carried store.
func (t *Transport) Deliver(from, to NodeID, payload any, local bool) {
	if i := uint(slot(to)); i < uint(len(t.handlers)) && (local || t.downN == 0 || !t.down[i]) {
		if h := t.handlers[i]; h != nil {
			h(from, payload)
			return
		}
	}
	if !local {
		t.meter.Dropped++
	}
	t.Release(payload)
}

// Admit is a network send's departure: it meters payload on the
// from → to link class, at the size the carried codec gives it (a
// transport that carries no store counts the message and no bytes), and
// reports whether the message leaves, which it does not when either end
// is failed or a partition separates them (counted as dropped).
func (t *Transport) Admit(from, to NodeID, payload any) (LinkClass, bool) {
	class := t.topo.Class(from, to)
	size := 0
	if t.codec != nil {
		size = t.codec.MessageSize(from, to, payload)
	}
	t.meter.Count(class, size)
	if t.downN > 0 && (t.down[slot(from)] || t.down[slot(to)]) ||
		len(t.partition) > 0 && t.partition[[2]NodeID{from, to}] {
		t.meter.Dropped++
		return class, false
	}
	return class, true
}

// Send delivers payload from → to after a sampled network delay,
// metered by Admit. A message Admit refuses is released, not delivered,
// as is one Deliver drops on arrival.
func (t *Transport) Send(from, to NodeID, payload any) {
	class, ok := t.Admit(from, to, payload)
	if !ok {
		t.Release(payload)
		return
	}
	delay := t.topo.Latency.Law(class).Sample(t.rng)
	t.eng.ScheduleCall(delay, t.deliverCb, route(from, to, false), payload)
}

// SendLocal schedules a self-message on node id after delay, bypassing
// the network (no metering, no loss). It is the timer primitive node
// logic uses; cancellation is expressed by the receiver ignoring stale
// generations.
func (t *Transport) SendLocal(id NodeID, payload any, delay time.Duration) {
	t.eng.ScheduleCall(delay, t.deliverCb, route(id, id, true), payload)
}

// Now reports the engine's virtual time.
func (t *Transport) Now() time.Duration { return t.eng.Now() }

// Schedule runs fn after d of virtual time; it lets store-level
// components (failure detector updates, experiment phases) defer work
// without owning the engine.
func (t *Transport) Schedule(d time.Duration, fn func()) { t.eng.Schedule(d, fn) }

// ScheduleStopCall arms a pre-bound callback with a slab argument after
// d and hands back the engine's value-typed cancelable timer. Guard
// timers that almost always get canceled (kv.Cluster arms one per client
// operation) use it so the event queue is not dominated by dead timers
// waiting to fire as no-ops, and arming one allocates nothing.
func (t *Transport) ScheduleStopCall(d time.Duration, cb sim.Callback, arg uint64) sim.Timer {
	return t.eng.ScheduleCall(d, cb, arg, nil)
}
