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

// Transport delivers messages between topology nodes over the
// discrete-event engine, sampling per-class latency laws, applying
// partitions and node failures, and metering traffic for the cost
// model. Handler and failure lookups are dense slices indexed by
// NodeID+1 (ClientID is -1), and the partition check short-circuits
// when nothing is configured. An in-flight message is one engine event and
// nothing else: its endpoints ride packed in the event's argument (Route),
// the message is the event's payload, so the transport keeps no slab of
// its own and a delivery touches one slot.
type Transport struct {
	eng   *sim.Engine
	topo  *Topology
	rng   *stats.Source
	meter TrafficMeter

	handlers []Handler // indexed by NodeID+1
	down     []bool    // indexed by NodeID+1
	downN    int       // number of nodes marked down

	partition map[[2]NodeID]bool

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

// Register installs the message handler for a node (or for ClientID).
func (t *Transport) Register(id NodeID, h Handler) {
	for int(id)+1 >= len(t.handlers) {
		t.handlers = append(t.handlers, nil)
		t.down = append(t.down, false)
	}
	t.handlers[slot(id)] = h
}

// Topology returns the topology the transport runs over.
func (t *Transport) Topology() *Topology { return t.topo }

// Meter returns a snapshot of the traffic meter.
func (t *Transport) Meter() TrafficMeter { return t.meter.Snapshot() }

// Fail marks a node down: messages to and from it are dropped until
// Recover. The node's local timers keep firing (its clock is alive, its
// network is not), which models a network-isolated rather than crashed
// machine; crashed machines are modeled at the store layer.
func (t *Transport) Fail(id NodeID) {
	if !t.down[slot(id)] {
		t.down[slot(id)] = true
		t.downN++
	}
}

// Recover clears the failure of id.
func (t *Transport) Recover(id NodeID) {
	if t.down[slot(id)] {
		t.down[slot(id)] = false
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

// Route packs a message's endpoints into the one integer an engine event
// carries: the dense indexes (NodeID+1, so ClientID is 0) of from and to,
// and whether it is a self-message.
func Route(from, to NodeID, local bool) uint64 {
	arg := uint64(slot(from))<<32 | uint64(slot(to))<<1
	if local {
		arg |= 1
	}
	return arg
}

// Unroute is the inverse of Route.
func Unroute(arg uint64) (from, to NodeID, local bool) {
	return NodeID(arg>>32) - 1, NodeID(uint32(arg)>>1) - 1, arg&1 != 0
}

// deliver hands a message to its destination handler; it is the engine
// callback of every scheduled delivery.
func (t *Transport) deliver(arg uint64, payload any) {
	from, to, local := Unroute(arg)
	if !local && t.downN > 0 && t.down[slot(to)] {
		// Re-check failure at delivery: a node that died mid-flight does
		// not receive the message.
		t.meter.Dropped++
		return
	}
	if h := t.handlers[slot(to)]; h != nil {
		h(from, payload)
	} else if !local {
		t.meter.Dropped++
	}
}

// Send delivers payload from → to after a sampled network delay. size is
// the wire size in bytes, used for metering.
// Messages to unregistered or failed endpoints are counted as dropped.
func (t *Transport) Send(from, to NodeID, payload any, size int) {
	class := t.topo.Class(from, to)
	t.meter.Count(class, size)
	if t.downN > 0 && (t.down[slot(from)] || t.down[slot(to)]) {
		t.meter.Dropped++
		return
	}
	if len(t.partition) > 0 && t.partition[[2]NodeID{from, to}] {
		t.meter.Dropped++
		return
	}
	delay := t.topo.Latency.Law(class).Sample(t.rng)
	t.eng.ScheduleCall(delay, t.deliverCb, Route(from, to, false), payload)
}

// SendLocal schedules a self-message on node id after delay, bypassing
// the network (no metering, no loss). It is the timer primitive node
// logic uses; cancellation is expressed by the receiver ignoring stale
// generations.
func (t *Transport) SendLocal(id NodeID, payload any, delay time.Duration) {
	t.eng.ScheduleCall(delay, t.deliverCb, Route(id, id, true), payload)
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
