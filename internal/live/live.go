// Package live runs the same store nodes as the discrete-event simulator
// but over wall-clock time and goroutines. A cluster-wide mutex
// serializes handler execution (node logic is written for serialized
// delivery), and everything that happens later — latency-sampled
// deliveries, timer self-messages, scheduled functions, client guards —
// is an entry of ONE time plane: an embedded sim.Engine event queue (the
// simulator's slab, its timing wheel for what is due soon and its heap
// for the timeouts seconds out; allocation-free, eagerly cancelable) that
// whoever takes the engine lock steps up to the wall clock, with a single
// runtime timer armed for the earliest entry so the queue also advances
// while nobody is calling in. A waiting message is a queue entry and
// nothing more — endpoints packed in the event's argument, the message
// its payload — so this package keeps no slab of its own.
//
// The clock contract is the simulator's: time advances between events,
// not inside a handler. Now() is the queue's clock — read from the wall
// once per lock acquisition and again every clockEvery run-queue
// deliveries of a long drain, never decreasing — so all the timestamps
// one handler takes agree, and a backward step of the host clock stalls
// the engine's time instead of producing deadlines in the past.
//
// The package exists to demonstrate — and race-test — that the adaptive
// middleware is engine-agnostic: the monitor, controllers and tuners run
// unchanged against a live cluster, and (mesh.go) to serve it for real.
package live

import (
	"sync"
	"time"

	"repro/internal/kv"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
)

// clockEvery bounds how many run-queue deliveries share one clock
// reading: a pipeline's worth of operations drained under one lock
// acquisition still sees time pass, at one wall-clock read per few
// operations instead of several per operation.
const clockEvery = 64

// Engine implements kv.Transport over real time.
type Engine struct {
	mu       sync.Mutex
	topo     *netsim.Topology
	rng      *stats.Source
	handlers []netsim.Handler // indexed by NodeID+1, as in netsim.Transport
	down     []bool           // indexed like handlers, always as long
	meter    netsim.TrafficMeter
	closed   bool

	// The time plane. clock reads the wall (time since start for New,
	// since the Unix epoch for NewMesh); tq holds every pending event —
	// the waiting messages included — and the engine clock; timer is the
	// one runtime timer, armed for armedAt.
	clock   func() time.Duration
	tq      *sim.Engine
	dueCb   sim.Callback // pre-bound e.due, allocated once
	timer   *time.Timer
	armed   bool
	armedAt time.Duration

	// runq is the zero-delay delivery FIFO the lock holder drains before
	// releasing the lock. Serving mode (NewMesh) sets direct, which puts
	// every in-process Send on it instead of sampling a network latency;
	// localSet marks the nodes this process serves (nil: all of them)
	// and mesh carries messages addressed to the rest over TCP.
	runq     []queuedMsg
	direct   bool
	localSet []bool
	mesh     *mesh

	// cluster is the store built on this engine (Carry): payloads are
	// its pooled boxes, so the engine returns what it does not deliver,
	// and encodes and decodes mesh frames, through it. nil until then.
	cluster *kv.Cluster

	// Scale compresses sampled network latencies (0.1 runs a WAN
	// topology ten times faster); 0 defaults to 1.
	Scale float64
}

// queuedMsg is one run-queue entry.
type queuedMsg struct {
	to, from netsim.NodeID
	payload  any
}

// New returns a live engine over topo.
func New(topo *netsim.Topology, seed uint64) *Engine {
	start := time.Now()
	e := &Engine{
		topo:     topo,
		rng:      stats.NewSource(seed).Stream("live"),
		handlers: make([]netsim.Handler, topo.N()+1),
		down:     make([]bool, topo.N()+1),
		clock:    func() time.Duration { return time.Since(start) },
		tq:       sim.New(seed),
		Scale:    1,
	}
	e.dueCb = e.due
	return e
}

// Now reports the engine clock. Like every Transport method it runs
// under the engine lock.
func (e *Engine) Now() time.Duration { return e.tq.Now() }

// Register installs a node handler. It must run under the engine lock:
// cluster construction happens inside Do, so this does not lock itself
// (the mutex is not reentrant). In a multi-process deployment the
// cluster constructs actors for every ring member, but only the nodes
// this process serves are registered: a remote node's idle local twin
// never receives a message (its ticks and any stray deliveries are
// dropped), the peer process serves it instead.
func (e *Engine) Register(id netsim.NodeID, h netsim.Handler) {
	if !e.isLocal(id) {
		return
	}
	e.handlers[e.grow(id)] = h
}

// grow extends handlers and down to reach id (ClientID or above).
func (e *Engine) grow(id netsim.NodeID) int {
	for int(id)+1 >= len(e.handlers) {
		e.handlers = append(e.handlers, nil)
		e.down = append(e.down, false)
	}
	return int(id) + 1
}

// Carry records the cluster built on the engine; kv.New calls it, under
// the engine lock like every cluster interaction.
func (e *Engine) Carry(c *kv.Cluster) { e.cluster = c }

// release returns an undelivered payload's box to the cluster; with no
// cluster it is left to the collector.
func (e *Engine) release(payload any) {
	if e.cluster != nil {
		e.cluster.ReleaseMessage(payload)
	}
}

// isLocal reports whether this process serves id (the client endpoint
// and out-of-range ids count as local).
func (e *Engine) isLocal(id netsim.NodeID) bool {
	return e.localSet == nil || id < 0 || int(id) >= len(e.localSet) || e.localSet[id]
}

// Remote reports that another process serves id (kv counts such a
// replica's applications by its acknowledgements).
func (e *Engine) Remote(id netsim.NodeID) bool { return !e.isLocal(id) }

// lock takes the engine lock and steps the time plane up to the wall
// clock: due events run (functions inline, messages onto the run queue)
// before the caller does anything, and Now() holds still until the next
// step. RunUntil ignores a reading behind the queue's clock, which is
// the monotone clamp.
func (e *Engine) lock() {
	e.mu.Lock()
	if !e.closed {
		e.tq.RunUntil(e.clock())
	}
}

// Do runs fn holding the engine lock; external drivers (workloads, tests)
// use it to interact with cluster state safely.
func (e *Engine) Do(fn func()) {
	e.lock()
	defer e.mu.Unlock()
	fn()
	e.drain()
}

// fire is the runtime timer's callback: taking the lock runs whatever is
// due, the drain delivers it.
func (e *Engine) fire() {
	e.lock()
	defer e.mu.Unlock()
	e.armed = false
	e.drain()
}

// enqueue appends one delivery to the run queue.
func (e *Engine) enqueue(to, from netsim.NodeID, payload any) {
	e.runq = append(e.runq, queuedMsg{to: to, from: from, payload: payload})
}

// drain runs queued deliveries until the run queue is empty (handlers
// may enqueue more), re-arms the runtime timer for the earliest pending
// event and hands any staged peer frames to the mesh writers. Every
// path that takes the engine lock drains before releasing it, so handler
// execution stays serialized and non-reentrant.
func (e *Engine) drain() {
	if e.closed {
		e.discard()
		return
	}
	for i := 0; i < len(e.runq); i++ {
		q := e.runq[i]
		e.runq[i] = queuedMsg{}
		if i%clockEvery == clockEvery-1 {
			e.tq.RunUntil(e.clock())
		}
		// A peer frame can name any id: bound it before indexing.
		if i := uint(q.to + 1); i < uint(len(e.handlers)) && e.handlers[i] != nil && !e.down[i] {
			e.handlers[i](q.from, q.payload)
		} else {
			e.release(q.payload)
		}
	}
	e.runq = e.runq[:0]
	if next, ok := e.tq.NextAt(); ok && !(e.armed && e.armedAt <= next) {
		if e.timer == nil {
			e.timer = time.AfterFunc(next-e.tq.Now(), e.fire)
		} else {
			e.timer.Reset(next - e.tq.Now())
		}
		e.armed, e.armedAt = true, next
	}
	if e.mesh != nil {
		e.mesh.flushLocked()
	}
}

// scale applies the latency compression to a delay.
func (e *Engine) scale(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	if s := e.Scale; s > 0 {
		return time.Duration(float64(d) * s)
	}
	return d
}

// deliverAfter queues a message on the time plane until the engine clock
// has advanced by delay.
func (e *Engine) deliverAfter(delay time.Duration, to, from netsim.NodeID, payload any) {
	e.tq.ScheduleCall(delay, e.dueCb, netsim.Route(from, to, false), payload)
}

// due is the time-plane callback of every waiting message: it joins the
// run queue behind what is already there.
func (e *Engine) due(arg uint64, payload any) {
	from, to, _ := netsim.Unroute(arg)
	e.enqueue(to, from, payload)
}

// Send delivers payload after a sampled network delay (none in direct
// mode). The caller must hold the engine lock (it always does: sends
// originate inside handlers or Do blocks).
func (e *Engine) Send(from, to netsim.NodeID, payload any, size int) {
	class := e.topo.Class(from, to)
	e.meter.Count(class, size)
	if e.mesh != nil && !e.isLocal(to) {
		e.mesh.send(from, to, payload)
		return
	}
	if e.down[from+1] || e.down[to+1] {
		e.meter.Dropped++
		return
	}
	if e.direct {
		e.enqueue(to, from, payload)
		return
	}
	e.deliverAfter(e.scale(e.topo.Latency.Law(class).Sample(e.rng)), to, from, payload)
}

// SendLocal schedules a self-message (timer) on id; a zero delay goes
// straight onto the run queue.
func (e *Engine) SendLocal(id netsim.NodeID, payload any, delay time.Duration) {
	if delay = e.scale(delay); delay == 0 {
		e.enqueue(id, id, payload)
		return
	}
	e.deliverAfter(delay, id, id, payload)
}

// Schedule runs fn under the engine lock after delay.
func (e *Engine) Schedule(d time.Duration, fn func()) { e.tq.Schedule(e.scale(d), fn) }

// ScheduleStopCall arms cb(arg) after d and returns the queue's
// value-typed cancelable handle (same contract as the simulated
// transport's; the client hot path arms one guard per operation through
// it). Arming and stopping both run under the engine lock.
func (e *Engine) ScheduleStopCall(d time.Duration, cb sim.Callback, arg uint64) sim.Timer {
	return e.tq.ScheduleCall(e.scale(d), cb, arg, nil)
}

// Fail drops traffic to and from id (kv.Cluster's failure injection uses
// it through the failer interface). Like all cluster interactions it must
// run under the engine lock (inside Do or a handler).
func (e *Engine) Fail(id netsim.NodeID) { e.down[e.grow(id)] = true }

// Recover reverses Fail; same locking contract as Fail.
func (e *Engine) Recover(id netsim.NodeID) { e.down[e.grow(id)] = false }

// Meter snapshots the traffic meter.
func (e *Engine) Meter() netsim.TrafficMeter {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.meter.Snapshot()
}

// discard empties a closed engine: run-queue message boxes go back to
// the cluster's free lists, and the time plane — waiting messages (their
// boxes are left to the collector), pending timers and the closures and
// operation slots they pin — is dropped whole. Handles still held by
// callers stop against the orphaned queue, harmlessly.
func (e *Engine) discard() {
	for _, q := range e.runq {
		e.release(q.payload)
	}
	e.runq = nil
	if e.tq.Pending() > 0 {
		e.tq = sim.New(0)
	}
}

// Close stops delivering: pending work is discarded and anything sent or
// scheduled afterwards is dropped by the next drain. A mesh engine
// additionally closes its peer connections and joins the reader/writer
// goroutines. Closing twice is a no-op.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	if e.timer != nil {
		e.timer.Stop()
	}
	e.discard()
	e.mu.Unlock()
	if e.mesh != nil {
		e.mesh.shutdown()
	}
}
