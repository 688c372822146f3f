// Package live runs the same store nodes as the discrete-event simulator
// but over wall-clock time and goroutines. It has no transport of its
// own: the Engine embeds the simulator's netsim.Transport — its endpoint
// table, failure flags, partitions, traffic meter and latency sampling —
// built over an event queue (sim.Engine) that whoever takes the engine
// lock steps up to the wall clock, with a single runtime timer armed for
// the earliest entry so the queue also advances while nobody is calling
// in. A cluster-wide mutex serializes handler execution (node logic is
// written for serialized delivery). A delayed message, timer, scheduled
// function or client guard is an entry of that one time plane and runs
// at its deadline, in (deadline, scheduling order) as in the simulator;
// a failed node's self-messages still arrive (its clock is alive, its
// network is not). What is live-only is where a message waits when it
// is not on the time plane: the direct run queue and the TCP mesh
// (mesh.go). A refused message, and one on the run queue at Close, goes
// back through the transport to the store it carries (netsim.Codec).
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

	"repro/internal/netsim"
	"repro/internal/sim"
)

// clockEvery bounds how many run-queue deliveries share one clock
// reading: a pipeline's worth of operations drained under one lock
// acquisition still sees time pass, at one wall-clock read per few
// operations instead of several per operation.
const clockEvery = 64

// Engine implements kv.Transport over real time: the embedded transport
// over the time plane, stepped against the wall clock. Every method of
// the transport — Send and Fail as much as Partition — runs under the
// engine lock, inside Do or a handler; only Meter takes it itself.
type Engine struct {
	*netsim.Transport

	mu     sync.Mutex
	closed bool

	// The time plane. clock reads the wall (time since start for New,
	// since the Unix epoch for NewMesh); tq holds every pending event —
	// the waiting messages included — and the engine clock; timer is the
	// one runtime timer, armed for armedAt.
	clock   func() time.Duration
	tq      *sim.Engine
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

	// Scale is the rate of the engine clock against the wall: engine
	// time is wall time ÷ Scale, so 0.1 runs a WAN topology ten times
	// faster, every modeled latency, service time and timeout with it,
	// and what the store measures (operation latencies, throughput) is
	// engine time, comparable with the simulator's. 0 defaults to 1.
	// Set it before the engine is used.
	Scale float64
}

// queuedMsg is one run-queue entry; local marks a self-message. At five
// words it is wider than the compiler keeps in registers, so the hot
// path writes and reads it field by field rather than copying it whole.
type queuedMsg struct {
	to, from netsim.NodeID
	payload  any
	local    bool
}

// New returns a live engine over topo.
func New(topo *netsim.Topology, seed uint64) *Engine {
	start := time.Now()
	tq := sim.New(seed)
	return &Engine{
		Transport: netsim.NewTransport(tq, topo),
		clock:     func() time.Duration { return time.Since(start) },
		tq:        tq,
		Scale:     1,
	}
}

// Remote reports that another process serves id (the client endpoint and
// out-of-range ids are local): kv registers no handler for its idle local
// twin (whose ticks and any stray deliveries are dropped), and counts its
// applications by its acknowledgements.
func (e *Engine) Remote(id netsim.NodeID) bool {
	return e.localSet != nil && id >= 0 && int(id) < len(e.localSet) && !e.localSet[id]
}

// lock takes the engine lock and steps the time plane up to the wall
// clock: due events — functions, timers and delayed messages alike —
// run in their order before the caller does anything, and Now() holds
// still until the next step. RunUntil ignores a reading behind the
// queue's clock, which is the monotone clamp.
func (e *Engine) lock() {
	e.mu.Lock()
	if !e.closed {
		e.tq.RunUntil(e.wall())
	}
}

// wall reads the clock source as engine time: wall time ÷ Scale. At
// rate 1 the reading passes through exactly: NewMesh's readings, counted
// from the Unix epoch, are past float64's integer precision.
func (e *Engine) wall() time.Duration {
	d := e.clock()
	if s := e.Scale; s > 0 && s != 1 {
		d = time.Duration(float64(d) / s)
	}
	return d
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
// due, the drain delivers what that queued.
func (e *Engine) fire() {
	e.lock()
	defer e.mu.Unlock()
	e.armed = false
	e.drain()
}

// enqueue appends one delivery to the run queue.
func (e *Engine) enqueue(to, from netsim.NodeID, payload any, local bool) {
	e.runq = append(e.runq, queuedMsg{})
	q := &e.runq[len(e.runq)-1]
	q.to, q.from, q.payload, q.local = to, from, payload, local
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
		q := &e.runq[i]
		to, from, payload, local := q.to, q.from, q.payload, q.local
		q.payload = nil // the slot must not pin the box
		if i%clockEvery == clockEvery-1 {
			e.tq.RunUntil(e.wall())
		}
		e.Deliver(from, to, payload, local)
	}
	e.runq = e.runq[:0]
	if next, ok := e.tq.NextAt(); ok && !(e.armed && e.armedAt <= next) {
		wait := next - e.tq.Now()
		if s := e.Scale; s > 0 && s != 1 {
			wait = time.Duration(float64(wait) * s)
		}
		if e.timer == nil {
			e.timer = time.AfterFunc(wait, e.fire)
		} else {
			e.timer.Reset(wait)
		}
		e.armed, e.armedAt = true, next
	}
	if e.mesh != nil {
		e.mesh.flushLocked()
	}
}

// Send is the transport's, with live routing after Admit: in direct mode
// a message for a node another process serves leaves over the mesh, and
// any other goes on the run queue — a remote node with no mesh route
// included, which Deliver then drops. The caller holds the engine lock
// (it always does: sends originate inside handlers or Do blocks).
func (e *Engine) Send(from, to netsim.NodeID, payload any) {
	if !e.direct {
		e.Transport.Send(from, to, payload)
		return
	}
	if _, ok := e.Admit(from, to, payload); !ok {
		e.Release(payload)
		return
	}
	if e.mesh != nil && e.Remote(to) && e.mesh.send(from, to, payload) {
		return
	}
	e.enqueue(to, from, payload, false)
}

// SendLocal schedules a self-message (timer) on id; a zero delay goes
// straight onto the run queue.
func (e *Engine) SendLocal(id netsim.NodeID, payload any, delay time.Duration) {
	if delay <= 0 {
		e.enqueue(id, id, payload, true)
		return
	}
	e.Transport.SendLocal(id, payload, delay)
}

// Meter snapshots the traffic meter under the engine lock.
func (e *Engine) Meter() netsim.TrafficMeter {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.Transport.Meter()
}

// discard empties a closed engine: run-queue message boxes go back to
// the carried store, and the time plane — waiting messages (their
// boxes are left to the collector), pending timers and the closures and
// operation slots they pin — is cleared. Handles still held by callers
// stop nothing.
func (e *Engine) discard() {
	for _, q := range e.runq {
		e.Release(q.payload)
	}
	e.runq = nil
	e.tq.Clear()
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
