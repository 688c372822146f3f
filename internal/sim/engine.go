// Package sim implements the deterministic discrete-event engine that
// drives all simulated experiments. Virtual time is a time.Duration since
// the start of the simulation; events scheduled at equal times fire in
// scheduling order, so a run is a pure function of the seed and the
// initial event set.
//
// The scheduler is built for throughput: events live in a value-typed
// slab recycled through a free list and are ordered by index-based 4-ary
// heaps whose entries carry their own (time, seq) keys, so the
// steady-state Schedule/fire cycle performs zero heap allocations and
// comparisons never touch the slab. Timer handles stay valid across slot
// reuse via generation counters.
//
// There are two heaps, split by delay at scheduling time: an event
// farAfter or more ahead is queued far, everything else near, and an
// entry never migrates. A loaded store parks tens of thousands of
// request timeouts seconds out while the messages and service completions
// that make up nearly every push and pop are due within milliseconds; by
// delay, the long timers stop deepening the heap the short events sift
// through. Firing takes the smaller of the two tops by (time, seq), so
// the order is that of a single queue whatever farAfter is: the split is
// a cost heuristic, not behaviour, and nothing outside this file sees it.
//
// A slot holds one callback form, cb(arg, payload): wide enough for a
// message delivery (the transports pack the endpoints into arg and hand
// the message over as payload, so an in-flight message occupies this
// slab and no second one), with Schedule's closure riding as the payload
// of runFunc.
package sim

import (
	"fmt"
	"time"

	"repro/internal/stats"
)

// Callback is the one form an event's action takes.
type Callback func(arg uint64, payload any)

// runFunc is the Callback of Schedule and ScheduleAt: the closure is the
// payload (a func value is pointer-shaped, so boxing it allocates nothing).
func runFunc(_ uint64, fn any) { fn.(func())() }

// event is a callback slot in the engine's slab.
type event struct {
	cb       Callback
	payload  any
	arg      uint64
	gen      uint32 // bumped on slot release; stale Timers see a mismatch
	nextFree int32
	pos      int32 // index of this slot's entry in its heap while queued
	heap     uint8 // which heap holds the entry while queued: near or far
}

// heapEntry is one queued event: the ordering key lives here so heap
// comparisons stay within the (compact, cache-resident) heap array.
type heapEntry struct {
	at   time.Duration
	seq  uint64 // tie-breaker: FIFO among equal times
	slot int32
}

func (a heapEntry) before(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

const (
	noIndex = int32(-1)

	// farAfter sorts events into the two heaps. Any value keeps the
	// firing order; this one sits between the slowest sampled message or
	// service delay (tens of milliseconds) and the shortest long timer
	// (the store's 2 s request timeout).
	farAfter = 500 * time.Millisecond

	near, far = 0, 1
)

// Timer is a handle to a scheduled event that can be stopped before it
// fires. The zero Timer is inert.
type Timer struct {
	eng  *Engine
	slot int32
	gen  uint32
}

// Stop cancels the timer; it reports whether the callback had not yet run
// (and now never will). The event is removed from its heap immediately:
// a canceled guard timer must not deepen the heap until its deadline, and
// Pending keeps counting only events that will fire.
func (t Timer) Stop() bool {
	e := t.eng
	if e == nil {
		return false
	}
	ev := &e.events[t.slot]
	if ev.gen != t.gen {
		return false
	}
	e.removeAt(ev.heap, ev.pos)
	e.release(t.slot)
	return true
}

// Engine is a discrete-event scheduler. It is not safe for concurrent use;
// all interaction happens from event callbacks or from the goroutine
// calling Run.
type Engine struct {
	now      time.Duration
	events   []event        // slab; heap entries index into it
	heaps    [2][]heapEntry // near and far 4-ary min-heaps ordered by (at, seq)
	freeHead int32
	seq      uint64
	rng      *stats.Source
	stopped  bool
	fired    uint64
}

// New returns an engine whose randomness derives entirely from seed.
func New(seed uint64) *Engine {
	return &Engine{rng: stats.NewSource(seed), freeHead: noIndex}
}

// Now reports the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// RNG returns the engine's root random source; components should derive
// their own sub-streams from it.
func (e *Engine) RNG() *stats.Source { return e.rng }

// Events reports how many events have fired so far.
func (e *Engine) Events() uint64 { return e.fired }

// Pending reports how many events are queued (stopped timers are
// removed eagerly, so every pending event will fire).
func (e *Engine) Pending() int { return len(e.heaps[near]) + len(e.heaps[far]) }

// next picks the heap whose top fires first; ok=false when both are empty.
func (e *Engine) next() (which uint8, ok bool) {
	n, f := e.heaps[near], e.heaps[far]
	if len(f) == 0 {
		return near, len(n) > 0
	}
	if len(n) == 0 || f[0].before(n[0]) {
		return far, true
	}
	return near, true
}

// NextAt reports the time of the earliest queued event (ok=false when the
// queue is empty): what a wall-clock driver arms its one runtime timer
// for between RunUntil calls.
func (e *Engine) NextAt() (at time.Duration, ok bool) {
	which, ok := e.next()
	if !ok {
		return 0, false
	}
	return e.heaps[which][0].at, true
}

// enqueue takes a slot from the free list (or grows the slab), fills it
// and queues it at time t with the next sequence number.
func (e *Engine) enqueue(t time.Duration, cb Callback, arg uint64, payload any) Timer {
	var slot int32
	if e.freeHead != noIndex {
		slot = e.freeHead
		e.freeHead = e.events[slot].nextFree
	} else {
		e.events = append(e.events, event{})
		slot = int32(len(e.events) - 1)
	}
	which := uint8(near)
	if t-e.now >= farAfter {
		which = far
	}
	ev := &e.events[slot]
	ev.cb, ev.arg, ev.payload, ev.heap = cb, arg, payload, which
	h := append(e.heaps[which], heapEntry{})
	e.heaps[which] = h
	e.siftUp(h, int32(len(h)-1), heapEntry{at: t, seq: e.seq, slot: slot})
	e.seq++
	return Timer{eng: e, slot: slot, gen: ev.gen}
}

// release returns an unqueued slot to the free list and invalidates
// outstanding Timer handles to it.
func (e *Engine) release(slot int32) {
	ev := &e.events[slot]
	ev.cb = nil
	ev.payload = nil
	ev.gen++
	ev.nextFree = e.freeHead
	e.freeHead = slot
}

// removeAt deletes and returns the entry at index i of one heap — index 0
// is the pop of Step, any other the O(log n) unqueue of Timer.Stop —
// preserving the order of everything else.
func (e *Engine) removeAt(which uint8, i int32) heapEntry {
	h := e.heaps[which]
	n := int32(len(h) - 1)
	gone, last := h[i], h[n]
	h = h[:n]
	e.heaps[which] = h
	if i == n {
		return gone
	}
	// The displaced last entry may belong above or below index i.
	if i > 0 && last.before(h[(i-1)>>2]) {
		e.siftUp(h, i, last)
	} else {
		e.siftDown(h, i, last)
	}
	return gone
}

// siftUp places en at index i of h or above, keeping slot positions current.
func (e *Engine) siftUp(h []heapEntry, i int32, en heapEntry) {
	for i > 0 {
		parent := (i - 1) >> 2
		if !en.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		e.events[h[i].slot].pos = i
		i = parent
	}
	h[i] = en
	e.events[en.slot].pos = i
}

// siftDown places en at index i of h or below, keeping slot positions current.
func (e *Engine) siftDown(h []heapEntry, i int32, en heapEntry) {
	n := int32(len(h))
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h[c].before(h[best]) {
				best = c
			}
		}
		if !h[best].before(en) {
			break
		}
		h[i] = h[best]
		e.events[h[i].slot].pos = i
		i = best
	}
	h[i] = en
	e.events[en.slot].pos = i
}

// Schedule runs fn after delay of virtual time and returns a stoppable
// handle. A negative delay panics: the past is immutable in a
// discrete-event world.
func (e *Engine) Schedule(delay time.Duration, fn func()) Timer {
	return e.ScheduleCall(delay, runFunc, 0, fn)
}

// ScheduleAt runs fn at absolute virtual time t.
func (e *Engine) ScheduleAt(t time.Duration, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	return e.enqueue(t, runFunc, 0, fn)
}

// ScheduleCall runs cb(arg, payload) after delay of virtual time. It is
// the allocation-free form for hot paths that dispatch through a
// pre-bound callback instead of a fresh closure: a transport's message
// deliveries, the store's client guards.
func (e *Engine) ScheduleCall(delay time.Duration, cb Callback, arg uint64, payload any) Timer {
	if delay < 0 {
		panic(fmt.Sprintf("sim: scheduling %v in the past", delay))
	}
	return e.enqueue(e.now+delay, cb, arg, payload)
}

// Step fires the next event; it reports false when the queue is empty or
// the engine is stopped.
func (e *Engine) Step() bool {
	which, ok := e.next()
	if !ok || e.stopped {
		return false
	}
	e.fire(which)
	return true
}

// fire pops the top of one heap and runs it at its time.
func (e *Engine) fire(which uint8) {
	en := e.removeAt(which, 0)
	ev := &e.events[en.slot]
	e.now = en.at
	e.fired++
	cb, arg, payload := ev.cb, ev.arg, ev.payload
	e.release(en.slot)
	cb(arg, payload)
}

// Run fires events until the queue drains or Stop is called.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with time ≤ t, then advances the clock to t.
// Events scheduled for later remain queued.
func (e *Engine) RunUntil(t time.Duration) {
	for !e.stopped {
		which, ok := e.next()
		if !ok || e.heaps[which][0].at > t {
			break
		}
		e.fire(which)
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d of virtual time.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now + d) }

// Stop halts the engine; Run and RunUntil return after the current event.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }
