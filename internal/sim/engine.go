// Package sim implements the deterministic discrete-event engine that
// drives all simulated experiments. Virtual time is a time.Duration since
// the start of the simulation; events scheduled at equal times fire in
// scheduling order, so a run is a pure function of the seed and the
// initial event set.
//
// The scheduler is built for throughput: events live in a value-typed
// slab recycled through a free list, one cache line each, and the
// steady-state Schedule/fire cycle performs zero heap allocations. Timer
// handles stay valid across slot reuse via generation counters.
//
// There are two queues over the one slab, split by delay at scheduling
// time: an event farAfter or more ahead is queued far, everything else
// near, and an entry never migrates. Firing takes the earlier of the two
// fronts by (time, seq), so the order is that of a single queue whatever
// farAfter is: the split is a cost heuristic, not behaviour, and nothing
// outside this file sees it.
//
// The near queue is a timing wheel. The messages and service completions
// that make up nearly every push and pop of a loaded store are due within
// milliseconds, about a thousand of them pending at once, and all of them
// inside [now, now+farAfter) — dense in time and bounded, so wheelSlots
// buckets of slotWidth cover them without a lap: the events pending at
// any instant occupy distinct slots. A slot is a list threaded through
// the slab, sorted by (time, seq); a new event carries the newest seq, so
// it links at the tail unless an event already there is due strictly
// later. A two-level occupancy bitmap finds the next occupied slot in a
// few word operations. Schedule, fire and Stop are O(1) and compare no
// keys beyond the slot's own few entries.
//
// The far queue is an index-based 4-ary heap whose entries carry their
// own (time, seq) keys. A loaded store arms a request timeout and a
// client guard seconds out for every operation — 600 000 per replay, a
// thousand or two standing — and stops nearly all of them long before
// they are due. Stop is O(log 1 000) there against O(1) on the wheel, but
// nothing ever pops through them, and a wheel reaching 4 s at this slot
// width would be eight times the memory for events that almost never
// fire.
//
// A slot holds one callback form, cb(arg, payload): wide enough for a
// message delivery (the transports pack the endpoints into arg and hand
// the message over as payload, so an in-flight message occupies this
// slab and no second one), with Schedule's closure riding as the payload
// of runFunc.
package sim

import (
	"fmt"
	"math/bits"
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
	cb      Callback
	payload any
	arg     uint64
	at      time.Duration
	seq     uint64 // tie-breaker: FIFO among equal times
	gen     uint32 // bumped on slot release; stale Timers see a mismatch
	// Queued near, next and prev link the wheel slot's list: next is
	// noIndex at the tail, and the head's prev is the tail. Queued far,
	// prev is the index of this slot's entry in the heap. Free, next is
	// the next free slot.
	next, prev int32
	far        bool // which queue holds the event while queued
}

// heapEntry is one event queued far: the ordering key lives here so heap
// comparisons stay within the (compact, cache-resident) heap array.
type heapEntry struct {
	at   time.Duration
	seq  uint64
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

	// farAfter sorts events into the two queues. Any value the wheel spans
	// keeps the firing order; this one sits between the slowest sampled
	// message or service delay (tens of milliseconds) and the shortest
	// long timer (the store's 2 s request timeout).
	farAfter = 500 * time.Millisecond

	// The wheel: wheelSlots slots of slotWidth (16.384 µs) each, 536.9 ms
	// around. Half the near events of a loaded replay are due within a
	// millisecond, so slots fill: a link there finds its slot occupied
	// three times in four, and walks back past one event on average (44
	// at most) to its place.
	slotShift  = 14
	slotWidth  = time.Duration(1) << slotShift
	wheelSlots = 1 << 15
	wheelMask  = wheelSlots - 1
	wheelSpan  = wheelSlots * slotWidth
	occWords   = wheelSlots >> 6 // one occupancy bit per slot
	sumWords   = occWords >> 6   // one summary bit per occupancy word

	// The near events pending at any instant lie in [now, now+farAfter):
	// at most farAfter/slotWidth + 2 consecutive slots, which must not
	// lap. A negative constant does not convert.
	_ = uint64(wheelSpan - farAfter - slotWidth - 1)
)

// Timer is a handle to a scheduled event that can be stopped before it
// fires. The zero Timer is inert.
type Timer struct {
	eng  *Engine
	slot int32
	gen  uint32
}

// Stop cancels the timer; it reports whether the callback had not yet run
// (and now never will). The event is unqueued immediately: a canceled
// guard timer must not deepen the heap until its deadline, and Pending
// keeps counting only events that will fire.
func (t Timer) Stop() bool {
	e := t.eng
	if e == nil {
		return false
	}
	ev := &e.events[t.slot]
	if ev.gen != t.gen {
		return false
	}
	if ev.far {
		e.removeAt(ev.prev)
	} else {
		e.unlink(t.slot, ev)
	}
	e.release(t.slot)
	return true
}

// Engine is a discrete-event scheduler. It is not safe for concurrent use;
// all interaction happens from event callbacks or from the goroutine
// calling Run.
type Engine struct {
	now      time.Duration
	events   []event     // slab; both queues index into it
	far      []heapEntry // 4-ary min-heap ordered by (at, seq)
	freeHead int32
	seq      uint64
	rng      *stats.Source
	fired    uint64

	// The wheel. While it holds events, slot(now) ≤ scan ≤ the slot of
	// the earliest of them, counted in slots since time zero: the pending
	// events then lie less than a lap ahead of scan, so the first occupied
	// slot at or after scan, going around, holds the earliest.
	nearN int
	scan  int64
	sum   [sumWords]uint64  // bit w: occ[w] != 0
	occ   [occWords]uint64  // bit i: heads[i] != 0
	heads [wheelSlots]int32 // slab slot of each list's head, plus one: zero is empty
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
func (e *Engine) Pending() int { return e.nearN + len(e.far) }

// next reports the slab slot and the time of the event that fires first,
// noIndex when nothing is queued, and advances scan to the wheel's
// earliest event. With the wheel empty — a serving engine's queue between
// batches — it reads the far heap's top and no slab slot.
func (e *Engine) next() (slot int32, at time.Duration) {
	if e.nearN == 0 {
		if len(e.far) == 0 {
			return noIndex, 0
		}
		return e.far[0].slot, e.far[0].at
	}
	h := e.heads[e.scan&wheelMask]
	if h == 0 {
		i := e.occupiedFrom(uint32(e.scan & wheelMask))
		e.scan += int64(i-uint32(e.scan)) & wheelMask
		h = e.heads[i]
	}
	ev := &e.events[h-1]
	if len(e.far) > 0 {
		if f := &e.far[0]; f.at < ev.at || f.at == ev.at && f.seq < ev.seq {
			return f.slot, f.at
		}
	}
	return h - 1, ev.at
}

// occupiedFrom returns the first occupied wheel slot at or after i, going
// around. The wheel must not be empty.
func (e *Engine) occupiedFrom(i uint32) uint32 {
	w := i >> 6
	if b := e.occ[w] >> (i & 63); b != 0 {
		return i + uint32(bits.TrailingZeros64(b))
	}
	// The next non-zero word after w; all the way around, w itself.
	w = (w + 1) & (occWords - 1)
	s := w >> 6
	b := e.sum[s] >> (w & 63) << (w & 63)
	for b == 0 {
		s = (s + 1) & (sumWords - 1)
		b = e.sum[s]
	}
	w = s<<6 + uint32(bits.TrailingZeros64(b))
	return w<<6 + uint32(bits.TrailingZeros64(e.occ[w]))
}

// NextAt reports the time of the earliest queued event (ok=false when the
// queue is empty): what a wall-clock driver arms its one runtime timer
// for between RunUntil calls.
func (e *Engine) NextAt() (at time.Duration, ok bool) {
	slot, at := e.next()
	return at, slot != noIndex
}

// enqueue takes a slot from the free list (or grows the slab), fills it
// and queues it at time t with the next sequence number.
func (e *Engine) enqueue(t time.Duration, cb Callback, arg uint64, payload any) Timer {
	var slot int32
	if e.freeHead != noIndex {
		slot = e.freeHead
		e.freeHead = e.events[slot].next
	} else {
		e.events = append(e.events, event{})
		slot = int32(len(e.events) - 1)
	}
	ev := &e.events[slot]
	ev.cb, ev.arg, ev.payload = cb, arg, payload
	ev.at, ev.seq = t, e.seq
	e.seq++
	ev.far = t-e.now >= farAfter
	if ev.far {
		e.far = append(e.far, heapEntry{})
		e.siftUp(int32(len(e.far)-1), heapEntry{at: t, seq: ev.seq, slot: slot})
	} else {
		e.link(slot, ev)
	}
	return Timer{eng: e, slot: slot, gen: ev.gen}
}

// Clear drops every queued event without running it, releasing what the
// events hold; handles to them stop nothing afterwards. The clock stays
// where it is.
func (e *Engine) Clear() {
	for slot, _ := e.next(); slot != noIndex; slot, _ = e.next() {
		Timer{eng: e, slot: slot, gen: e.events[slot].gen}.Stop()
	}
}

// release returns an unqueued slot to the free list and invalidates
// outstanding Timer handles to it.
func (e *Engine) release(slot int32) {
	ev := &e.events[slot]
	ev.cb = nil
	ev.payload = nil
	ev.gen++
	ev.next = e.freeHead
	e.freeHead = slot
}

// link queues the event ev, in slab slot `slot`, on the wheel. It holds
// the newest seq, so its place in the slot's list is behind every event
// not due strictly later: the walk back from the tail passes none in an
// equal-instant burst.
func (e *Engine) link(slot int32, ev *event) {
	s := int64(ev.at >> slotShift)
	if e.nearN == 0 || s < e.scan {
		e.scan = s
	}
	e.nearN++
	i := s & wheelMask
	h := e.heads[i] - 1
	if h == noIndex {
		ev.next, ev.prev = noIndex, slot
		e.heads[i] = slot + 1
		e.occ[i>>6] |= 1 << (i & 63)
		e.sum[i>>12] |= 1 << (i >> 6 & 63)
		return
	}
	head := &e.events[h]
	tail := head.prev
	p := tail
	for e.events[p].at > ev.at {
		if p == h { // due before the head: the new head
			ev.next, ev.prev = h, tail
			head.prev = slot
			e.heads[i] = slot + 1
			return
		}
		p = e.events[p].prev
	}
	ev.prev = p
	if p == tail {
		ev.next = noIndex
		head.prev = slot
	} else {
		ev.next = e.events[p].next
		e.events[ev.next].prev = slot
	}
	e.events[p].next = slot
}

// unlink takes the event ev, in slab slot `slot`, off the wheel.
func (e *Engine) unlink(slot int32, ev *event) {
	e.nearN--
	i := int64(ev.at>>slotShift) & wheelMask
	h := e.heads[i] - 1
	switch {
	case slot != h:
		e.events[ev.prev].next = ev.next
		if ev.next == noIndex {
			e.events[h].prev = ev.prev
		} else {
			e.events[ev.next].prev = ev.prev
		}
	case ev.next != noIndex:
		e.events[ev.next].prev = ev.prev // the tail
		e.heads[i] = ev.next + 1
	default:
		e.heads[i] = 0
		w := i >> 6
		if e.occ[w] &^= 1 << (i & 63); e.occ[w] == 0 {
			e.sum[w>>6] &^= 1 << (w & 63)
		}
	}
}

// removeAt deletes the entry at index i of the far heap — index 0 is the
// pop of a firing, any other the O(log n) unqueue of Timer.Stop —
// preserving the order of everything else.
func (e *Engine) removeAt(i int32) {
	h := e.far
	n := int32(len(h) - 1)
	last := h[n]
	e.far = h[:n]
	if i == n {
		return
	}
	// The displaced last entry may belong above or below index i.
	if i > 0 && last.before(h[(i-1)>>2]) {
		e.siftUp(i, last)
	} else {
		e.siftDown(i, last)
	}
}

// siftUp places en at index i of the far heap or above, keeping slot
// positions current.
func (e *Engine) siftUp(i int32, en heapEntry) {
	h := e.far
	for i > 0 {
		parent := (i - 1) >> 2
		if !en.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		e.events[h[i].slot].prev = i
		i = parent
	}
	h[i] = en
	e.events[en.slot].prev = i
}

// siftDown places en at index i of the far heap or below, keeping slot
// positions current.
func (e *Engine) siftDown(i int32, en heapEntry) {
	h := e.far
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
		e.events[h[i].slot].prev = i
		i = best
	}
	h[i] = en
	e.events[en.slot].prev = i
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

// Step fires the next event; it reports false when the queue is empty.
func (e *Engine) Step() bool {
	slot, _ := e.next()
	if slot == noIndex {
		return false
	}
	e.fire(slot)
	return true
}

// fire unqueues the event next() chose and runs it at its time.
func (e *Engine) fire(slot int32) {
	ev := &e.events[slot]
	if ev.far {
		e.removeAt(ev.prev)
	} else {
		e.unlink(slot, ev)
	}
	e.now = ev.at
	e.fired++
	cb, arg, payload := ev.cb, ev.arg, ev.payload
	e.release(slot)
	cb(arg, payload)
}

// Run fires events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with time ≤ t, then advances the clock to t.
// Events scheduled for later remain queued.
func (e *Engine) RunUntil(t time.Duration) {
	for {
		slot, at := e.next()
		if slot == noIndex || at > t {
			break
		}
		e.fire(slot)
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d of virtual time.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now + d) }
