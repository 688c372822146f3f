package sim

import (
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"

	"repro/internal/stats"
)

// The model test: an interpreter replays a byte string as queue
// operations on an Engine and on a sorted-slice reference at once, and
// compares them after every operation — what fired, in which order and
// at which time, the clock, the counts, the next deadline, and what each
// Stop reported — and checks the wheel's structure (checkWheel). The bytes
// come from hand-written cases (the places the near/far split and the
// wheel's lists could go wrong), from a seeded generator, and from the
// fuzzer (FuzzQueue).
//
// These mutations of engine.go were each run against this package's tests
// and fail them: link placing a new event before one due at the same
// instant (a LIFO tie) fails TestEqualTimesFIFO, TestBurstAtOneInstant,
// TestOneSlotList and the generated rounds; unlink leaving the summary bit
// set when a word empties fails checkWheel in every hand-written case;
// link not lowering scan for an earlier event fails checkWheel in "stop
// finds its entry in the far heap", TestClockJumpsLaps and
// TestFarOvertakesNear, and the order in TestEventOrdering; link not
// resetting scan on an empty wheel fails TestClockJumpsLaps; next()
// comparing the two fronts by at alone fails "equal time across the
// split" and TestFarOvertakesNear.

// Each operation is two bytes: an opcode (mod nQueueOps) and a parameter.
const (
	opSchedule     = iota // Schedule(delay(p)); p>>4 picks a child
	opScheduleAt          // ScheduleAt(now+delay(p)); p>>4 picks a child
	opScheduleCall        // ScheduleCall(delay(p)) with an argument and a payload
	opSameTime            // ScheduleAt(the time the p-th newest event was scheduled for), if not past
	opStop                // Stop the handle of the p-th newest event: live, fired, stopped or reused
	opStep                // Step
	opRunUntil            // RunUntil(now+delay(p))
	nQueueOps
)

// queueDelays straddle farAfter and a wheel slot's edge: zero, the scale
// of messages and service times, one slot's width and its neighbours,
// farAfter and its neighbours, and the long timers.
var queueDelays = [...]time.Duration{
	0, time.Microsecond, 30 * time.Millisecond,
	farAfter - 1, farAfter, farAfter + 1,
	2 * time.Second, 4 * time.Second,
	slotWidth - 1, slotWidth, slotWidth + 1,
}

// delay decodes the low four bits of a parameter.
func delay(p byte) time.Duration { return queueDelays[int(p&15)%len(queueDelays)] }

// noChild is the child delay of an event that has no child.
const noChild = time.Duration(-1)

// childDelay decodes the child of a scheduled event from the high bits
// of its parameter: an event with a child schedules one more event,
// that far ahead, from inside its callback (children have none).
func childDelay(p byte) time.Duration {
	c := int(p>>4) % (len(queueDelays) + 1)
	if c == 0 {
		return noChild
	}
	return queueDelays[c-1]
}

// firing is one fired event: the clock it saw and its scheduling rank,
// which is the engine's seq as long as every schedule consumes one.
type firing struct {
	at time.Duration
	id int
}

type modelEvent struct {
	firing
	child time.Duration
}

// queueModel is the reference: pending events in one slice kept sorted
// by (at, id).
type queueModel struct {
	now     time.Duration
	pending []modelEvent
	ats     []time.Duration // by id: the time each event was scheduled for
	fired   []firing
}

func (m *queueModel) schedule(at, child time.Duration) {
	ev := modelEvent{firing{at, len(m.ats)}, child}
	m.ats = append(m.ats, at)
	// ids only grow, so behind every entry due at or before `at` is the
	// (at, id) position.
	i := sort.Search(len(m.pending), func(i int) bool { return m.pending[i].at > at })
	m.pending = append(m.pending, modelEvent{})
	copy(m.pending[i+1:], m.pending[i:])
	m.pending[i] = ev
}

func (m *queueModel) stop(id int) bool {
	for i, ev := range m.pending {
		if ev.id == id {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return true
		}
	}
	return false
}

func (m *queueModel) step() bool {
	if len(m.pending) == 0 {
		return false
	}
	ev := m.pending[0]
	m.pending = m.pending[1:]
	m.now = ev.at
	m.fired = append(m.fired, ev.firing)
	if ev.child != noChild {
		m.schedule(m.now+ev.child, noChild)
	}
	return true
}

func (m *queueModel) runUntil(t time.Duration) {
	for len(m.pending) > 0 && m.pending[0].at <= t {
		m.step()
	}
	if m.now < t {
		m.now = t
	}
}

// queueRun is the engine side of a replay: the handles of every event
// ever scheduled, by id, and the log its callbacks write.
type queueRun struct {
	e      *Engine
	timers []Timer
	fired  []firing
}

// schedule arms event len(timers) through one of the three entry points.
func (r *queueRun) schedule(op int, t, child time.Duration) {
	id := len(r.timers)
	fire := func() {
		r.fired = append(r.fired, firing{r.e.Now(), id})
		if child != noChild {
			r.schedule(opSchedule, r.e.Now()+child, noChild)
		}
	}
	var tm Timer
	switch op {
	case opSchedule:
		tm = r.e.Schedule(t-r.e.Now(), fire)
	case opScheduleCall:
		tm = r.e.ScheduleCall(t-r.e.Now(), func(arg uint64, payload any) {
			if arg != uint64(id) || payload.(int) != id {
				panic("ScheduleCall delivered another event's argument or payload")
			}
			fire()
		}, uint64(id), id)
	default:
		tm = r.e.ScheduleAt(t, fire)
	}
	r.timers = append(r.timers, tm)
}

// maxQueueOps bounds one replay: the model is quadratic, and a fuzzer
// left alone grows its inputs until a single execution takes seconds.
const maxQueueOps = 2048

// replayQueueOps is the interpreter. It fails t at the first operation
// after which engine and model disagree.
func replayQueueOps(t testing.TB, ops []byte) {
	t.Helper()
	ops = ops[:min(len(ops), 2*maxQueueOps)]
	r := &queueRun{e: New(1)}
	m := &queueModel{}
	for i := 0; i+1 < len(ops); i += 2 {
		op, p := int(ops[i])%nQueueOps, ops[i+1]
		switch op {
		case opSchedule, opScheduleAt, opScheduleCall:
			at := m.now + delay(p)
			r.schedule(op, at, childDelay(p))
			m.schedule(at, childDelay(p))
		case opSameTime, opStop:
			if len(m.ats) == 0 {
				continue
			}
			id := len(m.ats) - 1 - int(p)%len(m.ats)
			if op == opSameTime {
				if at := m.ats[id]; at >= m.now {
					r.schedule(op, at, noChild)
					m.schedule(at, noChild)
				}
			} else if got, want := r.timers[id].Stop(), m.stop(id); got != want {
				t.Fatalf("op %d: Stop(event %d) = %v, model says %v", i/2, id, got, want)
			}
		case opStep:
			if got, want := r.e.Step(), m.step(); got != want {
				t.Fatalf("op %d: Step() = %v, model says %v", i/2, got, want)
			}
		case opRunUntil:
			r.e.RunUntil(m.now + delay(p))
			m.runUntil(m.now + delay(p))
		}
		checkWheel(t, r.e)
		compareQueue(t, i/2, r, m)
	}
	r.e.Run()
	for m.step() {
	}
	compareQueue(t, len(ops)/2, r, m)
}

func compareQueue(t testing.TB, op int, r *queueRun, m *queueModel) {
	t.Helper()
	for i := 0; i < len(r.fired) || i < len(m.fired); i++ {
		if i >= len(r.fired) || i >= len(m.fired) || r.fired[i] != m.fired[i] {
			t.Fatalf("op %d: firing %d differs: engine %v, model %v", op, i, r.fired[i:], m.fired[i:])
		}
	}
	r.fired, m.fired = r.fired[:0], m.fired[:0]
	if r.e.Now() != m.now {
		t.Fatalf("op %d: clock = %v, model says %v", op, r.e.Now(), m.now)
	}
	if r.e.Pending() != len(m.pending) {
		t.Fatalf("op %d: Pending() = %d, model says %d", op, r.e.Pending(), len(m.pending))
	}
	if at, ok := r.e.NextAt(); ok != (len(m.pending) > 0) || ok && at != m.pending[0].at {
		t.Fatalf("op %d: NextAt() = %v, %v; model pending %v", op, at, ok, m.pending)
	}
	if len(r.timers) != len(m.ats) {
		t.Fatalf("op %d: engine scheduled %d events, model %d", op, len(r.timers), len(m.ats))
	}
}

// checkWheel fails t unless the engine's queues are well-formed: a slot's
// occupancy bit is set exactly when its list is not empty and a summary
// bit exactly when its word is not zero; each list holds near events of
// one slot-width of time inside [now, now+farAfter), sorted by (at, seq),
// with back links that agree and the head's pointing at the tail; nearN
// counts them; slot(now) ≤ scan ≤ the earliest one's slot; and every far
// entry's event knows its heap index.
func checkWheel(t testing.TB, e *Engine) {
	t.Helper()
	n, earliest := 0, int64(-1)
	for i := range e.heads {
		h := e.heads[i] - 1
		if occupied := e.occ[i>>6]>>(i&63)&1 == 1; occupied != (h != noIndex) {
			t.Fatalf("wheel slot %d: occupancy bit %v, head %d", i, occupied, h)
		}
		if h == noIndex {
			continue
		}
		abs := int64(e.events[h].at >> slotShift)
		if earliest < 0 || abs < earliest {
			earliest = abs
		}
		last := noIndex
		for s := h; s != noIndex; s = e.events[s].next {
			ev := &e.events[s]
			if ev.far || ev.cb == nil {
				t.Fatalf("wheel slot %d holds event %d: far %v, cb nil %v", i, s, ev.far, ev.cb == nil)
			}
			if int64(ev.at>>slotShift) != abs || abs&wheelMask != int64(i) {
				t.Fatalf("wheel slot %d (since zero: %d) holds an event due at %v", i, abs, ev.at)
			}
			if ev.at < e.now || ev.at-e.now >= farAfter {
				t.Fatalf("near event due at %v with the clock at %v", ev.at, e.now)
			}
			if last != noIndex {
				prev := &e.events[last]
				if ev.prev != last {
					t.Fatalf("wheel slot %d: event %d follows %d but links back to %d", i, s, last, ev.prev)
				}
				if prev.at > ev.at || prev.at == ev.at && prev.seq >= ev.seq {
					t.Fatalf("wheel slot %d out of order: (%v, %d) before (%v, %d)", i, prev.at, prev.seq, ev.at, ev.seq)
				}
			}
			last = s
			n++
		}
		if tail := e.events[h].prev; tail != last {
			t.Fatalf("wheel slot %d: head links back to %d, the tail is %d", i, tail, last)
		}
	}
	for w, word := range e.occ {
		if summed := e.sum[w>>6]>>(w&63)&1 == 1; summed != (word != 0) {
			t.Fatalf("occupancy word %d is %#x, summary bit %v", w, word, summed)
		}
	}
	if n != e.nearN {
		t.Fatalf("wheel holds %d events, nearN = %d", n, e.nearN)
	}
	if now := int64(e.now >> slotShift); n > 0 && (e.scan < now || e.scan > earliest) {
		t.Fatalf("scan = %d outside [slot(now) %d, earliest %d]", e.scan, now, earliest)
	}
	for i, en := range e.far {
		if ev := &e.events[en.slot]; !ev.far || ev.prev != int32(i) || ev.at != en.at || ev.seq != en.seq {
			t.Fatalf("far entry %d (%v, %d): its event says far %v, index %d, (%v, %d)",
				i, en.at, en.seq, ev.far, ev.prev, ev.at, ev.seq)
		}
	}
}

// Indexes into queueDelays, for the hand-written cases.
const (
	dZero, dMicro, d30ms, dBelowFar, dFar, dAboveFar, d2s, d4s = 0, 1, 2, 3, 4, 5, 6, 7
	dBelowSlot, dSlot, dAboveSlot                              = 8, 9, 10
)

// queueCases are the hand-written replays, and the fuzzer's seed corpus.
var queueCases = []struct {
	name string
	ops  []byte
}{
	{
		// Event 0 is queued far; once the clock is 1 ns short of it, event
		// 1 lands on the same instant from the near side. Scheduling order
		// decides, not the heap.
		name: "equal time across the split fires in scheduling order",
		ops: []byte{
			opSchedule, dFar,
			opRunUntil, dBelowFar,
			opSameTime, 0,
			opStep, 0, opStep, 0,
		},
	},
	{
		name: "stop finds its entry in the far heap beside a deeper near one",
		ops: []byte{
			opSchedule, d30ms, opSchedule, dMicro, opSchedule, dZero, opSchedule, d30ms,
			opSchedule, d2s, opSchedule, d4s, opSchedule, dFar,
			opStop, 1, opStop, 2, opStop, 1,
			opStep, 0, opStep, 0, opStep, 0, opStep, 0, opStep, 0, opStep, 0,
		},
	},
	{
		name: "stop finds its entry in the near heap beside a deeper far one",
		ops: []byte{
			opSchedule, d2s, opSchedule, d4s, opSchedule, dFar, opSchedule, d2s,
			opSchedule, d30ms, opSchedule, dBelowFar,
			opStop, 1, opStop, 0, opStop, 1,
			opStep, 0, opStep, 0, opStep, 0, opStep, 0, opStep, 0,
		},
	},
	{
		name: "stale handle after slot reuse, after fire, twice",
		ops: []byte{
			opScheduleCall, d4s, opStep, 0, // event 0 fires, its slot is free
			opScheduleCall, dMicro, // event 1 takes the slot, in the other heap
			opStop, 1, // event 0's handle is stale: must spare the new tenant
			opStep, 0,
			opStop, 0, // after fire
			opScheduleAt, d2s, opStop, 0, opStop, 0, // twice
			opStep, 0,
		},
	},
	{
		name: "farAfter exactly, zero, and children that cross the split",
		ops: []byte{
			opSchedule, dFar | (dMicro+1)<<4, // far parent, near child
			opSchedule, dZero | (d2s+1)<<4, // near parent, far child
			opScheduleAt, dBelowFar | (dFar+1)<<4,
			opScheduleAt, dAboveFar | (dZero+1)<<4,
			opStep, 0, opStep, 0,
			opRunUntil, dFar,
			opRunUntil, d4s,
		},
	},
	{
		name: "guard churn: armed far, stopped, over standing near events",
		ops: []byte{
			opSchedule, d30ms, opSchedule, d30ms,
			opScheduleCall, d4s, opStop, 0,
			opScheduleCall, d4s, opStop, 0,
			opScheduleCall, d4s, opStep, 0, opStop, 0,
			opRunUntil, d4s,
		},
	},
}

// TestQueueMatchesModel replays the hand-written cases and generated
// ones against the reference. Uniform bytes keep both queues small and
// recycle the same few slab slots over and over (every fourth RunUntil
// drains seconds, several laps of the wheel); the biased rounds schedule
// more than they fire and run only short stretches, so the wheel grows to
// about a hundred events — dozens of them in the clock's own slot and the
// next, the lists link walks — and the far heap to several hundred before
// the final drain.
func TestQueueMatchesModel(t *testing.T) {
	for _, tc := range queueCases {
		t.Run(tc.name, func(t *testing.T) { replayQueueOps(t, tc.ops) })
	}
	biased := [16]byte{
		opSchedule, opSchedule, opSchedule, opScheduleAt, opScheduleAt, opScheduleAt,
		opScheduleCall, opScheduleCall, opScheduleCall, opSameTime,
		opStop, opStop, opStep, opStep, opStep, opRunUntil,
	}
	rng := stats.NewSource(42)
	for round := 0; round < 20; round++ {
		ops := make([]byte, 2*maxQueueOps)
		for i := 0; i < len(ops); i += 2 {
			ops[i], ops[i+1] = byte(rng.IntN(256)), byte(rng.IntN(256))
			if round%2 == 1 {
				ops[i] = biased[rng.IntN(len(biased))]
				if ops[i] == opRunUntil {
					ops[i+1] = byte(rng.IntN(d30ms + 1))
				}
			}
		}
		replayQueueOps(t, ops)
	}
}

// FuzzQueue replays arbitrary bytes through the same interpreter.
func FuzzQueue(f *testing.F) {
	for _, tc := range queueCases {
		f.Add(tc.ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { replayQueueOps(t, ops) })
}

// recorder logs which events fired, by the id they were armed under.
type recorder struct {
	e     *Engine
	fired []int
}

func (r *recorder) at(t time.Duration, id int) Timer {
	return r.e.ScheduleAt(t, func() { r.fired = append(r.fired, id) })
}

func (r *recorder) want(t *testing.T, ids ...int) {
	t.Helper()
	if !slices.Equal(r.fired, ids) {
		t.Fatalf("fired %v, want %v", r.fired, ids)
	}
}

// TestBurstAtOneInstant arms 5 000 events for one instant — one list of
// the wheel — stopping every third as the next is armed, and wants the
// rest in scheduling order.
func TestBurstAtOneInstant(t *testing.T) {
	r := &recorder{e: New(1)}
	var want []int
	var prev Timer
	for id := 0; id < 5000; id++ {
		tm := r.at(time.Millisecond, id)
		if id%3 == 1 {
			if !prev.Stop() {
				t.Fatalf("Stop(event %d) = false", id-1)
			}
			want = want[:len(want)-1]
		}
		want = append(want, id)
		prev = tm
		if id%500 == 499 {
			checkWheel(t, r.e)
		}
	}
	if got := r.e.Pending(); got != len(want) {
		t.Fatalf("Pending() = %d, want %d", got, len(want))
	}
	r.e.Run()
	checkWheel(t, r.e)
	r.want(t, want...)
}

// TestOneSlotList drives the list of a single wheel slot: events armed in
// descending time each become the new head, and Stop takes out the head,
// the middle or the tail of three.
func TestOneSlotList(t *testing.T) {
	const base = 10 * slotWidth
	t.Run("descending times", func(t *testing.T) {
		r := &recorder{e: New(1)}
		for id := 0; id < 4; id++ {
			r.at(base+slotWidth-1-time.Duration(id), id)
			checkWheel(t, r.e)
		}
		r.at(base+slotWidth-2, 4) // behind event 1, due at the same instant
		checkWheel(t, r.e)
		r.e.Run()
		r.want(t, 3, 2, 1, 4, 0)
	})
	for stop, want := range [][]int{{1, 2}, {0, 2}, {0, 1}} {
		r := &recorder{e: New(1)}
		var tms [3]Timer
		for id := range tms {
			tms[id] = r.at(base+time.Duration(id), id)
		}
		if !tms[stop].Stop() || tms[stop].Stop() {
			t.Fatalf("Stop(event %d) of three in one slot: want true, then false", stop)
		}
		checkWheel(t, r.e)
		r.at(base+3, 3) // the list still takes a new tail
		checkWheel(t, r.e)
		r.e.Run()
		checkWheel(t, r.e)
		r.want(t, append(want, 3)...)
	}
}

// TestClockJumpsLaps moves the clock 10 s — 18 laps of the wheel — in one
// RunUntil, over a near event that fires on the way and a stopped one
// that leaves the wheel empty with scan behind, then arms a later and an
// earlier event on the far side of the jump.
func TestClockJumpsLaps(t *testing.T) {
	r := &recorder{e: New(1)}
	r.at(100*time.Millisecond, 0)
	stopped := r.at(400*time.Millisecond, 1)
	r.at(10*time.Second+200*time.Millisecond, 2) // far
	if at, ok := r.e.NextAt(); !ok || at != 100*time.Millisecond {
		t.Fatalf("NextAt() = %v, %v", at, ok)
	}
	stopped.Stop()
	r.e.RunUntil(10 * time.Second)
	checkWheel(t, r.e)
	r.want(t, 0)
	r.at(10*time.Second+300*time.Millisecond, 3)
	checkWheel(t, r.e)
	if at, ok := r.e.NextAt(); !ok || at != 10*time.Second+200*time.Millisecond {
		t.Fatalf("NextAt() after the jump = %v, %v", at, ok)
	}
	r.at(10*time.Second+time.Microsecond, 4)
	checkWheel(t, r.e)
	r.e.Run()
	checkWheel(t, r.e)
	r.want(t, 0, 4, 2, 3)
}

// TestFarOvertakesNear queues an event far, lets the clock close in on
// it, and arms near events behind it, on its very instant and just ahead
// of it: it fires after the last and, scheduled first, before the other
// two.
func TestFarOvertakesNear(t *testing.T) {
	r := &recorder{e: New(1)}
	r.at(600*time.Millisecond, 0) // far
	r.e.RunUntil(550 * time.Millisecond)
	r.at(650*time.Millisecond, 1)
	r.at(600*time.Millisecond, 2)
	r.at(599*time.Millisecond, 3)
	checkWheel(t, r.e)
	r.e.Run()
	r.want(t, 3, 0, 2, 1)
}

// TestSlotSize pins the event slot at one cache line: it carries a whole
// in-flight message and its place in the queue, and the slab is what a
// loaded simulation's cache misses land in.
func TestSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got > 64 {
		t.Errorf("event slot is %d bytes, want at most 64 (one cache line)", got)
	}
}
