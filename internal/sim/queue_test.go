package sim

import (
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
// Stop reported. The bytes come from hand-written cases (the places the
// two-heap split could go wrong), from a seeded generator, and from the
// fuzzer (FuzzQueue).

// Each operation is two bytes: an opcode (mod nQueueOps) and a parameter.
const (
	opSchedule     = iota // Schedule(queueDelays[p%8]); p>>3 picks a child
	opScheduleAt          // ScheduleAt(now+queueDelays[p%8]); p>>3 picks a child
	opScheduleCall        // ScheduleCall(queueDelays[p%8]) with an argument and a payload
	opSameTime            // ScheduleAt(the time the p-th newest event was scheduled for), if not past
	opStop                // Stop the handle of the p-th newest event: live, fired, stopped or reused
	opStep                // Step
	opRunUntil            // RunUntil(now+queueDelays[p%8])
	nQueueOps
)

// queueDelays straddle farAfter: zero, the scale of messages and service
// times, the constant itself and its neighbours, and the long timers.
var queueDelays = [8]time.Duration{
	0, time.Microsecond, 30 * time.Millisecond,
	farAfter - 1, farAfter, farAfter + 1,
	2 * time.Second, 4 * time.Second,
}

// noChild is the child delay of an event that has no child.
const noChild = time.Duration(-1)

// childDelay decodes the child of a scheduled event from the high bits
// of its parameter: an event with a child schedules one more event,
// that far ahead, from inside its callback (children have none).
func childDelay(p byte) time.Duration {
	c := int(p>>3) % (len(queueDelays) + 1)
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
			at := m.now + queueDelays[p%8]
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
			r.e.RunUntil(m.now + queueDelays[p%8])
			m.runUntil(m.now + queueDelays[p%8])
		}
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

// Indexes into queueDelays, for the hand-written cases.
const (
	dZero, dMicro, d30ms, dBelowFar, dFar, dAboveFar, d2s, d4s = 0, 1, 2, 3, 4, 5, 6, 7
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
			opSchedule, dFar | (dMicro+1)<<3, // far parent, near child
			opSchedule, dZero | (d2s+1)<<3, // near parent, far child
			opScheduleAt, dBelowFar | (dFar+1)<<3,
			opScheduleAt, dAboveFar | (dZero+1)<<3,
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
// ones against the reference. Uniform bytes keep both heaps a few levels
// deep and recycle the same few slots over and over (every fourth
// RunUntil drains seconds); the biased rounds schedule more than they
// fire and run only short stretches, so the near heap grows to about a
// hundred entries and the far one to several hundred before the final
// drain.
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

// TestSlotSize pins the event slot at 48 bytes: it carries a whole
// in-flight message, and the slab is what a loaded simulation's cache
// misses land in.
func TestSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got > 48 {
		t.Errorf("event slot is %d bytes, want at most 48", got)
	}
}
