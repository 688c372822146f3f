package sim

import (
	"testing"
	"time"
)

// The shape of the queue under a loaded replay (three sim-harmony
// replays, 10.1 M events, counted at every pop): about 1 000 messages and
// service completions due within 30 ms — resident 3 ms on average — and
// about 2 000 timers parked 2 s and 4 s out, a request timeout and a
// client guard per operation in flight. An operation fires 11 short
// events, arms its two timers and stops them when it ends: of 600 000
// timers armed per replay a few hundred to a few thousand ever fire.
const (
	benchNear      = 1000
	benchNearMean  = 3 * time.Millisecond
	benchFar       = 2000
	benchTimeout   = 2 * time.Second
	benchNearPerOp = 11
)

// BenchmarkEngineSchedule measures the steady-state Schedule/Step cycle
// at the measured shape: each iteration schedules one short event
// (uniform up to twice benchNearMean) and fires the earliest; every
// benchNearPerOp-th is also an operation ending and the next starting —
// the oldest request timeout and client guard stopped, two new ones
// armed. The fast path must not allocate per event.
func BenchmarkEngineSchedule(b *testing.B) {
	e := New(1)
	fn := func() {}
	cb := func(uint64, any) {}
	x := uint64(1)
	short := func() time.Duration { // xorshift: cheap and fixed
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return time.Duration(x % uint64(2*benchNearMean))
	}
	for i := 0; i < benchNear; i++ {
		e.Schedule(short(), fn)
	}
	var timers [benchFar]Timer
	for i := 0; i < benchFar; i += 2 {
		timers[i] = e.ScheduleCall(benchTimeout, cb, 0, nil)
		timers[i+1] = e.ScheduleCall(2*benchTimeout, cb, 0, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	op := 0
	for i := 0; i < b.N; i++ {
		e.Schedule(short(), fn)
		if i%benchNearPerOp == 0 {
			timers[op].Stop()
			timers[op+1].Stop()
			timers[op] = e.ScheduleCall(benchTimeout, cb, 0, nil)
			timers[op+1] = e.ScheduleCall(2*benchTimeout, cb, 0, nil)
			op = (op + 2) % benchFar
		}
		e.Step()
	}
}

// BenchmarkEngineFarChurn measures the far heap's side of that cycle
// alone: a client guard armed at twice the timeout and stopped when its
// operation completes, 400 operations (the replay's client threads) in
// flight over the standing timers.
func BenchmarkEngineFarChurn(b *testing.B) {
	e := New(1)
	for i := 0; i < benchFar; i++ {
		e.Schedule(benchTimeout+time.Duration(i)*benchTimeout/benchFar, func() {})
	}
	cb := func(uint64, any) {}
	var guards [400]Timer
	for i := range guards {
		guards[i] = e.ScheduleCall(2*benchTimeout, cb, uint64(i), nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := &guards[i%len(guards)]
		g.Stop()
		*g = e.ScheduleCall(2*benchTimeout, cb, uint64(i), nil)
	}
}

// BenchmarkEngineScheduleStop measures the Schedule+Stop cycle, a timer
// armed and canceled before it fires, on either queue: near is a link and
// an unlink on the wheel (1 µs ahead), far a push and a removal on the
// heap (the 2 s request timeout, which is what the store arms and stops
// for every operation).
func BenchmarkEngineScheduleStop(b *testing.B) {
	for _, bc := range []struct {
		name  string
		delay time.Duration
	}{{"near", time.Microsecond}, {"far", benchTimeout}} {
		b.Run(bc.name, func(b *testing.B) {
			e := New(1)
			fn := func() {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := e.Schedule(bc.delay, fn)
				t.Stop()
				e.Step()
			}
		})
	}
}

// BenchmarkEngineIdle measures the queue at the serving shape, where the
// wall clock drives it (live.Engine's lock and unlock, once per batch):
// nothing near, a request timeout standing for each of benchFar
// operations in flight; each iteration moves the clock 1 µs with nothing
// due, asks for the next deadline, and ends the oldest operation and
// starts another — one timeout stopped, one armed.
func BenchmarkEngineIdle(b *testing.B) {
	e := New(1)
	cb := func(uint64, any) {}
	var timers [benchFar]Timer
	for i := range timers {
		timers[i] = e.ScheduleCall(benchTimeout, cb, 0, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now() + time.Microsecond)
		if _, ok := e.NextAt(); !ok {
			b.Fatal("standing timers gone")
		}
		tm := &timers[i%benchFar]
		tm.Stop()
		*tm = e.ScheduleCall(benchTimeout, cb, 0, nil)
	}
}
