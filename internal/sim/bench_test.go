package sim

import (
	"testing"
	"time"
)

// The shape of the queue under a loaded replay (three sim-harmony
// replays, 10.9 M events): some 40 000 entries, of which about 850 are
// messages and service completions due within 30 ms — resident 3 ms on
// average — and the rest request timeouts armed 2 s out; one timeout is
// armed, and one expires, per 14 short events.
const (
	benchTimeouts  = 40000
	benchTimeout   = 2 * time.Second
	benchNear      = 850
	benchNearPerTO = 14
	// benchNearMean makes benchNearPerTO cycles over benchNear standing
	// events advance the clock by the gap between two timeouts, so the
	// standing counts hold in steady state.
	benchNearMean = benchTimeout / benchTimeouts * benchNear / benchNearPerTO
)

// BenchmarkEngineSchedule measures the steady-state Schedule/Step cycle
// at the measured shape: each iteration schedules one short event
// (uniform up to twice benchNearMean) and fires the earliest; every
// benchNearPerTO-th also arms a timeout and fires one more, which in
// steady state is a timeout expiring. The fast path must not allocate
// per event.
func BenchmarkEngineSchedule(b *testing.B) {
	e := New(1)
	fn := func() {}
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
	// Warm-up: one timeout's worth of virtual time, no expiry yet, fills
	// the standing timeouts the way a run does — each armed 2 s ahead of
	// a clock that has moved on since.
	for i := 0; i < benchTimeouts*benchNearPerTO; i++ {
		e.Schedule(short(), fn)
		if i%benchNearPerTO == 0 {
			e.Schedule(benchTimeout, fn)
		}
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(short(), fn)
		if i%benchNearPerTO == 0 {
			e.Schedule(benchTimeout, fn)
			e.Step()
		}
		e.Step()
	}
}

// BenchmarkEngineFarChurn measures the client guard pattern over the
// same standing timeouts: armed at twice the timeout, stopped when its
// operation completes, 400 operations (the replay's client threads) in
// flight.
func BenchmarkEngineFarChurn(b *testing.B) {
	e := New(1)
	for i := 0; i < benchTimeouts; i++ {
		e.Schedule(benchTimeout+time.Duration(i)*benchTimeout/benchTimeouts, func() {})
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

// BenchmarkEngineScheduleStop measures the Schedule+Stop cycle (timer
// churn: armed and canceled before firing, the request-timeout pattern).
func BenchmarkEngineScheduleStop(b *testing.B) {
	e := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := e.Schedule(time.Microsecond, fn)
		t.Stop()
		e.Step()
	}
}
