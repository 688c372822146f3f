package sim

import (
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("events out of order: %v", got)
	}
	if e.Now() != 30*time.Millisecond {
		t.Errorf("clock = %v", e.Now())
	}
}

func TestEqualTimesFIFO(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New(1)
	var times []time.Duration
	e.Schedule(time.Millisecond, func() {
		times = append(times, e.Now())
		e.Schedule(time.Millisecond, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[1] != 2*time.Millisecond {
		t.Errorf("nested schedule failed: %v", times)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic scheduling in the past")
		}
	}()
	e.Schedule(-time.Second, func() {})
}

func TestTimerStop(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.Schedule(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Error("first Stop must report true")
	}
	if tm.Stop() {
		t.Error("second Stop must report false")
	}
	e.Run()
	if fired {
		t.Error("stopped timer fired")
	}
	if e.Events() != 0 {
		t.Errorf("canceled event counted as fired: %d", e.Events())
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := New(1)
	tm := e.Schedule(time.Millisecond, func() {})
	e.Run()
	if tm.Stop() {
		t.Error("Stop after firing must report false")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := New(1)
	ran := false
	e.Schedule(5*time.Second, func() { ran = true })
	e.RunUntil(2 * time.Second)
	if ran {
		t.Error("future event fired early")
	}
	if e.Now() != 2*time.Second {
		t.Errorf("clock = %v, want 2s", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d", e.Pending())
	}
	e.RunFor(3 * time.Second)
	if !ran {
		t.Error("event within horizon did not fire")
	}
}

func TestStop(t *testing.T) {
	e := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Errorf("events after Stop: %d", count)
	}
	if !e.Stopped() {
		t.Error("Stopped() false after Stop")
	}
}

func TestTimerStopAfterSlotReuse(t *testing.T) {
	e := New(1)
	fired := 0
	t1 := e.Schedule(time.Millisecond, func() { fired++ })
	e.Run()
	// The slot of t1 is free now; the next event reuses it.
	t2 := e.Schedule(time.Millisecond, func() { fired++ })
	if t1.Stop() {
		t.Error("stale Timer stopped a reused slot")
	}
	e.Run()
	if fired != 2 {
		t.Errorf("fired = %d, want 2 (stale Stop must not cancel the new event)", fired)
	}
	if t2.Stop() {
		t.Error("Stop after firing reported true")
	}
}

func TestZeroTimerInert(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Error("zero Timer Stop reported true")
	}
}

func TestScheduleCall(t *testing.T) {
	e := New(1)
	type call struct {
		arg     uint64
		payload any
	}
	var got []call
	cb := func(arg uint64, payload any) { got = append(got, call{arg, payload}) }
	e.ScheduleCall(2*time.Millisecond, cb, 7, "seven")
	e.ScheduleCall(time.Millisecond, cb, 1<<63|3, nil)
	tm := e.ScheduleCall(3*time.Millisecond, cb, 9, "nine")
	if !tm.Stop() {
		t.Error("ScheduleCall timer did not stop")
	}
	e.Run()
	if len(got) != 2 || got[0] != (call{1<<63 | 3, nil}) || got[1] != (call{7, "seven"}) {
		t.Errorf("ScheduleCall order/args wrong: %v", got)
	}
	if e.Now() != 2*time.Millisecond {
		t.Errorf("clock = %v", e.Now())
	}
}

// TestHeapStress drives random interleaved schedule/cancel churn and
// checks events fire in exact (time, seq) order.
func TestHeapStress(t *testing.T) {
	e := New(7)
	rng := e.RNG().Stream("stress")
	type rec struct {
		at  time.Duration
		seq int
	}
	var fired []rec
	seq := 0
	var timers []Timer
	for i := 0; i < 5000; i++ {
		d := time.Duration(rng.IntN(10000)) * time.Microsecond
		s := seq
		seq++
		at := e.Now() + d
		timers = append(timers, e.Schedule(d, func() { fired = append(fired, rec{at, s}) }))
		if rng.IntN(4) == 0 && len(timers) > 0 {
			timers[rng.IntN(len(timers))].Stop()
		}
		if rng.IntN(8) == 0 {
			e.Step()
		}
	}
	e.Run()
	for i := 1; i < len(fired); i++ {
		if fired[i].at < fired[i-1].at {
			t.Fatalf("out of order at %d: %v after %v", i, fired[i].at, fired[i-1].at)
		}
		if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
			t.Fatalf("tie not FIFO at %d", i)
		}
	}
}

func TestDeterministicEventCount(t *testing.T) {
	run := func() (uint64, time.Duration) {
		e := New(99)
		rng := e.RNG().Stream("test")
		var rec func()
		n := 0
		rec = func() {
			n++
			if n < 1000 {
				e.Schedule(time.Duration(rng.IntN(1000))*time.Microsecond, rec)
			}
		}
		e.Schedule(0, rec)
		e.Run()
		return e.Events(), e.Now()
	}
	e1, t1 := run()
	e2, t2 := run()
	if e1 != e2 || t1 != t2 {
		t.Errorf("same seed diverged: (%d,%v) vs (%d,%v)", e1, t1, e2, t2)
	}
}
