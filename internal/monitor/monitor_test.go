package monitor

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/storage"
)

type testClock struct{ now time.Duration }

func (c *testClock) Now() time.Duration { return c.now }

func TestRatesMeasured(t *testing.T) {
	clock := &testClock{}
	m := New(3, clock, DefaultOptions())
	h := m.Hooks()
	// 200 reads/s and 100 writes/s for 10 s.
	for i := 0; i < 2000; i++ {
		clock.now = time.Duration(i) * 5 * time.Millisecond
		h.ReadStarted(clock.now, "k")
		if i%2 == 0 {
			h.WriteStarted(clock.now, "k", storage.Version{Seq: uint64(i)}, 3)
		}
	}
	snap := m.Snapshot()
	if math.Abs(snap.ReadRate-200) > 20 {
		t.Errorf("read rate %.1f, want ≈200", snap.ReadRate)
	}
	if math.Abs(snap.WriteRate-100) > 10 {
		t.Errorf("write rate %.1f, want ≈100", snap.WriteRate)
	}
	if snap.Reads != 2000 || snap.Writes != 1000 {
		t.Errorf("totals %d/%d", snap.Reads, snap.Writes)
	}
}

func TestRankDelaysMonotone(t *testing.T) {
	clock := &testClock{}
	m := New(3, clock, DefaultOptions())
	h := m.Hooks()
	// Feed acks out of rank order with crossing delays; the snapshot
	// must still be monotone.
	for i := 0; i < 100; i++ {
		h.WriteAck(0, "k", 1, 2*time.Millisecond)
		h.WriteAck(0, "k", 2, time.Millisecond) // crossing
		h.WriteAck(0, "k", 3, 10*time.Millisecond)
	}
	snap := m.Snapshot()
	if len(snap.RankDelays) != 3 {
		t.Fatalf("rank delays: %v", snap.RankDelays)
	}
	for i := 1; i < 3; i++ {
		if snap.RankDelays[i] < snap.RankDelays[i-1] {
			t.Errorf("rank delays not monotone: %v", snap.RankDelays)
		}
	}
	if snap.PropagationTime() != snap.RankDelays[2] {
		t.Error("PropagationTime is not the last rank")
	}
}

func TestLatencyHistogramsFed(t *testing.T) {
	clock := &testClock{}
	m := New(3, clock, DefaultOptions())
	h := m.Hooks()
	for i := 0; i < 100; i++ {
		h.ReadCompleted(0, kv.ReadResult{Latency: 4 * time.Millisecond})
		h.WriteCompleted(0, kv.WriteResult{Latency: 2 * time.Millisecond})
	}
	// Errors must not pollute latency stats.
	h.ReadCompleted(0, kv.ReadResult{Err: kv.ErrTimeout, Latency: time.Hour})
	snap := m.Snapshot()
	if snap.ReadLatencyMean > 5*time.Millisecond {
		t.Errorf("read latency polluted: %v", snap.ReadLatencyMean)
	}
	if snap.WriteLatencyMean > 3*time.Millisecond || snap.WriteLatencyMean == 0 {
		t.Errorf("write latency: %v", snap.WriteLatencyMean)
	}
}

func TestProfileSharesAndTail(t *testing.T) {
	clock := &testClock{}
	opts := DefaultOptions()
	opts.TopKeys = 4
	m := New(3, clock, opts)
	h := m.Hooks()
	// One hot key gets half the traffic; 50 cold keys share the rest.
	for i := 0; i < 2000; i++ {
		clock.now = time.Duration(i) * time.Millisecond
		var key string
		if i%2 == 0 {
			key = "hot"
		} else {
			key = fmt.Sprintf("cold-%d", i%50)
		}
		h.ReadStarted(clock.now, key)
		h.WriteStarted(clock.now, key, storage.Version{Seq: uint64(i)}, 3)
	}
	snap := m.Snapshot()
	if len(snap.TopKeys) == 0 {
		t.Fatal("no top keys")
	}
	if snap.TopKeys[0].Key != "hot" {
		t.Errorf("hottest key = %s", snap.TopKeys[0].Key)
	}
	if snap.TopKeys[0].ReadShare < 0.4 || snap.TopKeys[0].ReadShare > 0.6 {
		t.Errorf("hot read share %.2f", snap.TopKeys[0].ReadShare)
	}
	if snap.TopKeys[0].WriteRate <= 0 {
		t.Error("hot write rate missing")
	}
	if snap.TailKeys < 20 {
		t.Errorf("tail keys %.0f, want ≈47", snap.TailKeys)
	}
	if snap.TailReadShr < 0.2 || snap.TailReadShr > 0.6 {
		t.Errorf("tail read share %.2f", snap.TailReadShr)
	}
}

func TestBadOptionsFallBack(t *testing.T) {
	clock := &testClock{}
	m := New(3, clock, Options{}) // zero window must fall back to defaults
	if m.opts.Window != DefaultOptions().Window {
		t.Error("defaults not applied")
	}
}

func TestObservedStaleRate(t *testing.T) {
	clock := &testClock{}
	m := New(3, clock, DefaultOptions())
	h := m.Hooks()
	// 1000 completed reads over the window, every fourth one stale.
	for i := 0; i < 1000; i++ {
		clock.now = time.Duration(i) * 5 * time.Millisecond
		h.ReadCompleted(clock.now, kv.ReadResult{Stale: i%4 == 0, Latency: time.Millisecond})
	}
	snap := m.Snapshot()
	if math.Abs(snap.ObservedStaleRate-0.25) > 0.02 {
		t.Errorf("observed stale rate %.3f, want ≈0.25", snap.ObservedStaleRate)
	}
	// Errored reads must not count toward the verdict base.
	for i := 0; i < 100; i++ {
		h.ReadCompleted(clock.now, kv.ReadResult{Err: kv.ErrTimeout, Stale: true})
	}
	if got := m.Snapshot().ObservedStaleRate; math.Abs(got-0.25) > 0.02 {
		t.Errorf("errored reads moved the stale rate to %.3f", got)
	}
	// The signal decays with the window: quiescence drains it.
	clock.now += 2 * DefaultOptions().Window
	if got := m.Snapshot().ObservedStaleRate; got != 0 {
		t.Errorf("stale rate %.3f after the window rolled off, want 0", got)
	}
}
