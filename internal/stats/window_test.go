package stats

import (
	"math"
	"testing"
	"time"
)

func TestRateEstimatorSteadyRate(t *testing.T) {
	r := NewRateEstimator(10*time.Second, 20)
	// 100 events/s for 10 s.
	for i := 0; i < 1000; i++ {
		r.Add(time.Duration(i)*10*time.Millisecond, 1)
	}
	got := r.Rate(10 * time.Second)
	if math.Abs(got-100) > 5 {
		t.Errorf("rate = %.1f, want ≈100", got)
	}
}

func TestRateEstimatorWindowExpiry(t *testing.T) {
	r := NewRateEstimator(time.Second, 10)
	r.Add(0, 100)
	if got := r.Rate(100 * time.Millisecond); got < 50 {
		t.Errorf("fresh events not counted: %.1f", got)
	}
	// After two windows of silence, the rate must be zero.
	if got := r.Rate(3 * time.Second); got != 0 {
		t.Errorf("stale events still counted: %.1f", got)
	}
}

func TestRateEstimatorLongIdleGap(t *testing.T) {
	r := NewRateEstimator(time.Second, 10)
	r.Add(0, 10)
	r.Add(time.Hour, 10) // catch-up path must not loop for an hour of slots
	got := r.Rate(time.Hour)
	if got < 5 || got > 15 {
		t.Errorf("rate after long gap = %.1f, want ≈10", got)
	}
}

func TestRateEstimatorCount(t *testing.T) {
	r := NewRateEstimator(time.Second, 4)
	r.Add(0, 3)
	r.Add(100*time.Millisecond, 2)
	if got := r.Count(200 * time.Millisecond); got != 5 {
		t.Errorf("count = %.0f, want 5", got)
	}
}

func TestRateEstimatorPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRateEstimator(0, 0)
}

func TestEWMAConverges(t *testing.T) {
	e := &EWMA{Alpha: 0.5}
	if e.Set() {
		t.Error("unset EWMA claims set")
	}
	e.Observe(100)
	if e.Value() != 100 {
		t.Errorf("first observation must initialize: %f", e.Value())
	}
	for i := 0; i < 50; i++ {
		e.Observe(10)
	}
	if math.Abs(e.Value()-10) > 0.01 {
		t.Errorf("EWMA did not converge: %f", e.Value())
	}
}

func TestEWMABadAlphaFallsBack(t *testing.T) {
	e := &EWMA{Alpha: 0} // invalid; Observe must still smooth
	e.Observe(100)
	e.Observe(0)
	if e.Value() >= 100 || e.Value() <= 0 {
		t.Errorf("fallback alpha not applied: %f", e.Value())
	}
}
