package stats

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("zero-value histogram not empty")
	}
	h.Record(10 * time.Millisecond)
	h.Record(20 * time.Millisecond)
	h.Record(30 * time.Millisecond)
	if h.Count() != 3 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Mean() != 20*time.Millisecond {
		t.Errorf("mean = %v", h.Mean())
	}
	if h.Max() < 30*time.Millisecond || h.Max() > 31*time.Millisecond {
		t.Errorf("max = %v", h.Max())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5 * time.Millisecond)
	if h.Max() != 0 || h.Count() != 1 {
		t.Error("negative durations must clamp to zero")
	}
}

// TestHistogramQuantileAccuracy checks the documented relative error
// bound (one sub-bucket, i.e. ~3%) against exact quantiles.
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var h Histogram
	var exact []float64
	for i := 0; i < 50000; i++ {
		v := time.Duration(rng.ExpFloat64() * float64(20*time.Millisecond))
		h.Record(v)
		exact = append(exact, float64(v))
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		want := exact[int(q*float64(len(exact)))]
		got := float64(h.Quantile(q))
		if got > want {
			t.Errorf("q%.2f overestimates: got %v want ≤ %v", q, got, want)
		}
		if got < want*0.93 {
			t.Errorf("q%.2f too low: got %.0f want %.0f", q, got, want)
		}
	}
}

func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(func(vals []int64) bool {
		var h Histogram
		for _, v := range vals {
			h.Record(time.Duration(v % int64(time.Hour)))
		}
		prev := time.Duration(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestHistogramIndexRoundtripProperty(t *testing.T) {
	if err := quick.Check(func(v int64) bool {
		if v < 0 {
			v = -v
		}
		i := histIndex(v)
		lo := histLow(i)
		// The bucket's lower bound must not exceed the value, and the
		// next bucket's must.
		return lo <= v && (i+1 >= len(Histogram{}.counts) || histLow(i+1) > v)
	}, nil); err != nil {
		t.Error(err)
	}
}
