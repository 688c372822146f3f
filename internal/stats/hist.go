package stats

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// histSubBits fixes the sub-bucket resolution of Histogram: each
// power-of-two octave is split into 2^histSubBits linear sub-buckets,
// giving a worst-case relative quantization error of 2^-histSubBits.
const histSubBits = 5

// Histogram records durations in logarithmic buckets with linear
// sub-buckets (the HdrHistogram layout) so that quantiles over many
// decades of latency stay within ~3% relative error while the footprint
// stays a few kilobytes. The zero value is ready to use.
type Histogram struct {
	counts [64 << histSubBits]uint64
	total  uint64
	sum    int64
	max    int64
}

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 1<<histSubBits {
		return int(u)
	}
	exp := bits.Len64(u) - 1 - histSubBits
	sub := u >> uint(exp) // in [1<<histSubBits, 2<<histSubBits)
	return int(uint64(exp+1)<<histSubBits + (sub - 1<<histSubBits))
}

// histLow returns the lowest value mapping to bucket i, saturating at
// MaxInt64 for the top octave.
func histLow(i int) int64 {
	if i < 1<<histSubBits {
		return int64(i)
	}
	exp := i>>histSubBits - 1
	sub := uint64(i&(1<<histSubBits-1)) + 1<<histSubBits
	v := sub << uint(exp)
	if exp >= 64-histSubBits-1 && v>>uint(exp) != sub || v > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(v)
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(v)]++
	h.total++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean reports the arithmetic mean of the recorded values.
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.sum / int64(h.total))
}

// Max reports the largest recorded value.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// Quantile reports an estimate of the q-quantile (q in [0,1]) of the
// recorded values; the estimate is the lower bound of the bucket holding
// the quantile, so it never exceeds the true value by more than one
// sub-bucket width.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum > rank {
			return time.Duration(histLow(i))
		}
	}
	return time.Duration(h.max)
}

// String summarises the histogram for reports.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.total, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max())
}
