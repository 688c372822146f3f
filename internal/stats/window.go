package stats

import "time"

// RateEstimator measures an event arrival rate (events per second) over a
// sliding window of fixed length, using slotted counts. All times are the
// caller's clock — virtual time under simulation, wall time live — so the
// estimator itself is clock-agnostic. The zero value is not usable; use
// NewRateEstimator.
type RateEstimator struct {
	slot   time.Duration
	slots  []float64
	head   int           // index of the slot containing `cursor`
	cursor time.Duration // start time of the head slot
	primed bool
}

// NewRateEstimator returns an estimator with the given window split into
// nslots slots. Longer windows smooth more; shorter windows adapt faster.
func NewRateEstimator(window time.Duration, nslots int) *RateEstimator {
	if nslots <= 0 || window <= 0 {
		panic("stats: rate estimator needs a positive window and slot count")
	}
	return &RateEstimator{
		slot:  window / time.Duration(nslots),
		slots: make([]float64, nslots),
	}
}

// advance rotates the slot ring so that now falls inside the head slot.
func (r *RateEstimator) advance(now time.Duration) {
	if !r.primed {
		r.cursor = now - now%r.slot
		r.primed = true
		return
	}
	for now >= r.cursor+r.slot {
		r.head = (r.head + 1) % len(r.slots)
		r.slots[r.head] = 0
		r.cursor += r.slot
		// Cap the catch-up work when the estimator was idle for many
		// windows: everything is zero after a full rotation anyway.
		if now-r.cursor > r.slot*time.Duration(len(r.slots)+1) {
			r.cursor = now - now%r.slot
			for i := range r.slots {
				r.slots[i] = 0
			}
		}
	}
}

// Add records n events at time now.
func (r *RateEstimator) Add(now time.Duration, n float64) {
	r.advance(now)
	r.slots[r.head] += n
}

// Rate reports events per second over the window ending at now.
func (r *RateEstimator) Rate(now time.Duration) float64 {
	r.advance(now)
	var sum float64
	for _, c := range r.slots {
		sum += c
	}
	window := r.slot * time.Duration(len(r.slots))
	return sum / window.Seconds()
}

// Count reports the raw number of events currently inside the window.
func (r *RateEstimator) Count(now time.Duration) float64 {
	r.advance(now)
	var sum float64
	for _, c := range r.slots {
		sum += c
	}
	return sum
}

// EWMA is an exponentially weighted moving average. The zero value is an
// empty average; the first observation initializes it.
type EWMA struct {
	Alpha float64 // weight of a new observation, in (0, 1]
	value float64
	set   bool
}

// Observe folds x into the average.
func (e *EWMA) Observe(x float64) {
	if !e.set {
		e.value, e.set = x, true
		return
	}
	a := e.Alpha
	if a <= 0 || a > 1 {
		a = 0.2
	}
	e.value = a*x + (1-a)*e.value
}

// Value reports the current average (zero before any observation).
func (e *EWMA) Value() float64 { return e.value }

// Set reports whether any observation has been folded in.
func (e *EWMA) Set() bool { return e.set }
