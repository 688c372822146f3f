package behavior

import (
	"fmt"
	"time"

	"repro/internal/stats"
)

// Features summarize one period of application behaviour — the
// "predefined metrics collected per time period" of §III-C.
type Features struct {
	// OpRate is operations per second.
	OpRate float64
	// ReadRatio is the read fraction of operations.
	ReadRatio float64
	// WriteRate is writes per second.
	WriteRate float64
	// ReadAfterWrite is the fraction of reads landing within one second
	// of a write to the same key — a proxy for how exposed the
	// application is to replication lag.
	ReadAfterWrite float64
	// KeySkew is the share of accesses going to the 16 hottest keys.
	KeySkew float64
	// WorkingSet is the number of distinct keys touched per second.
	WorkingSet float64
}

// Vector flattens the features for clustering.
func (f Features) Vector() []float64 {
	return []float64{f.OpRate, f.ReadRatio, f.WriteRate, f.ReadAfterWrite, f.KeySkew, f.WorkingSet}
}

// featuresFromVector restores Features from a (denormalized) vector.
func featuresFromVector(v []float64) Features {
	return Features{
		OpRate: v[0], ReadRatio: v[1], WriteRate: v[2],
		ReadAfterWrite: v[3], KeySkew: v[4], WorkingSet: v[5],
	}
}

// String renders the features compactly.
func (f Features) String() string {
	return fmt.Sprintf("rate=%.0f/s read=%.0f%% writes=%.0f/s raw=%.0f%% skew=%.0f%% wset=%.0f/s",
		f.OpRate, 100*f.ReadRatio, f.WriteRate, 100*f.ReadAfterWrite, 100*f.KeySkew, f.WorkingSet)
}

// Period is one timeline segment.
type Period struct {
	Start    time.Duration
	Features Features
}

// Timeline is the application's behaviour over time, the input of the
// modeling process.
type Timeline struct {
	PeriodLen time.Duration
	Periods   []Period
}

// rawWindow is the read-after-write proximity used by the
// ReadAfterWrite feature.
const rawWindow = time.Second

// Featurizer accumulates one period's feature inputs; it is shared by the
// offline timeline builder and the online classifier.
type Featurizer struct {
	start     time.Duration
	ops       uint64
	reads     uint64
	writes    uint64
	rawReads  uint64
	hot       *stats.HeavyHitters
	distinct  map[string]struct{}
	lastWrite map[string]time.Duration
}

// NewFeaturizer returns an empty featurizer starting at start.
func NewFeaturizer(start time.Duration) *Featurizer {
	return &Featurizer{
		start:     start,
		hot:       stats.NewHeavyHitters(64),
		distinct:  make(map[string]struct{}),
		lastWrite: make(map[string]time.Duration),
	}
}

// Observe feeds one operation.
func (f *Featurizer) Observe(op Op) {
	f.ops++
	f.hot.Observe(op.Key)
	f.distinct[op.Key] = struct{}{}
	switch op.Kind {
	case OpRead:
		f.reads++
		if w, ok := f.lastWrite[op.Key]; ok && op.At-w <= rawWindow {
			f.rawReads++
		}
	case OpWrite:
		f.writes++
		f.lastWrite[op.Key] = op.At
	}
}

// Ops reports the number of operations observed.
func (f *Featurizer) Ops() uint64 { return f.ops }

// Finish produces the period's features given its end time.
func (f *Featurizer) Finish(end time.Duration) Features {
	secs := (end - f.start).Seconds()
	if secs <= 0 {
		secs = 1
	}
	out := Features{
		OpRate:     float64(f.ops) / secs,
		WriteRate:  float64(f.writes) / secs,
		WorkingSet: float64(len(f.distinct)) / secs,
	}
	if f.ops > 0 {
		out.ReadRatio = float64(f.reads) / float64(f.ops)
	}
	if f.reads > 0 {
		out.ReadAfterWrite = float64(f.rawReads) / float64(f.reads)
	}
	if f.ops > 0 {
		var hotCount uint64
		for _, kc := range f.hot.Top(16) {
			hotCount += kc.Count
		}
		out.KeySkew = float64(hotCount) / float64(f.ops)
	}
	return out
}

// Reset clears the featurizer for the next period, keeping recent write
// times so read-after-write detection works across period boundaries.
func (f *Featurizer) Reset(start time.Duration) {
	f.start = start
	f.ops, f.reads, f.writes, f.rawReads = 0, 0, 0, 0
	f.hot.Reset()
	f.distinct = make(map[string]struct{})
	for k, w := range f.lastWrite {
		if start-w > rawWindow {
			delete(f.lastWrite, k)
		}
	}
}

// BuildTimeline cuts a trace into fixed periods and extracts features,
// the first step of the offline modeling process.
func BuildTimeline(trace Trace, periodLen time.Duration) Timeline {
	tl := Timeline{PeriodLen: periodLen}
	if len(trace.Ops) == 0 || periodLen <= 0 {
		return tl
	}
	start := trace.Ops[0].At
	cur := start - start%periodLen
	fz := NewFeaturizer(cur)
	flush := func(end time.Duration) {
		if fz.Ops() > 0 {
			tl.Periods = append(tl.Periods, Period{Start: cur, Features: fz.Finish(end)})
		}
	}
	for _, op := range trace.Ops {
		for op.At >= cur+periodLen {
			flush(cur + periodLen)
			cur += periodLen
			fz.Reset(cur)
		}
		fz.Observe(op)
	}
	flush(cur + periodLen)
	return tl
}
