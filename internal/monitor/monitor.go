// Package monitor implements Harmony's monitoring module (paper §III-A):
// it observes the storage system's data-access stream — read and write
// arrival rates, per-replica propagation delays learned from write
// acknowledgements, and the key-popularity profile — and periodically
// produces the Snapshot the adaptive consistency modules consume.
//
// The monitor sees only client-observable signals (request streams and
// coordinator-side acknowledgement timings); the consistency tuners
// never consume the staleness oracle's ground truth. The one exception
// is Snapshot.ObservedStaleRate, which counts the per-result staleness
// verdicts as a stand-in for the client-side staleness probes a real
// deployment would run — it feeds the autoscale controller's constraint
// check, not the tuners' estimators.
//
// Arrival rates and the stale/cache feedback are windowed (Options).
// The latency histograms, the key-popularity sketches and the Reads and
// Writes counters are cumulative since New; nothing rotates or resets
// them, and a reader that wants a window of them differences it itself.
package monitor

import (
	"time"

	"repro/internal/kv"
	"repro/internal/stats"
	"repro/internal/storage"
)

// Clock supplies the current time; both engines provide it.
type Clock interface {
	Now() time.Duration
}

// Options tunes the monitor's windowed rate estimates. The latency
// histograms take no option: they are cumulative since New.
type Options struct {
	// Window is the sliding window for rate estimation.
	Window time.Duration
	// Slots subdivides the window.
	Slots int
	// TopKeys bounds the heavy-hitter sketches.
	TopKeys int
}

// rankAlpha is the EWMA weight of new propagation-delay samples.
const rankAlpha = 0.2

// DefaultOptions returns the values used in the experiments: a 10-second
// window, 20 slots, 128 tracked keys.
func DefaultOptions() Options {
	return Options{
		Window:  10 * time.Second,
		Slots:   20,
		TopKeys: 128,
	}
}

// Monitor collects access metrics. It is not safe for concurrent use; the
// engine serializes callbacks (event loop in simulation, actor lock
// live).
type Monitor struct {
	clock Clock
	opts  Options
	rf    int

	readRate  *stats.RateEstimator
	writeRate *stats.RateEstimator

	// Windowed staleness feedback: completed reads and how many of them
	// returned a stale value (the verdict rides on completed results as
	// measurement infrastructure; a real deployment would wire
	// client-side staleness probes into the same counters).
	doneReads  *stats.RateEstimator
	staleReads *stats.RateEstimator
	// cacheHits tracks reads served from the coordinators' hot-key
	// cache: load the replicas never saw. The autoscaler subtracts it
	// from the read rate to provision for the effective load.
	cacheHits *stats.RateEstimator

	rankEWMA []stats.EWMA // ack delay until the i-th replica, i=1..RF

	readLat  stats.Histogram
	writeLat stats.Histogram

	writeKeys *stats.HeavyHitters
	readKeys  *stats.HeavyHitters
	distinct  *stats.DistinctCounter

	reads, writes uint64
}

// New returns a monitor for a store with replication factor rf.
func New(rf int, clock Clock, opts Options) *Monitor {
	if opts.Window <= 0 {
		opts = DefaultOptions()
	}
	m := &Monitor{
		clock:      clock,
		opts:       opts,
		rf:         rf,
		readRate:   stats.NewRateEstimator(opts.Window, opts.Slots),
		writeRate:  stats.NewRateEstimator(opts.Window, opts.Slots),
		doneReads:  stats.NewRateEstimator(opts.Window, opts.Slots),
		staleReads: stats.NewRateEstimator(opts.Window, opts.Slots),
		cacheHits:  stats.NewRateEstimator(opts.Window, opts.Slots),
		rankEWMA:   make([]stats.EWMA, rf),
		writeKeys:  stats.NewHeavyHitters(opts.TopKeys),
		readKeys:   stats.NewHeavyHitters(opts.TopKeys),
		distinct:   stats.NewDistinctCounter(16),
	}
	for i := range m.rankEWMA {
		m.rankEWMA[i].Alpha = rankAlpha
	}
	return m
}

// Hooks returns the instrumentation hooks to register on the cluster.
func (m *Monitor) Hooks() *kv.Hooks {
	return &kv.Hooks{
		ReadStarted: func(now time.Duration, key string) {
			m.reads++
			m.readRate.Add(now, 1)
			m.readKeys.Observe(key)
			m.distinct.Observe(key)
		},
		ReadCompleted: func(now time.Duration, res kv.ReadResult) {
			if res.Err == nil {
				m.readLat.Record(res.Latency)
				m.doneReads.Add(now, 1)
				if res.Stale {
					m.staleReads.Add(now, 1)
				}
				if res.Cached {
					m.cacheHits.Add(now, 1)
				}
			}
		},
		WriteStarted: func(now time.Duration, key string, _ storage.Version, _ int) {
			m.writes++
			m.writeRate.Add(now, 1)
			m.writeKeys.Observe(key)
			m.distinct.Observe(key)
		},
		WriteAck: func(_ time.Duration, _ string, rank int, delay time.Duration) {
			if rank >= 1 && rank <= len(m.rankEWMA) {
				m.rankEWMA[rank-1].Observe(float64(delay))
			}
		},
		WriteCompleted: func(_ time.Duration, res kv.WriteResult) {
			if res.Err == nil {
				m.writeLat.Record(res.Latency)
			}
		},
	}
}

// KeyRate describes one heavy key in the access profile.
type KeyRate struct {
	Key       string
	ReadShare float64 // fraction of reads hitting the key
	WriteRate float64 // writes per second to the key
}

// Snapshot is the monitor's periodic output: everything the tuners need.
type Snapshot struct {
	Now time.Duration

	ReadRate  float64 // reads per second over the window
	WriteRate float64 // writes per second over the window

	// RankDelays[i] estimates how long after a write's acceptance the
	// (i+1)-th replica acknowledged it; RankDelays[rf-1] is the total
	// propagation time T_p of Figure 1.
	RankDelays []time.Duration

	ReadLatencyMean  time.Duration
	ReadLatencyP95   time.Duration
	WriteLatencyMean time.Duration

	// ObservedStaleRate is the fraction of reads completed inside the
	// window that returned a stale value — the measured feedback signal
	// the autoscale controller checks provisioning constraints against
	// (tuners keep using the model-based estimators).
	ObservedStaleRate float64

	// CacheHitShare is the fraction of reads completed inside the window
	// that were served from the coordinators' hot-key cache (zero
	// without kv.Config.HotCache). Those reads never reached a replica,
	// so the autoscaler provisions for ReadRate·(1−CacheHitShare).
	CacheHitShare float64

	// Access profile for the per-key refinement.
	TopKeys      []KeyRate
	TailKeys     float64 // estimated distinct keys outside TopKeys
	TailReadShr  float64 // read probability mass outside TopKeys
	TailWriteRte float64 // aggregate write rate outside TopKeys

	Reads, Writes uint64
}

// PropagationTime reports T_p: the estimated delay until the last replica
// holds a write.
func (s Snapshot) PropagationTime() time.Duration {
	if len(s.RankDelays) == 0 {
		return 0
	}
	return s.RankDelays[len(s.RankDelays)-1]
}

// Snapshot assembles the current estimates.
func (m *Monitor) Snapshot() Snapshot {
	now := m.clock.Now()
	s := Snapshot{
		Now:              now,
		ReadRate:         m.readRate.Rate(now),
		WriteRate:        m.writeRate.Rate(now),
		RankDelays:       make([]time.Duration, m.rf),
		ReadLatencyMean:  m.readLat.Mean(),
		ReadLatencyP95:   m.readLat.Quantile(0.95),
		WriteLatencyMean: m.writeLat.Mean(),
		Reads:            m.reads,
		Writes:           m.writes,
	}
	if done := m.doneReads.Rate(now); done > 0 {
		s.ObservedStaleRate = m.staleReads.Rate(now) / done
		s.CacheHitShare = m.cacheHits.Rate(now) / done
	}
	// Enforce monotone non-decreasing rank delays: EWMAs of different
	// ranks can momentarily cross right after startup.
	prev := time.Duration(0)
	for i := range m.rankEWMA {
		d := time.Duration(m.rankEWMA[i].Value())
		if d < prev {
			d = prev
		}
		s.RankDelays[i] = d
		prev = d
	}
	s.TopKeys, s.TailKeys, s.TailReadShr, s.TailWriteRte = m.profile()
	return s
}

// profile merges the read and write sketches into the per-key access
// profile: for every tracked write-heavy key we estimate its write rate
// and the probability a read targets it; everything else is folded into a
// uniform tail.
func (m *Monitor) profile() (top []KeyRate, tailKeys, tailReadShare, tailWriteRate float64) {
	now := m.clock.Now()
	writeTotal := m.writeKeys.Total()
	readTotal := m.readKeys.Total()
	globalWriteRate := m.writeRate.Rate(now)

	// Space-saving overestimates tracked keys by up to their error
	// bound; using the guaranteed count (count − error) keeps the top
	// shares honest and leaves the uncertain mass in the tail.
	readShare := make(map[string]float64)
	if readTotal > 0 {
		for _, kc := range m.readKeys.Top(0) {
			readShare[kc.Key] = float64(kc.Count-kc.Err) / float64(readTotal)
		}
	}

	var topWriteShare, topReadShare float64
	if writeTotal > 0 {
		for _, kc := range m.writeKeys.Top(0) {
			share := float64(kc.Count-kc.Err) / float64(writeTotal)
			top = append(top, KeyRate{
				Key:       kc.Key,
				ReadShare: readShare[kc.Key],
				WriteRate: share * globalWriteRate,
			})
			topWriteShare += share
			topReadShare += readShare[kc.Key]
		}
	}
	tailReadShare = max(0, 1-topReadShare)
	tailWriteRate = max(0, 1-topWriteShare) * globalWriteRate
	tailKeys = max(1, m.distinct.Estimate()-float64(len(top)))
	return top, tailKeys, tailReadShare, tailWriteRate
}
