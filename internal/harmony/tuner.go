package harmony

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/monitor"
)

// Tuner is Harmony's adaptive consistency module: each control period it
// estimates the stale-read rate for every candidate read level and picks
// the smallest number of involved replicas whose estimate stays within
// the application-tolerated rate Alpha. Writes stay at ONE, the
// eventual-consistency side the paper tunes reads against.
type Tuner struct {
	// Alpha is the application-tolerated stale read rate, in [0, 1].
	Alpha float64
	// Estimator performs the probabilistic stale-rate computation.
	Estimator Estimator
}

// New returns a Harmony tuner for replication factor rf with tolerated
// stale rate alpha, using the aggregate estimator, as in the paper.
func New(alpha float64, rf int) *Tuner {
	return &Tuner{Alpha: alpha, Estimator: Estimator{RF: rf, WriteK: 1}}
}

// PerKey switches the tuner to the per-key refined estimator and returns
// it (builder style).
func (t *Tuner) PerKey() *Tuner {
	t.Estimator.PerKey = true
	return t
}

// Name implements core.Tuner.
func (t *Tuner) Name() string {
	mode := "aggregate"
	if t.Estimator.PerKey {
		mode = "per-key"
	}
	return fmt.Sprintf("harmony(α=%.0f%%,%s)", t.Alpha*100, mode)
}

// Decide implements core.Tuner: the smallest k with estimated stale rate
// ≤ Alpha wins; level ONE is the fast path the paper favours whenever the
// application tolerates it.
func (t *Tuner) Decide(snap monitor.Snapshot) core.Decision {
	rf := t.Estimator.RF
	chosen := rf
	est := 0.0
	for k := 1; k <= rf; k++ {
		p := t.Estimator.StaleRate(k, snap)
		if p <= t.Alpha {
			chosen, est = k, p
			break
		}
	}
	return core.Decision{
		ReadLevel:          kv.Count(chosen),
		WriteLevel:         kv.One,
		EstimatedStaleRate: est,
		Reason: fmt.Sprintf("P_stale(%d)=%.3f ≤ α=%.3f (λw=%.1f/s, Tp=%v)",
			chosen, est, t.Alpha, snap.WriteRate, snap.PropagationTime()),
	}
}

var _ core.Tuner = (*Tuner)(nil)
