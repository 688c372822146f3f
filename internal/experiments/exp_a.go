package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/harmony"
	"repro/internal/kv"
)

// ExpARow is one approach's outcome in the Harmony performance/staleness
// comparison (§IV-A).
type ExpARow struct {
	Approach     string
	Throughput   float64
	StaleRate    float64
	ReadMean     time.Duration
	ReadP95      time.Duration
	WriteMean    time.Duration
	AvgReadK     float64
	LevelChanges int
}

// RunExpA reproduces §IV-A on the given platform: static eventual (ONE)
// and strong (read ALL) baselines against Harmony at each of the
// platform's tolerated stale rates (p.Tolerances). Writes run at level ONE
// throughout, the configuration Harmony tunes reads against.
func RunExpA(p Platform, seed uint64) ([]ExpARow, *Table) {
	specs := []struct {
		name  string
		tuner core.Tuner
	}{
		{"eventual (ONE)", core.StaticTuner{Read: kv.One, Write: kv.One}},
		{"strong (ALL)", core.StaticTuner{Read: kv.All, Write: kv.One}},
	}
	for _, a := range p.Tolerances {
		specs = append(specs, struct {
			name  string
			tuner core.Tuner
		}{fmt.Sprintf("harmony α=%.0f%%", a*100), harmony.New(a, p.RF)})
	}

	runSpecs := make([]RunSpec, len(specs))
	for i, s := range specs {
		runSpecs[i] = RunSpec{Platform: p, Tuner: s.tuner, Seed: seed}
	}
	rows := make([]ExpARow, 0, len(specs))
	for i, res := range RunAll(runSpecs) {
		m := res.Metrics
		rows = append(rows, ExpARow{
			Approach:     specs[i].name,
			Throughput:   m.Throughput(),
			StaleRate:    m.StaleRate(),
			ReadMean:     m.ReadLat.Mean(),
			ReadP95:      m.ReadLat.Quantile(0.95),
			WriteMean:    m.WriteLat.Mean(),
			AvgReadK:     res.AvgReadK,
			LevelChanges: res.LevelChanges,
		})
	}

	t := NewTable(
		fmt.Sprintf("Exp A (§IV-A): Harmony vs static consistency — %s, %d ops, %d threads",
			p.Name, p.Ops, p.Threads),
		"approach", "throughput(op/s)", "stale reads", "read mean", "read p95", "write mean", "avg read k", "level changes")
	for _, r := range rows {
		t.Add(r.Approach, fmt.Sprintf("%.0f", r.Throughput), pct(r.StaleRate),
			r.ReadMean.Round(10*time.Microsecond), r.ReadP95.Round(10*time.Microsecond),
			r.WriteMean.Round(10*time.Microsecond), fmt.Sprintf("%.2f", r.AvgReadK), r.LevelChanges)
	}

	ev, st := rows[0], rows[1]
	for _, r := range rows[2:] {
		staleCut := 0.0
		if ev.StaleRate > 0 {
			staleCut = 1 - r.StaleRate/ev.StaleRate
		}
		thrGain := r.Throughput/st.Throughput - 1
		t.Note("%s: stale reads %+.1f%% vs eventual; throughput %+.0f%% vs strong (paper: −~80%%, up to +45%%)",
			r.Approach, -100*staleCut, 100*thrGain)
	}
	return rows, t
}
