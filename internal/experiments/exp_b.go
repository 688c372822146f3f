package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/kv"
)

// ExpB1Row is one consistency level's measured cost decomposition
// (§IV-B, "consistency impact on monetary cost").
type ExpB1Row struct {
	K          int
	Level      kv.Level
	Throughput float64
	StaleRate  float64
	Bill       cost.Bill
	Usage      cost.Usage
	RelToAll   float64
}

// symmetricLevels enumerates the canonical levels ONE..ALL for rf.
func symmetricLevels(rf int) []kv.Level {
	levels := make([]kv.Level, 0, rf)
	for k := 1; k <= rf; k++ {
		switch {
		case k == 1:
			levels = append(levels, kv.One)
		case k == rf:
			levels = append(levels, kv.All)
		case k == rf/2+1:
			levels = append(levels, kv.Quorum)
		default:
			levels = append(levels, kv.Count(k))
		}
	}
	return levels
}

// RunExpB1 reproduces the per-level cost study: the heavy read-update
// workload at every symmetric consistency level, billed at the paper's
// operation count with the 2013 us-east-1 catalog (per-second instance
// billing: whole-hour rounding would bill every level's sub-hour run the
// same).
func RunExpB1(p Platform, seed uint64) ([]ExpB1Row, *Table) {
	pricing := Pricing().PerSecond()
	levels := symmetricLevels(p.RF)
	specs := make([]RunSpec, len(levels))
	for i, lvl := range levels {
		specs[i] = RunSpec{
			Platform: p,
			Tuner:    core.StaticTuner{Read: lvl, Write: lvl},
			Seed:     seed,
		}
	}
	rows := make([]ExpB1Row, 0, len(levels))
	for i, res := range RunAll(specs) {
		bill, usage := BillAtPaperScale(p, pricing, res, p.Ops)
		rows = append(rows, ExpB1Row{
			K: i + 1, Level: levels[i],
			Throughput: res.Metrics.Throughput(),
			StaleRate:  res.Metrics.StaleRate(),
			Bill:       bill,
			Usage:      usage,
		})
	}
	all := rows[len(rows)-1].Bill.Total()
	for i := range rows {
		if all > 0 {
			rows[i].RelToAll = rows[i].Bill.Total() / all
		}
	}

	t := NewTable(
		fmt.Sprintf("Exp B1 (§IV-B): consistency impact on monetary cost — %s, %d ops at paper scale",
			p.Name, p.Ops),
		"level", "throughput(op/s)", "fresh reads", "stale reads", "duration",
		"$ instances", "$ storage", "$ network", "$ total", "vs ALL")
	for _, r := range rows {
		t.Add(r.Level.String(), fmt.Sprintf("%.0f", r.Throughput),
			pct(1-r.StaleRate), pct(r.StaleRate),
			r.Usage.Duration.Round(time.Second),
			fmt.Sprintf("%.3f", r.Bill.Instances),
			fmt.Sprintf("%.3f", r.Bill.Storage),
			fmt.Sprintf("%.3f", r.Bill.Network),
			fmt.Sprintf("%.3f", r.Bill.Total()),
			pct(r.RelToAll))
	}
	one, quorum := rows[0], rows[p.RF/2]
	t.Note("ONE reduces total cost by %s vs ALL (paper: down to 48%%); fresh reads at ONE: %s (paper: 21%%)",
		pct(1-one.RelToAll), pct(1-one.StaleRate))
	t.Note("QUORUM reduces cost by %s vs ALL (paper: 13%%) and reads %s fresh",
		pct(1-quorum.RelToAll), pct(1-quorum.StaleRate))
	return rows, t
}
