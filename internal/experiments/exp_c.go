package experiments

import (
	"fmt"
	"time"

	"repro/internal/bismar"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/ycsb"
)

// DeploymentFor derives Bismar's operator-known deployment constants from
// a platform preset.
func DeploymentFor(p Platform) bismar.Deployment {
	topo := p.Build()
	var rtt time.Duration
	if topo.N() > 0 {
		rtt = 2 * topo.MeanLatency(netsim.ClientID, 0)
	}
	return bismar.Deployment{
		Nodes:            p.Nodes,
		RF:               p.RF,
		Threads:          p.Threads,
		Concurrency:      p.Concurrency,
		ReadServiceMean:  p.ReadService.Mean(),
		WriteServiceMean: p.WriteService.Mean(),
		CoordMean:        p.CoordOverhead.Mean(),
		ClientRTT:        rtt,
		ValueBytes:       p.ValueBytes,
		DatasetBytes:     p.DatasetGB * (1 << 30),
		CrossDCFraction:  p.CrossDCFrac,
		Pricing:          Pricing(),
	}
}

// BismarPhases is the paper-shaped dynamic workload: the access pattern
// shifts between read-mostly, mixed and update-heavy segments, so the
// cost-optimal level changes over time.
func BismarPhases(p Platform, scale float64) []Phase {
	per := uint64(float64(p.Ops) * scale / 4)
	// Each phase must run long enough for the closed loop and control
	// loop to settle (see Platform.Scaled).
	if minPer := uint64(p.Threads) * 50; per < minPer {
		per = minPer
	}
	if per < 1000 {
		per = 1000
	}
	rec := p.Records
	if scale < 1 {
		rec = uint64(float64(rec) * scale)
		if rec < 500 {
			rec = 500
		}
	}
	return []Phase{
		{Name: "quiet/read-mostly", Workload: ycsb.Mix(rec, 0.95, ycsb.DistZipfian, 0.90), Ops: per},
		{Name: "busy/mixed", Workload: ycsb.Mix(rec, 0.75, ycsb.DistZipfian, 0.99), Ops: per},
		{Name: "peak/update-heavy", Workload: ycsb.Mix(rec, 0.50, ycsb.DistZipfian, 0.99), Ops: per},
		{Name: "evening/read-mostly", Workload: ycsb.Mix(rec, 0.90, ycsb.DistZipfian, 0.90), Ops: per},
	}
}

// ExpCRow is one approach's outcome in the Bismar evaluation.
type ExpCRow struct {
	Approach    string
	Throughput  float64
	StaleRate   float64
	CostPerMops float64
	RelToQuorum float64
	AvgReadK    float64
}

// RunExpC reproduces §IV-B's Bismar evaluation: the adaptive
// cost-efficiency tuner against every static level over a phased
// workload; the paper's anchors are the static QUORUM (one of the most
// efficient static choices) and static ONE (cheapest but very stale).
func RunExpC(p Platform, scale float64, seed uint64) ([]ExpCRow, *Table) {
	pricing := Pricing()
	phases := BismarPhases(p, scale)

	type approach struct {
		name  string
		tuner core.Tuner
	}
	approaches := []approach{}
	for _, lvl := range symmetricLevels(p.RF) {
		approaches = append(approaches, approach{
			name:  fmt.Sprintf("static %v", lvl),
			tuner: core.StaticTuner{Read: lvl, Write: lvl},
		})
	}
	approaches = append(approaches, approach{"bismar", bismar.New(DeploymentFor(p))})

	phased := parallelMap(approaches, func(a approach) PhasedResult {
		return RunPhased(p, a.tuner, phases, seed)
	})
	rows := make([]ExpCRow, 0, len(approaches))
	for i, res := range phased {
		rows = append(rows, ExpCRow{
			Approach:    approaches[i].name,
			Throughput:  res.Throughput(),
			StaleRate:   res.StaleRate(),
			CostPerMops: res.CostPerMillionOps(p, pricing),
			AvgReadK:    res.AvgReadK,
		})
	}
	var quorumCost float64
	for i := range rows {
		if rows[i].Approach == "static QUORUM" {
			quorumCost = rows[i].CostPerMops
		}
	}
	for i := range rows {
		if quorumCost > 0 {
			rows[i].RelToQuorum = rows[i].CostPerMops / quorumCost
		}
	}

	t := NewTable(
		fmt.Sprintf("Exp B2 (§IV-B): Bismar vs static levels — %s, phased workload", p.Name),
		"approach", "throughput(op/s)", "stale reads", "$/M ops", "vs QUORUM", "avg read k")
	for _, r := range rows {
		t.Add(r.Approach, fmt.Sprintf("%.0f", r.Throughput), pct(r.StaleRate),
			fmt.Sprintf("%.4f", r.CostPerMops), pct(r.RelToQuorum), fmt.Sprintf("%.2f", r.AvgReadK))
	}
	b := rows[len(rows)-1]
	one := rows[0]
	t.Note("bismar: %s of static QUORUM's cost at %s stale reads (paper: −31%% cost, 3.5%% stale)",
		pct(b.RelToQuorum), pct(b.StaleRate))
	t.Note("static ONE costs %s of QUORUM but tolerates %s stale reads (paper: up to 61%%)",
		pct(one.RelToQuorum), pct(one.StaleRate))
	return rows, t
}
