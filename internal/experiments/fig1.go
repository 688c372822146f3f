package experiments

import (
	"fmt"
	"time"

	"repro/internal/harmony"
	"repro/internal/kv"
	"repro/internal/netsim"
	"repro/internal/stats"
)

// Fig1Row compares the Figure-1 stale-read model against ground truth for
// one (write rate, read level) point.
type Fig1Row struct {
	WriteRate float64
	ReadK     int
	Predicted float64
	Measured  float64
	Reads     uint64
}

// RunFig1Validation validates Harmony's probabilistic estimator against
// the oracle on a controlled single-key workload: Poisson writes at a
// fixed rate against one key, Poisson reads at every level, on a two-site
// cluster. Prediction uses only monitor-visible signals (ack-delay ranks
// and rates); measurement uses the staleness oracle.
func RunFig1Validation(seed uint64) ([]Fig1Row, *Table) {
	const (
		rf       = 5
		readRate = 200.0
		duration = 40 * time.Second
	)
	type point struct {
		writeRate float64
		k         int
	}
	var points []point
	for _, writeRate := range []float64{2, 10, 50} {
		for k := 1; k <= rf; k++ {
			points = append(points, point{writeRate, k})
		}
	}
	rows := parallelMap(points, func(pt point) Fig1Row {
		return runFig1Point(seed, rf, pt.writeRate, readRate, pt.k, duration)
	})

	t := NewTable("Fig. 1 model validation: predicted vs measured stale-read rate (single key, two sites, RF 5)",
		"write rate (1/s)", "read level k", "predicted stale", "measured stale", "reads")
	for _, r := range rows {
		t.Add(fmt.Sprintf("%.0f", r.WriteRate), r.ReadK, pct(r.Predicted), pct(r.Measured), r.Reads)
	}
	t.Note("prediction uses coordinator-visible ack delays only; measurement is the oracle's ground truth")
	return rows, t
}

// fig1Platform is the validation's deployment: ten Grid'5000 nodes over
// two sites at RF rf, with the store's default node profile.
func fig1Platform(rf int) Platform {
	d := kv.DefaultConfig()
	return Platform{
		Name:          "fig1",
		Build:         func() *netsim.Topology { return netsim.G5KTwoSites(10) },
		RF:            rf,
		ReadService:   d.ReadService,
		WriteService:  d.WriteService,
		CoordOverhead: d.CoordOverhead,
		Concurrency:   d.Concurrency,
	}
}

func runFig1Point(seed uint64, rf int, writeRate, readRate float64, readK int, duration time.Duration) Fig1Row {
	rg := newRig(fig1Platform(rf), seed, func(cfg *kv.Config) {
		cfg.ReadRepair = false // keep propagation purely asynchronous for the model check
		cfg.GlobalRepairChance = 0
	}, nil)
	eng, cl := rg.eng, rg.cl

	const key = "fig1-key"
	cl.Preload(1, func(uint64) string { return key }, make([]byte, 256))

	var staleReads, totalReads uint64
	value := make([]byte, 256)
	rng := stats.NewSource(seed).Stream("fig1")

	var scheduleWrite, scheduleRead func()
	scheduleWrite = func() {
		gap := stats.Exponential(rng, time.Duration(float64(time.Second)/writeRate))
		eng.Schedule(gap, func() {
			if eng.Now() < duration {
				cl.Write(key, value, kv.One, func(kv.WriteResult) {})
				scheduleWrite()
			}
		})
	}
	scheduleRead = func() {
		gap := stats.Exponential(rng, time.Duration(float64(time.Second)/readRate))
		eng.Schedule(gap, func() {
			if eng.Now() < duration {
				cl.Read(key, kv.Count(readK), func(res kv.ReadResult) {
					if res.Err == nil {
						totalReads++
						if res.Stale {
							staleReads++
						}
					}
				})
				scheduleRead()
			}
		})
	}
	scheduleWrite()
	scheduleRead()
	eng.RunUntil(duration + 5*time.Second)

	snap := rg.mon.Snapshot()
	predicted := harmony.StaleProb(rf, readK, 1, snap.RankDelays, writeRate)
	measured := 0.0
	if totalReads > 0 {
		measured = float64(staleReads) / float64(totalReads)
	}
	return Fig1Row{
		WriteRate: writeRate,
		ReadK:     readK,
		Predicted: predicted,
		Measured:  measured,
		Reads:     totalReads,
	}
}
