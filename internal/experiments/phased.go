package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/netsim"
	"repro/internal/ycsb"
)

// PhasedResult aggregates a multi-phase run.
type PhasedResult struct {
	TotalOps   uint64
	Elapsed    time.Duration
	StaleReads uint64
	FreshReads uint64
	Traffic    netsim.TrafficMeter
	AvgReadK   float64
}

// Throughput reports aggregate operations per second.
func (r PhasedResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.TotalOps) / r.Elapsed.Seconds()
}

// StaleRate reports the aggregate stale fraction.
func (r PhasedResult) StaleRate() float64 {
	t := r.StaleReads + r.FreshReads
	if t == 0 {
		return 0
	}
	return float64(r.StaleReads) / float64(t)
}

// CostPerMillionOps bills the run's actual resource usage (per-second
// instance billing) and normalizes per million operations.
func (r PhasedResult) CostPerMillionOps(p Platform, pricing cost.Pricing) float64 {
	u := cost.Usage{
		Nodes:            p.Nodes,
		Duration:         r.Elapsed,
		StoredBytes:      p.DatasetGB * cost.GB * float64(p.RF),
		InterDCBytes:     float64(r.Traffic.Bytes[netsim.InterDC]),
		InterRegionBytes: float64(r.Traffic.Bytes[netsim.InterRegion]),
	}
	return cost.PerMillionOps(pricing.Smooth().BillFor(u), r.TotalOps)
}

// RunPhased drives the phases sequentially over one cluster and one
// controller, so adaptive tuners carry their state across pattern
// changes.
func RunPhased(p Platform, tuner core.Tuner, phases []Phase, seed uint64) PhasedResult {
	rg := newRig(p, seed, nil, nil)
	rg.control(tuner, 250*time.Millisecond)

	// Preload once with the largest record space used by any phase, at
	// the workload's default value size.
	rg.preload(ycsb.HeavyReadUpdate(maxRecords(phases)))
	rg.ctl.Start()

	out := PhasedResult{}
	loaded := rg.mark.Traffic
	for i, ph := range phases {
		ph.Workload.ValueSize = p.ValueBytes
		ph.Threads, ph.Seed = p.Threads, rg.seed+uint64(i)*1000
		m := rg.run(ph).Metrics
		out.TotalOps += m.Ops
		out.Elapsed += m.Elapsed()
		out.StaleReads += m.StaleReads
		out.FreshReads += m.FreshReads
	}
	rg.ctl.Stop()
	out.Traffic = rg.mark.Traffic.Sub(loaded)
	out.AvgReadK = avgReadK(rg.ctl.Journal(), 0, rg.eng.Now(), rg.cl.RF())
	return out
}

// maxRecords is the largest record space any of the phases addresses.
func maxRecords(phases []Phase) uint64 {
	var n uint64
	for _, ph := range phases {
		if ph.Workload.RecordCount > n {
			n = ph.Workload.RecordCount
		}
	}
	return n
}
