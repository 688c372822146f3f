package experiments

import (
	"fmt"
	"time"

	"repro/internal/cost"
	"repro/internal/harmony"
	"repro/internal/kv"
	"repro/internal/netsim"
	"repro/internal/ycsb"
)

// The elasticity study (PR 4): what scaling the cluster M → M+2 → M+1
// under YCSB load costs in staleness, convergence and money, and how
// much the two elastic-membership mechanisms buy:
//
//   - snapshot streaming (Join ships a joiner the ranges it will own
//     before the placement flips) versus the hints+AE-only ablation
//     (the joiner enters empty and converges through anti-entropy);
//   - warming-aware read routing (a converging node is excluded from
//     read quorums) versus counting it fully live at once.
//
// Four variants — {stream, ae-only} × {warm, cold} — run in parallel
// over six phases:
//
//	steady      — baseline at M members
//	join-1      — node M joins mid-phase
//	join-2      — node M+1 joins mid-phase
//	scaled      — steady at M+2 members
//	scale-down  — node M+1 decommissions mid-phase
//	settled     — steady at M+1 members
//
// Per phase the study reports throughput, oracle stale-read rate,
// Harmony's time-weighted read level and the phase bill (node-hours +
// storage + billed traffic); per join it reports the convergence time
// (Join call until the joiner holds ≥99% of the keys it owns).
type elasticityVariant struct {
	Name   string
	Stream bool
	Warm   bool
}

// elasticityPhase is one phase's window and what it cost: node-hours at
// the membership it ended on, storage, and the window's billed traffic.
type elasticityPhase struct {
	window
	Bill cost.Bill
}

// elasticityOutcome is one variant's full measurement.
type elasticityOutcome struct {
	Variant     elasticityVariant
	Phases      []elasticityPhase
	Convergence []time.Duration // per join, in issue order
	Usage       kv.Usage
}

// RunElasticity runs the study on platform p (its topology must hold two
// spare nodes: the cluster starts with p.Nodes-2 members) for all four
// variants, fanned out over the parallel driver.
func RunElasticity(p Platform, seed uint64) ([]elasticityOutcome, *Table) {
	variants := []elasticityVariant{
		{Name: "stream+warm", Stream: true, Warm: true},
		{Name: "stream+cold", Stream: true, Warm: false},
		{Name: "ae-only+warm", Stream: false, Warm: true},
		{Name: "ae-only+cold", Stream: false, Warm: false},
	}
	outcomes := parallelMap(variants, func(v elasticityVariant) elasticityOutcome {
		return runElasticityVariant(p, v, seed)
	})

	t := NewTable("Elasticity (PR 4): scaling "+fmt.Sprintf("%d→%d→%d", p.Nodes-2, p.Nodes, p.Nodes-1)+
		" under load — snapshot streaming and warming-aware routing vs the hints+AE ablation — "+p.Name,
		"variant", "phase", "members", "ops", "throughput(op/s)", "stale", "avg read k", "bill")
	for _, out := range outcomes {
		for _, ph := range out.Phases {
			t.Add(out.Variant.Name, ph.Name, fmt.Sprintf("%d", ph.Members),
				fmt.Sprintf("%d", ph.Metrics.Ops), fmt.Sprintf("%.0f", ph.Metrics.Throughput()),
				pct(ph.StaleRate()), fmt.Sprintf("%.2f", ph.AvgReadK),
				fmt.Sprintf("$%.4f", ph.Bill.Total()))
		}
		u := out.Usage
		t.Note("%s: joins converged in %v; streamed %d cells / %d KiB in %d chunks; %d hints replayed, %d AE rounds",
			out.Variant.Name, out.Convergence, u.StreamedCells, u.StreamedBytes>>10,
			u.StreamChunks, u.HintsReplayed, u.AERounds)
	}
	t.Note("convergence = Join call until the joiner holds ≥99%% of its owned keys; " +
		"ae-only joiners enter empty and owe everything to anti-entropy")
	return outcomes, t
}

// runElasticityVariant drives the six phases over one cluster and one
// Harmony controller (α=10%).
func runElasticityVariant(p Platform, v elasticityVariant, seed uint64) elasticityOutcome {
	if p.Nodes < 5 {
		panic("experiments: elasticity needs ≥5 topology nodes (two spares)")
	}
	members := p.Nodes - 2
	joinerA := netsim.NodeID(members)
	joinerB := netsim.NodeID(members + 1)

	rg := newRig(p, seed, func(cfg *kv.Config) {
		cfg.InitialMembers = firstNodes(members)
		cfg.DisableJoinStream = !v.Stream
		if v.Warm {
			cfg.WarmupDuration = 2 * time.Second
		}
		// Repair machinery fast enough that the ae-only ablation converges
		// within the run (and the streaming variant's gap writes heal).
		fastRepair(cfg, 1024)
	}, nil)
	cl, tr := rg.cl, rg.tr
	rg.control(harmony.New(0.10, cl.RF()), 100*time.Millisecond)

	w := ycsb.HeavyReadUpdate(p.Records)
	w.ValueSize = p.ValueBytes
	keys, _ := rg.preload(w)
	rg.ctl.Start()

	// Convergence probes: a scheduled self-rechecking timer per join, so
	// coverage is sampled inside the event loop while the workload runs.
	out := elasticityOutcome{Variant: v}
	convergedAt := make(map[netsim.NodeID]time.Duration)
	watchJoin := func(id netsim.NodeID) {
		joinAt := tr.Now()
		var check func()
		check = func() {
			if st := cl.State(id); st == kv.StateLeaving || st == kv.StateDecommissioned {
				// Removed before converging (possible for the second
				// joiner in the ae-only variants): report non-convergence
				// instead of probing a node that left the ring.
				convergedAt[id] = -1
				return
			}
			if !cl.IsMember(id) { // placement not flipped yet
				tr.Schedule(50*time.Millisecond, check)
				return
			}
			owned, present := 0, 0
			for i := uint64(0); i < w.RecordCount; i++ {
				k := keys(i)
				for _, r := range cl.Strategy().Replicas(k) {
					if r == id {
						owned++
						if _, ok := cl.Node(id).Engine().Peek(k); ok {
							present++
						}
						break
					}
				}
			}
			if owned == 0 || float64(present) >= 0.99*float64(owned) {
				convergedAt[id] = tr.Now() - joinAt
				return
			}
			tr.Schedule(50*time.Millisecond, check)
		}
		tr.Schedule(50*time.Millisecond, check)
	}

	pricing := Pricing().Smooth()
	// during, when set, is the membership change that lands while the
	// phase's load runs.
	load := func(name string, during func()) {
		win := rg.run(rg.studyPhase(name, w, len(out.Phases), 6, during))
		dc, region := win.Traffic.BilledBytes()
		out.Phases = append(out.Phases, elasticityPhase{window: win, Bill: pricing.BillFor(cost.Usage{
			Nodes:            win.Members,
			Duration:         win.End - win.Start,
			StoredBytes:      float64(win.Usage.StoredBytes),
			InterDCBytes:     float64(dc),
			InterRegionBytes: float64(region),
		})})
	}

	load("steady", nil)
	load("join-1", func() { must(cl.Join(joinerA)); watchJoin(joinerA) })
	rg.settle(3 * time.Second) // let the first change settle before the next
	load("join-2", func() { must(cl.Join(joinerB)); watchJoin(joinerB) })
	rg.settle(3 * time.Second)
	load("scaled", nil)
	// Decommission requires a settled (plainly live) node; on platforms
	// with long streaming or warmup joinerB may still be converging.
	for i := 0; i < 120 && cl.State(joinerB) != kv.StateLive; i++ {
		rg.settle(500 * time.Millisecond)
	}
	load("scale-down", func() { must(cl.Decommission(joinerB)) })
	rg.settle(3 * time.Second)
	load("settled", nil)
	// Drain until both probes resolved (the ae-only joiners may still be
	// converging through anti-entropy after the workload finished).
	for i := 0; i < 120 && len(convergedAt) < 2; i++ {
		rg.settle(500 * time.Millisecond)
	}

	rg.ctl.Stop()
	for _, id := range []netsim.NodeID{joinerA, joinerB} {
		d, ok := convergedAt[id]
		if !ok {
			d = -1 // never converged inside the run
		}
		out.Convergence = append(out.Convergence, d)
	}
	out.Usage = cl.Usage()
	return out
}
