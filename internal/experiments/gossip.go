package experiments

import (
	"fmt"
	"time"

	"repro/internal/harmony"
	"repro/internal/kv"
	"repro/internal/netsim"
	"repro/internal/ycsb"
)

// The gossip study (PR 7): what decentralized, eventually-consistent
// membership costs against the atomic-placement baseline when the ring
// is under stress. Two variants — gossip dissemination on and off —
// run the same six phases over identical workloads:
//
//	steady   — baseline at M members
//	join     — node M joins mid-phase; under gossip the new ring is
//	           only eventually visible, so stale coordinators hit
//	           displaced replicas and recover through the notOwner
//	           fallback (the stale-ring phase)
//	storm    — a member fails mid-phase: every peer's local detector
//	           probes it, suspects it, and ages the suspicion into a
//	           death verdict (the suspicion storm)
//	heal     — the failed member recovers; the ping/ack refutation
//	           handshake resurrects it in every view
//	flap     — another member fails and recovers inside the phase,
//	           exercising suspicion/refutation under churn
//	settle   — steady state after the churn
//
// Per phase the study reports throughput, the oracle stale-read rate,
// Harmony's time-weighted read level, and the gossip meter deltas
// (suspicions raised, wrong-owner retries, notOwner refusals); per run
// it reports the view-convergence time after the join (Join call until
// every reachable view has applied the full ring-event log). Harmony
// holds the paper's α=10% staleness target throughout, so the headline
// check is that eventual membership stays under the same α the atomic
// baseline honors.
type gossipVariant struct {
	Name   string
	Gossip bool
}

// gossipOutcome is one variant's full measurement.
type gossipOutcome struct {
	Variant gossipVariant
	Phases  []window
	// Converge is the time from the Join call until ViewAgreement
	// returned to 1 (0 for the atomic variant; -1 if it never did).
	Converge time.Duration
	// WholeRunStale is the oracle stale rate over all judged reads.
	WholeRunStale float64
	Usage         kv.Usage
}

// RunGossip runs the study on platform p (its topology must hold one
// spare: the cluster starts with p.Nodes-1 members) for both variants,
// fanned out over the parallel driver.
func RunGossip(p Platform, seed uint64) ([]gossipOutcome, *Table) {
	variants := []gossipVariant{
		{Name: "gossip", Gossip: true},
		{Name: "atomic", Gossip: false},
	}
	outcomes := parallelMap(variants, func(v gossipVariant) gossipOutcome {
		return runGossipVariant(p, v, seed)
	})

	t := NewTable("Gossip membership (PR 7): SWIM dissemination vs atomic placement under join, "+
		"failure storm, refutation and flap — "+p.Name,
		"variant", "phase", "members", "ops", "throughput(op/s)", "stale", "avg read k",
		"suspicions", "wrong-owner retries", "refusals")
	for _, out := range outcomes {
		for _, ph := range out.Phases {
			t.Add(out.Variant.Name, ph.Name, fmt.Sprintf("%d", ph.Members),
				fmt.Sprintf("%d", ph.Metrics.Ops), fmt.Sprintf("%.0f", ph.Metrics.Throughput()),
				pct(ph.StaleRate()), fmt.Sprintf("%.2f", ph.AvgReadK),
				fmt.Sprintf("%d", ph.Usage.GossipSuspicions), fmt.Sprintf("%d", ph.Usage.WrongOwnerRetries),
				fmt.Sprintf("%d", ph.Usage.NotOwnerReplies))
		}
		u := out.Usage
		t.Note("%s: views converged %v after the join; whole-run stale %s; "+
			"%d gossip rounds, %d ring events applied, %d suspicions, %d dead verdicts, %d warm violations",
			out.Variant.Name, out.Converge, pct(out.WholeRunStale),
			u.GossipRounds, u.GossipEvents, u.GossipSuspicions, u.GossipDeadDeclared, u.WarmViolations)
	}
	t.Note("convergence = Join call until every reachable view applied the full ring-event log; " +
		"wrong-owner retries = coordinator re-plans after a notOwner refusal taught it the events it was missing")
	return outcomes, t
}

// runGossipVariant drives the six phases over one cluster and one
// Harmony controller (α=10%).
func runGossipVariant(p Platform, v gossipVariant, seed uint64) gossipOutcome {
	if p.Nodes < 5 {
		panic("experiments: gossip needs ≥5 topology nodes (one spare)")
	}
	members := p.Nodes - 1
	joiner := netsim.NodeID(members)
	stormNode := netsim.NodeID(1)
	flapNode := netsim.NodeID(2)

	rg := newRig(p, seed, func(cfg *kv.Config) {
		cfg.InitialMembers = firstNodes(members)
		cfg.Gossip = v.Gossip
		cfg.WarmupDuration = time.Second
		fastRepair(cfg, 1024)
	}, nil)
	cl, tr := rg.cl, rg.tr
	rg.control(harmony.New(0.10, cl.RF()), 100*time.Millisecond)

	w := ycsb.HeavyReadUpdate(p.Records)
	w.ValueSize = p.ValueBytes
	rg.preload(w)
	rg.ctl.Start()

	out := gossipOutcome{Variant: v, Converge: -1}
	// Convergence probe: once the join's placement flip lands, poll the
	// view-agreement signal inside the event loop until it returns to 1.
	watchJoin := func() {
		joinAt := tr.Now()
		var check func()
		check = func() {
			if !cl.IsMember(joiner) {
				tr.Schedule(25*time.Millisecond, check)
				return
			}
			if cl.ViewAgreement() >= 1 {
				out.Converge = tr.Now() - joinAt
				return
			}
			tr.Schedule(25*time.Millisecond, check)
		}
		tr.Schedule(25*time.Millisecond, check)
	}

	// during, when set, is the membership or liveness event that lands
	// under the phase's load.
	load := func(name string, during func()) {
		out.Phases = append(out.Phases, rg.run(rg.studyPhase(name, w, len(out.Phases), 6, during)))
	}

	load("steady", nil)
	load("join", func() { must(cl.Join(joiner)); watchJoin() })
	rg.settle(3 * time.Second) // streaming + warmup + view convergence
	load("storm", func() { must(cl.Fail(stormNode)) })
	rg.settle(2 * time.Second) // suspicions age into death verdicts
	load("heal", func() { _, err := cl.Recover(stormNode); must(err) })
	rg.settle(2 * time.Second) // refutation resurrects the node
	load("flap", func() {
		must(cl.Fail(flapNode))
		tr.Schedule(750*time.Millisecond, func() { _, err := cl.Recover(flapNode); must(err) })
	})
	rg.settle(2 * time.Second)
	load("settle", nil)
	// Drain: convergence probe, hint replay, refutations.
	for i := 0; i < 40 && (out.Converge < 0 || cl.ViewAgreement() < 1); i++ {
		rg.settle(250 * time.Millisecond)
	}

	rg.ctl.Stop()
	total := rg.read()
	out.WholeRunStale = total.StaleRate()
	out.Usage = total.Usage
	return out
}
