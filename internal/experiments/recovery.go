package experiments

import (
	"fmt"
	"time"

	"repro/internal/harmony"
	"repro/internal/kv"
	"repro/internal/storage"
	"repro/internal/ycsb"
)

// The crash–recovery study (PR 3): what a replica crash does to the
// stale-read rate and to Harmony's chosen read level, and how the
// storage engine changes the picture. The MemEngine node restarts empty
// and owes its whole state to hinted handoff and anti-entropy; the LSM
// node replays its durable WAL prefix first and only owes the un-fsynced
// tail plus the outage window — so its post-restart staleness exposure
// window is much narrower. Phases:
//
//	steady     — baseline under the adaptive tuner
//	outage     — one replica crashed; its writes are hinted
//	catch-up   — the replica restarted (WAL replayed) and converges
//	converged  — after hint replay and anti-entropy settled

// recoveryOutcome is one engine variant's full measurement.
type recoveryOutcome struct {
	Engine  storage.Kind
	Phases  []window
	Recover storage.RecoverStats
	Usage   kv.Usage
}

// RunRecovery runs the study on platform p for both engines (fanned out
// over the parallel driver) and renders the comparison table.
func RunRecovery(p Platform, seed uint64) *Table {
	variants := []storage.Kind{storage.Mem, storage.LSM}
	outcomes := parallelMap(variants, func(kind storage.Kind) recoveryOutcome {
		return runRecoveryVariant(p, kind, seed)
	})

	t := NewTable("Crash–recovery (PR 3): staleness and Harmony's read level across a replica crash — "+p.Name,
		"engine", "phase", "ops", "throughput(op/s)", "stale", "failed", "avg read k")
	for _, out := range outcomes {
		for _, ph := range out.Phases {
			t.Add(out.Engine.String(), ph.Name, fmt.Sprintf("%d", ph.Metrics.Ops),
				fmt.Sprintf("%.0f", ph.Metrics.Throughput()), pct(ph.StaleRate()),
				fmt.Sprintf("%d", ph.Failed), fmt.Sprintf("%.2f", ph.AvgReadK))
		}
		rs := out.Recover
		t.Note("%s: restart recovered %d run entries + %d WAL records (torn=%v, %d keys); lost %d un-fsynced records; %d hints replayed, %d compactions",
			out.Engine, rs.RunEntries, rs.WALRecords, rs.TornTail, rs.Keys,
			out.Usage.LostWALRecords, out.Usage.HintsReplayed, out.Usage.Compactions)
	}
	t.Note("mem restarts empty and owes its whole state to hints + anti-entropy; lsm replays its WAL first")
	return t
}

// runRecoveryVariant drives the four phases over one cluster and one
// Harmony controller (α=10%), crashing and restarting the first replica
// of the workload's first key between phases.
func runRecoveryVariant(p Platform, kind storage.Kind, seed uint64) recoveryOutcome {
	rg := newRig(p, seed, func(cfg *kv.Config) {
		cfg.Engine = kind
		// Sized so the LSM engine seals runs and pays real WAL-tail loss
		// at experiment scale, and so the repair machinery runs fast
		// enough for the catch-up phase to be visible.
		cfg.FlushLimit = 64 << 10
		cfg.WALSyncBytes = 4 << 10
		fastRepair(cfg, 512)
	}, nil)
	rg.control(harmony.New(0.10, rg.cl.RF()), 100*time.Millisecond)

	w := ycsb.HeavyReadUpdate(p.Records)
	w.ValueSize = p.ValueBytes
	keys, _ := rg.preload(w)
	rg.ctl.Start()

	victim := rg.cl.Strategy().Replicas(keys(0))[0]
	out := recoveryOutcome{Engine: kind}
	load := func(name string) {
		out.Phases = append(out.Phases, rg.run(rg.studyPhase(name, w, len(out.Phases), 4, nil)))
	}

	load("steady")
	must(rg.cl.Crash(victim))
	rg.settle(2 * repairDetection) // detector converges; hints arm
	load("outage")
	var err error
	out.Recover, err = rg.cl.Recover(victim)
	must(err)
	load("catch-up")
	rg.settle(5 * time.Second) // hint replay + anti-entropy settle
	load("converged")

	rg.ctl.Stop()
	out.Usage = rg.cl.Usage()
	return out
}
