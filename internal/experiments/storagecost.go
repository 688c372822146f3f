package experiments

import (
	"fmt"
	"time"

	"repro/internal/bismar"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/monitor"
	"repro/internal/provision"
	"repro/internal/storage"
)

// The storage-cost study (PR 10): what pricing durability I/O does to
// the consistency tuner and to engine provisioning. Three legs:
//
//  1. Measure — run the workload once per engine and derive the per-op
//     WAL, fsync and compaction rates from the metered kv.Usage
//     (bismar.IOPerOp). The memory engine's rates are zero by
//     construction; the LSM pays real durability traffic.
//  2. Tune — price every consistency level under the base catalog and
//     under the same catalog with storage-I/O prices switched on
//     (cost.Pricing.WithStorageIO). With prices off the two engines
//     cost exactly the same per million operations; with prices on the
//     LSM's flat per-op adder compresses the levels' relative cost
//     spread, so cheap-but-stale levels lose efficiency ground.
//  3. Provision — ask provision.OptimizeEngines which engine is cheaper
//     to deploy for a sustained load. Free durability favors the LSM
//     (the memory engine budgets one extra node for crash loss); priced
//     durability reverses the ranking.
//
// Everything below the measurement leg is closed-form model arithmetic,
// so a double run is bit-identical — the determinism pin the tests hold.

// StorageCostEngine is one engine's measured rates and model outcomes.
type StorageCostEngine struct {
	Engine storage.Kind

	// Measured per-operation I/O rates: the driven load's cluster-wide
	// counters over its operations, the preload on neither side.
	WALBytesPerOp       float64
	FsyncsPerOp         float64
	CompactedBytesPerOp float64

	// CostPM of the strongest level (ALL) under each catalog — the
	// normalization anchor the tuner divides by.
	BaseCostPM float64
	IOCostPM   float64

	// Efficiency-argmax read level under each catalog.
	BaseBestK int
	IOBestK   int
}

// StorageCostResult is the full study outcome.
type StorageCostResult struct {
	Engines []StorageCostEngine // mem first, lsm second

	// Engine provisioning under free vs priced durability I/O.
	BaseChoice provision.EngineChoice
	IOChoice   provision.EngineChoice
	BaseAll    []provision.EngineChoice
	IOAll      []provision.EngineChoice
}

// storageCostConstraints is the provisioning question the study asks:
// sustain 250 ops/s at RF 5 reading and writing at ONE, surviving three
// node failures — sized so the durability floor (RF+failures) binds and
// the memory engine's crash budget costs exactly one extra instance.
func storageCostConstraints() (provision.Workload, provision.Constraints) {
	w := provision.Workload{
		OpsPerSecond: 250,
		ReadFraction: 0.5,
		WriteRate:    0.5,
		BaseLatency:  2 * time.Millisecond,
	}
	c := provision.Constraints{
		RF: 5, ReadLevel: 1, WriteLevel: 1,
		MaxStaleRate:  1, // staleness is the tuner's concern, not the sizer's
		FailureBudget: 3,
	}
	return w, c
}

// RunStorageCost runs the study on platform p at the given workload
// scale and renders the comparison table.
func RunStorageCost(p Platform, scale float64, seed uint64) (*StorageCostResult, *Table) {
	if seed == 0 {
		seed = 1
	}
	sp := p.Scaled(scale)

	// Leg 1: measure per-op I/O rates per engine under a static-QUORUM
	// run (the tuner would move the level mid-run and blur the rates).
	kinds := []storage.Kind{storage.Mem, storage.LSM}
	runs := parallelMap(kinds, func(kind storage.Kind) RunResult {
		return Run(RunSpec{
			Platform: sp,
			Tuner:    core.StaticTuner{Read: kv.Quorum, Write: kv.Quorum},
			Seed:     seed,
			Mutate: func(cfg *kv.Config) {
				cfg.Engine = kind
				// Sized as in the recovery study so the LSM seals runs,
				// fsyncs in groups and compacts at experiment scale.
				cfg.FlushLimit = 64 << 10
				cfg.WALSyncBytes = 4 << 10
			},
		})
	})

	res := &StorageCostResult{}
	basePricing := Pricing()
	ioPricing := basePricing.WithStorageIO()

	// Leg 2: price every level per engine under both catalogs.
	for i, kind := range kinds {
		r := runs[i]
		e := StorageCostEngine{Engine: kind}
		e.WALBytesPerOp, e.FsyncsPerOp, e.CompactedBytesPerOp = bismar.IOPerOp(r.Usage, r.DrivenOps)

		dep := DeploymentFor(p)
		dep.WALBytesPerOp = e.WALBytesPerOp
		dep.FsyncsPerOp = e.FsyncsPerOp
		dep.CompactedBytesPerOp = e.CompactedBytesPerOp
		snap := r.Monitor.Snapshot()

		dep.Pricing = basePricing
		e.BaseCostPM, e.BaseBestK = evalBest(dep, snap)
		dep.Pricing = ioPricing
		e.IOCostPM, e.IOBestK = evalBest(dep, snap)
		res.Engines = append(res.Engines, e)
	}

	// Leg 3: engine provisioning under both catalogs, with the LSM's
	// measured rates as its profile.
	lsm := res.Engines[1]
	profiles := []provision.EngineProfile{
		provision.MemProfile(),
		provision.LSMProfile(lsm.WALBytesPerOp, lsm.FsyncsPerOp, lsm.CompactedBytesPerOp),
	}
	w, c := storageCostConstraints()
	res.BaseChoice, res.BaseAll = provision.OptimizeEngines(provision.DefaultCatalog(), profiles, w, c, 0, basePricing)
	res.IOChoice, res.IOAll = provision.OptimizeEngines(provision.DefaultCatalog(), profiles, w, c, 0, ioPricing)

	return res, storageCostTable(p, res)
}

// evalBest prices every level under the deployment and returns the ALL
// cost per million ops with the efficiency-argmax read level.
func evalBest(dep bismar.Deployment, snap monitor.Snapshot) (costAllPM float64, bestK int) {
	evals := bismar.New(dep).Evaluate(snap)
	best := evals[len(evals)-1]
	for _, e := range evals {
		if e.Efficiency > best.Efficiency {
			best = e
		}
	}
	return evals[len(evals)-1].CostPM, best.K
}

func storageCostTable(p Platform, res *StorageCostResult) *Table {
	t := NewTable("Storage cost (PR 10): pricing durability I/O — tuner and provisioning — "+p.Name,
		"engine", "wal B/op", "fsync/op", "compact B/op", "$/Mops ALL (base)", "$/Mops ALL (+io)", "best k (base)", "best k (+io)")
	for _, e := range res.Engines {
		t.Add(e.Engine.String(),
			fmt.Sprintf("%.0f", e.WALBytesPerOp),
			fmt.Sprintf("%.3f", e.FsyncsPerOp),
			fmt.Sprintf("%.0f", e.CompactedBytesPerOp),
			fmt.Sprintf("%.4f", e.BaseCostPM),
			fmt.Sprintf("%.4f", e.IOCostPM),
			fmt.Sprintf("%d", e.BaseBestK),
			fmt.Sprintf("%d", e.IOBestK))
	}
	t.Note("free durability: engines price identically per Mops; +io makes the lsm's bill strictly higher")
	t.Note("provisioning (base): %s", res.BaseChoice)
	t.Note("provisioning (+io):  %s", res.IOChoice)
	if res.BaseChoice.Profile.Name != res.IOChoice.Profile.Name {
		t.Note("pricing durability I/O reverses the engine choice: %s -> %s",
			res.BaseChoice.Profile.Name, res.IOChoice.Profile.Name)
	}
	return t
}
