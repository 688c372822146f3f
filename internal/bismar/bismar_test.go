package bismar

import (
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/kv"
	"repro/internal/monitor"
)

func testDeployment() Deployment {
	return Deployment{
		Nodes: 18, RF: 5, Threads: 200, Concurrency: 2,
		ReadServiceMean:  8 * time.Millisecond,
		WriteServiceMean: 6 * time.Millisecond,
		CoordMean:        300 * time.Microsecond,
		ClientRTT:        time.Millisecond,
		ValueBytes:       1024,
		DatasetBytes:     24 << 30,
		CrossDCFraction:  0.5,
		Pricing:          cost.EC2East2013(),
	}
}

func snap(writeRate float64, delaysMs ...int) monitor.Snapshot {
	d := make([]time.Duration, len(delaysMs))
	for i, ms := range delaysMs {
		d[i] = time.Duration(ms) * time.Millisecond
	}
	return monitor.Snapshot{
		ReadRate:     writeRate, // 50/50 mix
		WriteRate:    writeRate,
		RankDelays:   d,
		TailKeys:     1,
		TailReadShr:  1,
		TailWriteRte: writeRate,
	}
}

func TestThroughputDecreasesWithLevel(t *testing.T) {
	m := Model{Deploy: testDeployment()}
	s := snap(500, 1, 3, 8, 20, 60)
	prev := 0.0
	for k := 1; k <= 5; k++ {
		thr := m.Throughput(k, s)
		if thr <= 0 {
			t.Fatalf("k=%d: throughput %f", k, thr)
		}
		if k > 1 && thr > prev+1e-9 {
			t.Errorf("throughput increased with level: k=%d %f > %f", k, thr, prev)
		}
		prev = thr
	}
}

func TestCostIncreasesWithLevel(t *testing.T) {
	m := Model{Deploy: testDeployment()}
	s := snap(500, 1, 3, 8, 20, 60)
	prev := 0.0
	for k := 1; k <= 5; k++ {
		c := m.CostPerMillionOps(k, s)
		if c <= 0 {
			t.Fatalf("k=%d: cost %f", k, c)
		}
		if k > 1 && c < prev-1e-9 {
			t.Errorf("cost decreased with level: k=%d %f < %f", k, c, prev)
		}
		prev = c
	}
}

func TestNetworkBytesGrowWithLevel(t *testing.T) {
	m := Model{Deploy: testDeployment()}
	s := snap(500, 1, 3, 8, 20, 60)
	if m.NetworkBytesPerOp(5, s) <= m.NetworkBytesPerOp(1, s) {
		t.Error("digest traffic must grow with read level")
	}
}

func TestEvaluateNormalizesAgainstAll(t *testing.T) {
	tn := New(testDeployment())
	evals := tn.Evaluate(snap(500, 1, 3, 8, 20, 60))
	if len(evals) != 5 {
		t.Fatalf("evals = %d", len(evals))
	}
	last := evals[len(evals)-1]
	if last.NormCost < 0.999 || last.NormCost > 1.001 {
		t.Errorf("ALL norm cost = %f, want 1", last.NormCost)
	}
	if last.Fresh < 0.999 {
		t.Errorf("ALL must be fresh: %f", last.Fresh)
	}
	for _, e := range evals {
		if e.Efficiency < 0 {
			t.Errorf("negative efficiency: %+v", e)
		}
	}
}

func TestDecidePrefersOneWhenQuiet(t *testing.T) {
	tn := New(testDeployment())
	d := tn.Decide(snap(0.1, 1, 2, 3, 4, 5)) // negligible writes: ONE is fresh and cheap
	if d.ReadLevel.Replicas(5) != 1 {
		t.Errorf("quiet workload should pick ONE, got %v", d.ReadLevel)
	}
	if d.Efficiency <= 0 {
		t.Error("efficiency not reported")
	}
}

func TestDecideAvoidsVeryStaleOneUnderPressure(t *testing.T) {
	tn := New(testDeployment())
	// Per-key write pressure high and propagation slow: ONE is mostly
	// stale, so its efficiency collapses below stronger levels.
	s := snap(2000, 1, 150, 300, 450, 600)
	d := tn.Decide(s)
	if d.ReadLevel.Replicas(5) == 1 {
		t.Errorf("heavily stale ONE chosen: est stale %.3f", d.EstimatedStaleRate)
	}
}

func TestLevelForNames(t *testing.T) {
	if levelFor(1, 5).String() != "ONE" || levelFor(3, 5).String() != "QUORUM" ||
		levelFor(5, 5).String() != "ALL" || levelFor(4, 5).String() != "K(4)" ||
		levelFor(2, 5).String() != "TWO" {
		t.Error("level naming wrong")
	}
	if New(testDeployment()).Name() != "bismar" {
		t.Error("tuner name")
	}
}

func TestZeroIORatesLeaveCostModelUnchanged(t *testing.T) {
	// An I/O-pricing catalog over a memory engine (zero per-op rates)
	// prices every level exactly as the base catalog does: the refactor
	// is invisible until both rates and prices are nonzero.
	s := snap(500, 1, 3, 8, 20, 60)
	base := Model{Deploy: testDeployment()}
	priced := Model{Deploy: testDeployment()}
	priced.Deploy.Pricing = priced.Deploy.Pricing.WithStorageIO()
	for k := 1; k <= 5; k++ {
		a, b := base.CostPerMillionOps(k, s), priced.CostPerMillionOps(k, s)
		if a != b {
			t.Errorf("k=%d: zero-rate deployment priced %f under +io, %f under base", k, b, a)
		}
	}
}

func TestIORatesAddLevelIndependentCost(t *testing.T) {
	s := snap(500, 1, 3, 8, 20, 60)
	dep := testDeployment()
	dep.Pricing = dep.Pricing.WithStorageIO()
	dry := Model{Deploy: dep}
	wet := Model{Deploy: dep}
	wet.Deploy.WALBytesPerOp = 1100 // ~1 KB value + framing per write
	wet.Deploy.FsyncsPerOp = 0.02   // group commit
	wet.Deploy.CompactedBytesPerOp = 800

	// Durability I/O scales with ops, not with the level: the adder per
	// million ops is the same constant at every k.
	u := cost.Usage{
		WALBytes:       wet.Deploy.WALBytesPerOp * 1e6,
		Fsyncs:         wet.Deploy.FsyncsPerOp * 1e6,
		CompactedBytes: wet.Deploy.CompactedBytesPerOp * 1e6,
	}
	adder := dep.Pricing.BillFor(u).IO
	if adder <= 0 {
		t.Fatalf("expected positive I/O adder, got %f", adder)
	}
	for k := 1; k <= 5; k++ {
		gap := wet.CostPerMillionOps(k, s) - dry.CostPerMillionOps(k, s)
		if diff := gap - adder; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("k=%d: I/O raised cost by %f, want flat adder %f", k, gap, adder)
		}
	}
}

func TestIOAdderCompressesEfficiencySpread(t *testing.T) {
	// A flat per-op adder narrows the relative (normalized) cost gap
	// between ONE and ALL, so cheap-but-stale levels lose efficiency
	// ground once durability is priced.
	s := snap(500, 1, 3, 8, 20, 60)
	dep := testDeployment()
	dep.Pricing = dep.Pricing.WithStorageIO()
	dry := New(dep)
	depIO := dep
	depIO.WALBytesPerOp = 1100
	depIO.FsyncsPerOp = 0.02
	depIO.CompactedBytesPerOp = 800
	wet := New(depIO)

	a, b := dry.Evaluate(s), wet.Evaluate(s)
	if b[0].NormCost <= a[0].NormCost {
		t.Errorf("ONE norm cost %f under I/O, want > %f (spread compressed)", b[0].NormCost, a[0].NormCost)
	}
	if b[0].Efficiency >= a[0].Efficiency {
		t.Errorf("ONE efficiency %f under I/O, want < %f", b[0].Efficiency, a[0].Efficiency)
	}
}

func TestIOPerOpDerivation(t *testing.T) {
	u := kv.Usage{WALBytes: 5000, WALSyncs: 50, CompactedBytes: 2000}
	w, f, c := IOPerOp(u, 1000)
	if w != 5 || f != 0.05 || c != 2 {
		t.Errorf("IOPerOp = %f, %f, %f", w, f, c)
	}
	if w, f, c := IOPerOp(u, 0); w != 0 || f != 0 || c != 0 {
		t.Error("zero ops must derive zero rates")
	}
}
