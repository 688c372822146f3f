package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/ycsb"
)

func TestAvgReadKTimeWeighting(t *testing.T) {
	journal := []core.JournalEntry{
		{At: 0, Decision: core.Decision{ReadLevel: kv.One}},
		{At: time.Second, Decision: core.Decision{ReadLevel: kv.Quorum}}, // k=2 at RF 3
	}
	// 1 s at k=1, 3 s at k=2 → (1·1 + 3·2)/4 = 1.75.
	got := avgReadK(journal, 0, 4*time.Second, 3)
	if math.Abs(got-1.75) > 1e-9 {
		t.Errorf("avg read k = %f, want 1.75", got)
	}
	if avgReadK(nil, 0, time.Second, 3) != 0 {
		t.Error("empty journal must yield 0")
	}
	// Journal entry after the end: falls back to the last decision.
	late := []core.JournalEntry{{At: 10 * time.Second, Decision: core.Decision{ReadLevel: kv.All}}}
	if got := avgReadK(late, 0, time.Second, 3); got != 3 {
		t.Errorf("late journal avg = %f", got)
	}
}

func TestBillAtPaperScaleExtrapolation(t *testing.T) {
	p := EC2Cost()
	var traffic netsim.TrafficMeter
	traffic.Count(netsim.InterDC, 1000)
	res := RunResult{
		Metrics:   &ycsb.Metrics{Ops: 100, End: time.Second},
		Traffic:   traffic,
		DrivenOps: 100,
	}
	res.Metrics.Start = 0
	// 100 ops/s measured; paper ops 1000 → 10 s duration, 10 kB billed.
	bill, usage := BillAtPaperScale(p, Pricing().PerSecond(), res, 1000)
	if usage.Duration != 10*time.Second {
		t.Errorf("duration = %v", usage.Duration)
	}
	if math.Abs(usage.InterDCBytes-10000) > 1e-6 {
		t.Errorf("interDC bytes = %f", usage.InterDCBytes)
	}
	if usage.StoredBytes != p.DatasetGB*(1<<30)*float64(p.RF) {
		t.Errorf("stored bytes = %f", usage.StoredBytes)
	}
	if bill.Total() <= 0 {
		t.Error("zero bill")
	}

	// With a warm-up the meter also holds the warm-up's bytes: 25 warm-up
	// operations ahead of the 100 measured ones sent 1250 bytes, still
	// 10 per operation, so the bill is unchanged. Dividing by the
	// measured operations alone would bill 12.5 kB.
	var warm netsim.TrafficMeter
	warm.Count(netsim.InterDC, 1250)
	res.Traffic, res.DrivenOps = warm, 125
	warmBill, warmUsage := BillAtPaperScale(p, Pricing().PerSecond(), res, 1000)
	if math.Abs(warmUsage.InterDCBytes-10000) > 1e-6 {
		t.Errorf("with warm-up: interDC bytes = %f, want 10000", warmUsage.InterDCBytes)
	}
	if warmBill != bill {
		t.Errorf("with warm-up: bill %+v, want %+v", warmBill, bill)
	}
}

// TestRunUsageExcludesPreload: Run's Usage counts the driven load alone.
// What the cluster metered over its life, less Run's Usage, is what a
// rig that only preloads the same records meters — on the LSM, whose
// preload writes WALs, fsyncs and compacts.
func TestRunUsageExcludesPreload(t *testing.T) {
	p := EC2Cost().Scaled(0.002)
	lsm := func(cfg *kv.Config) {
		cfg.Engine = storage.LSM
		cfg.FlushLimit = 64 << 10
		cfg.WALSyncBytes = 4 << 10
	}
	r := Run(RunSpec{Platform: p, Tuner: core.StaticTuner{Read: kv.Quorum, Write: kv.Quorum}, Seed: 7, Mutate: lsm})

	w := ycsb.HeavyReadUpdate(p.Records)
	w.ValueSize = p.ValueBytes
	rg := newRig(p, 7, lsm, nil)
	rg.preload(w)
	want := rg.cl.Usage()
	if want.WALBytes == 0 || want.WALSyncs == 0 {
		t.Fatalf("the preload metered no WAL traffic: %+v", want)
	}
	got := counters{Usage: r.Cluster.Usage()}.since(counters{Usage: r.Usage}).Usage
	// The gauges are readings, not counts: since keeps the later one.
	got.Nodes, got.StoredBytes, got.HotKeysNow = want.Nodes, want.StoredBytes, want.HotKeysNow
	if got != want {
		t.Errorf("cluster total less Run's Usage:\n%+v\nwant the preload's:\n%+v", got, want)
	}
}

func TestScaledKeepsFloors(t *testing.T) {
	p := G5KHarmony()
	s := p.Scaled(1e-9)
	if s.Ops < uint64(p.Threads)*60 {
		t.Errorf("ops floor not applied: %d", s.Ops)
	}
	if s.Records < 500 {
		t.Errorf("records floor not applied: %d", s.Records)
	}
	if unchanged := p.Scaled(1); unchanged.Ops != p.Ops {
		t.Error("scale 1 must be identity")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	tb.Add("x", 1.5)
	tb.Note("note %d", 7)
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"demo", "a", "x", "1.50", "note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestSymmetricLevelNames(t *testing.T) {
	levels := symmetricLevels(5)
	if len(levels) != 5 {
		t.Fatalf("levels = %d", len(levels))
	}
	if levels[0].String() != "ONE" || levels[2].String() != "QUORUM" || levels[4].String() != "ALL" {
		t.Errorf("levels = %v", levels)
	}
}

func TestPlatformConfigsBuild(t *testing.T) {
	for _, p := range []Platform{EC2Harmony(), G5KHarmony(), EC2Cost(), G5KCost()} {
		topo := p.Build()
		if topo.N() != p.Nodes {
			t.Errorf("%s: topo %d nodes, preset says %d", p.Name, topo.N(), p.Nodes)
		}
		cfg := p.Config(1)
		if cfg.RF != p.RF || cfg.Concurrency != p.Concurrency {
			t.Errorf("%s: config not derived from platform", p.Name)
		}
	}
}
