package behavior

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/stats"
)

// syntheticTrace builds a trace with two clearly distinct phases:
// read-only over many keys, then update-heavy over few keys with
// read-after-write behaviour.
func syntheticTrace() Trace {
	var tr Trace
	at := time.Duration(0)
	// Phase 1: 10 periods of pure reads, 200 ops/s.
	for p := 0; p < 10; p++ {
		for i := 0; i < 200; i++ {
			tr.Ops = append(tr.Ops, Op{At: at, Kind: OpRead, Key: fmt.Sprintf("k%d", i%100)})
			at += 5 * time.Millisecond
		}
	}
	// Phase 2: 10 periods of write-heavy traffic on 5 hot keys, with
	// reads chasing writes.
	for p := 0; p < 10; p++ {
		for i := 0; i < 400; i++ {
			key := fmt.Sprintf("hot%d", i%5)
			kind := OpWrite
			if i%2 == 1 {
				kind = OpRead
			}
			tr.Ops = append(tr.Ops, Op{At: at, Kind: kind, Key: key})
			at += 2500 * time.Microsecond
		}
	}
	return tr
}

func TestFeaturizerCounts(t *testing.T) {
	fz := NewFeaturizer(0)
	fz.Observe(Op{At: 0, Kind: OpWrite, Key: "a"})
	fz.Observe(Op{At: 100 * time.Millisecond, Kind: OpRead, Key: "a"})  // RAW hit
	fz.Observe(Op{At: 200 * time.Millisecond, Kind: OpRead, Key: "b"})  // no write before
	fz.Observe(Op{At: 1900 * time.Millisecond, Kind: OpRead, Key: "a"}) // outside RAW window
	f := fz.Finish(2 * time.Second)
	if f.OpRate != 2 {
		t.Errorf("op rate = %f", f.OpRate)
	}
	if f.ReadRatio != 0.75 {
		t.Errorf("read ratio = %f", f.ReadRatio)
	}
	if f.WriteRate != 0.5 {
		t.Errorf("write rate = %f", f.WriteRate)
	}
	if math.Abs(f.ReadAfterWrite-1.0/3) > 1e-9 {
		t.Errorf("RAW = %f, want 1/3", f.ReadAfterWrite)
	}
	if f.WorkingSet != 1 { // 2 distinct keys / 2 s
		t.Errorf("working set = %f", f.WorkingSet)
	}
}

func TestFeaturizerResetKeepsRecentWrites(t *testing.T) {
	fz := NewFeaturizer(0)
	fz.Observe(Op{At: 900 * time.Millisecond, Kind: OpWrite, Key: "a"})
	fz.Reset(time.Second)
	fz.Observe(Op{At: 1100 * time.Millisecond, Kind: OpRead, Key: "a"})
	f := fz.Finish(2 * time.Second)
	if f.ReadAfterWrite != 1 {
		t.Errorf("RAW across period boundary lost: %f", f.ReadAfterWrite)
	}
}

func TestBuildTimeline(t *testing.T) {
	tr := syntheticTrace()
	tl := BuildTimeline(tr, time.Second)
	if len(tl.Periods) < 15 {
		t.Fatalf("periods = %d", len(tl.Periods))
	}
	first, last := tl.Periods[0].Features, tl.Periods[len(tl.Periods)-1].Features
	if first.ReadRatio < 0.99 {
		t.Errorf("first phase should be read-only: %f", first.ReadRatio)
	}
	if last.ReadRatio > 0.6 {
		t.Errorf("last phase should be write-heavy: %f", last.ReadRatio)
	}
	if last.ReadAfterWrite < 0.5 {
		t.Errorf("last phase should chase writes: %f", last.ReadAfterWrite)
	}
	if BuildTimeline(Trace{}, time.Second).Periods != nil {
		t.Error("empty trace produced periods")
	}
}

func TestNormalizerRoundtripProperty(t *testing.T) {
	points := [][]float64{{1, 100, 3}, {2, 120, 9}, {5, 90, 1}, {9, 130, 4}}
	n := FitNormalizer(points)
	if err := quick.Check(func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) ||
			math.IsNaN(c) || math.IsInf(c, 0) {
			return true
		}
		v := []float64{a, b, c}
		back := n.Restore(n.Apply(v))
		for i := range v {
			scale := math.Max(1, math.Abs(v[i]))
			if math.Abs(back[i]-v[i])/scale > 1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKMeansRecoversSeparableClusters(t *testing.T) {
	src := stats.NewSource(5)
	var points [][]float64
	var truth []int
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 5}}
	for i := 0; i < 300; i++ {
		c := i % 3
		points = append(points, []float64{
			centers[c][0] + src.NormFloat64()*0.5,
			centers[c][1] + src.NormFloat64()*0.5,
		})
		truth = append(truth, c)
	}
	km, assign := Cluster(points, 3, src, 100)
	if km.K != 3 {
		t.Fatalf("k = %d", km.K)
	}
	// Cluster labels are arbitrary; check assignment purity instead.
	purity := clusterPurity(assign, truth, 3)
	if purity < 0.98 {
		t.Errorf("purity = %f", purity)
	}
	// All points assigned to their nearest centroid.
	for i, p := range points {
		if km.Assign(p) != assign[i] {
			t.Fatal("assignment is not nearest-centroid")
		}
	}
}

func clusterPurity(assign, truth []int, k int) float64 {
	votes := make(map[[2]int]int)
	for i := range assign {
		votes[[2]int{assign[i], truth[i]}]++
	}
	correct := 0
	for c := 0; c < k; c++ {
		best := 0
		for tc := 0; tc < k; tc++ {
			if v := votes[[2]int{c, tc}]; v > best {
				best = v
			}
		}
		correct += best
	}
	return float64(correct) / float64(len(assign))
}

func TestSelectKFindsTwoPhases(t *testing.T) {
	tl := BuildTimeline(syntheticTrace(), time.Second)
	var points [][]float64
	for _, p := range tl.Periods {
		points = append(points, p.Features.Vector())
	}
	norm := FitNormalizer(points)
	for i := range points {
		points[i] = norm.Apply(points[i])
	}
	km, _, score := SelectK(points, 2, 6, stats.NewSource(1))
	if km.K != 2 {
		t.Errorf("SelectK chose %d states for a 2-phase trace (silhouette %.3f)", km.K, score)
	}
	if score < 0.5 {
		t.Errorf("silhouette %.3f too low for separable phases", score)
	}
}

func TestGenericRulesMapping(t *testing.T) {
	cases := []struct {
		f    Features
		want PolicyKind
	}{
		{Features{ReadRatio: 1.0, WriteRate: 0}, PolicyEventual},
		{Features{ReadRatio: 0.5, WriteRate: 100, ReadAfterWrite: 0.5}, PolicyStrong},
		{Features{ReadRatio: 0.9, WriteRate: 50, ReadAfterWrite: 0.10}, PolicyHarmony},
		{Features{ReadRatio: 0.9, WriteRate: 50, ReadAfterWrite: 0.01}, PolicyHarmony},
	}
	for i, c := range cases {
		pol, rule := policyFor(c.f, GenericRules())
		if pol.Kind != c.want {
			t.Errorf("case %d: policy %v (rule %s), want kind %v", i, pol, rule, c.want)
		}
	}
}

func TestBuildModelEndToEnd(t *testing.T) {
	tl := BuildTimeline(syntheticTrace(), time.Second)
	m, err := BuildModel(tl, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.States) != 2 {
		t.Fatalf("states = %d", len(m.States))
	}
	// The write-heavy RAW state must get a stronger policy than the
	// read-only state.
	var readState, writeState *State
	for i := range m.States {
		if m.States[i].Centroid.ReadRatio > 0.9 {
			readState = &m.States[i]
		} else {
			writeState = &m.States[i]
		}
	}
	if readState == nil || writeState == nil {
		t.Fatalf("states not separated: %+v", m.States)
	}
	if readState.Policy.Kind != PolicyEventual {
		t.Errorf("read-only state policy = %v", readState.Policy)
	}
	if writeState.Policy.Kind != PolicyStrong {
		t.Errorf("write-heavy RAW state policy = %v", writeState.Policy)
	}
	// Classification of each phase's centroid-like features.
	if got := m.Classify(readState.Centroid); got.ID != readState.ID {
		t.Error("classify returned wrong state for read centroid")
	}
	if m.Describe() == "" {
		t.Error("empty description")
	}
}

func TestBuildModelRejectsTinyTimeline(t *testing.T) {
	if _, err := BuildModel(Timeline{}, 1); err == nil {
		t.Error("empty timeline accepted")
	}
}

func TestCollectorLimit(t *testing.T) {
	c := NewCollector(2)
	h := c.Hooks()
	h.ReadStarted(0, "a")
	h.ReadStarted(1, "b")
	h.ReadStarted(2, "c")
	if len(c.Trace().Ops) != 2 {
		t.Errorf("limit not enforced: %d", len(c.Trace().Ops))
	}
}
