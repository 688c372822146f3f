package autoscale

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/kv"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/provision"
)

// fakeClock is a manual clock; the controller's scheduled loop is not
// started in unit tests — Step is driven directly.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration                  { return c.now }
func (c *fakeClock) Schedule(d time.Duration, fn func()) {}
func (c *fakeClock) advance(d time.Duration)             { c.now += d }

// fakeStore applies joins/decommissions instantly and records them.
type fakeStore struct {
	members  []netsim.NodeID
	topoN    int
	settled  bool
	joins    []netsim.NodeID
	decoms   []netsim.NodeID
	rejectOp bool
	// converged overrides MembershipConverged; nil means converged
	// (atomic-membership stores always are).
	converged *bool
}

func newFakeStore(members, topoN int) *fakeStore {
	s := &fakeStore{topoN: topoN, settled: true}
	for i := 0; i < members; i++ {
		s.members = append(s.members, netsim.NodeID(i))
	}
	return s
}

func (s *fakeStore) Members() []netsim.NodeID { return append([]netsim.NodeID(nil), s.members...) }

func (s *fakeStore) State(id netsim.NodeID) kv.NodeState {
	for _, m := range s.members {
		if m == id {
			return kv.StateLive
		}
	}
	if int(id) < s.topoN {
		return kv.StateNotMember
	}
	return kv.StateNotMember
}

func (s *fakeStore) MembershipSettled() bool { return s.settled }

func (s *fakeStore) MembershipConverged() bool { return s.converged == nil || *s.converged }

func (s *fakeStore) Join(id netsim.NodeID) error {
	if s.rejectOp {
		return fmt.Errorf("rejected")
	}
	s.members = append(s.members, id)
	s.joins = append(s.joins, id)
	return nil
}

func (s *fakeStore) Decommission(id netsim.NodeID) error {
	if s.rejectOp {
		return fmt.Errorf("rejected")
	}
	for i, m := range s.members {
		if m == id {
			s.members = append(s.members[:i], s.members[i+1:]...)
			s.decoms = append(s.decoms, id)
			return nil
		}
	}
	return fmt.Errorf("not a member")
}

// scriptSampler replays a scripted sequence of offered loads (reads/s);
// the last entry repeats.
type scriptSampler struct {
	loads []float64
	i     int
	stale float64
}

func (s *scriptSampler) Snapshot() monitor.Snapshot {
	load := s.loads[len(s.loads)-1]
	if s.i < len(s.loads) {
		load = s.loads[s.i]
		s.i++
	}
	return monitor.Snapshot{ReadRate: load, ObservedStaleRate: s.stale}
}

// testNodeType: one slot, 1 ms reads — capacity ≈ 850 ops/s per node at
// the 85% utilization cap, so recommended size = ceil(load/850).
func testNodeType() provision.NodeType {
	return provision.NodeType{
		Name:             "t.unit",
		HourlyCost:       0.10,
		Concurrency:      1,
		ReadServiceMean:  time.Millisecond,
		WriteServiceMean: time.Millisecond,
	}
}

func testConfig(candidates int) Config {
	ids := make([]netsim.NodeID, candidates)
	for i := range ids {
		ids[i] = netsim.NodeID(i)
	}
	return Config{
		NodeType: testNodeType(),
		Constraints: provision.Constraints{
			RF: 3, ReadLevel: 1, WriteLevel: 1,
			MaxStaleRate: 1, FailureBudget: 1,
		},
		Pricing:     cost.EC2East2013().PerSecond(), // granularity ≤ interval: no boundary deferrals
		Candidates:  ids,
		Interval:    time.Second,
		Cooldown:    3 * time.Second,
		BaseLatency: time.Millisecond,
	}
}

// drive runs n control periods, advancing the clock by the interval.
func drive(c *Controller, clock *fakeClock, n int) {
	for i := 0; i < n; i++ {
		c.Step()
		clock.advance(c.cfg.Interval)
	}
}

// TestScaleUpOnSustainedLoad: a load the current size cannot carry
// triggers a join — after the up-streak hysteresis, not instantly.
func TestScaleUpOnSustainedLoad(t *testing.T) {
	store := newFakeStore(4, 10)
	clock := &fakeClock{}
	// 6000 ops/s needs ceil(6000*0.001/0.85) = 8 nodes.
	ctl := New(store, &scriptSampler{loads: []float64{6000}}, clock, testConfig(10))

	d := ctl.Step()
	if d.Action != ActionDeferHysteresis {
		t.Fatalf("first sample acted immediately: %v", d)
	}
	clock.advance(time.Second)
	d = ctl.Step()
	if d.Action != ActionJoin || d.Node != 4 {
		t.Fatalf("second sample: %v, want join of node 4", d)
	}
	if d.Target != 8 {
		t.Errorf("target = %d, want 8", d.Target)
	}
	if len(store.joins) != 1 {
		t.Errorf("joins = %v", store.joins)
	}
}

// TestHysteresisPreventsFlapping: a workload hovering exactly at the
// size threshold — recommendation alternating between the current size
// and one less — must never enact a change.
func TestHysteresisPreventsFlapping(t *testing.T) {
	store := newFakeStore(6, 10)
	clock := &fakeClock{}
	// 5 nodes carry 4250 ops/s; alternate between "6 needed" (4800) and
	// "5 needed" (4000): target flips 6,5,6,5,... and streaks never
	// accumulate.
	loads := make([]float64, 0, 40)
	for i := 0; i < 20; i++ {
		loads = append(loads, 4800, 4000)
	}
	ctl := New(store, &scriptSampler{loads: loads}, clock, testConfig(10))
	drive(ctl, clock, 40)
	for _, d := range ctl.Log() {
		if d.Action.Enacted() {
			t.Fatalf("threshold-hovering workload enacted a change: %v", d)
		}
	}
	if len(store.joins)+len(store.decoms) != 0 {
		t.Fatalf("membership changed: joins=%v decoms=%v", store.joins, store.decoms)
	}
}

// TestCooldownHonored: with a persistently rising load, enacted joins
// are spaced by at least the cooldown.
func TestCooldownHonored(t *testing.T) {
	store := newFakeStore(4, 16)
	clock := &fakeClock{}
	cfg := testConfig(16)
	ctl := New(store, &scriptSampler{loads: []float64{12000}}, clock, cfg) // wants 15 nodes
	drive(ctl, clock, 30)

	var enacted []time.Duration
	for _, d := range ctl.Log() {
		if d.Action.Enacted() {
			enacted = append(enacted, d.At)
		}
	}
	if len(enacted) < 2 {
		t.Fatalf("only %d changes enacted in 30 periods", len(enacted))
	}
	for i := 1; i < len(enacted); i++ {
		if gap := enacted[i] - enacted[i-1]; gap < cfg.Cooldown {
			t.Fatalf("changes %v apart, cooldown is %v", gap, cfg.Cooldown)
		}
	}
}

// TestFloorRespected: a near-idle workload never shrinks the cluster
// below RF+FailureBudget, and the decision log says why.
func TestFloorRespected(t *testing.T) {
	store := newFakeStore(6, 10)
	clock := &fakeClock{}
	ctl := New(store, &scriptSampler{loads: []float64{50}}, clock, testConfig(10)) // wants 1 node
	drive(ctl, clock, 40)

	if got, floor := len(store.members), 4; got != floor {
		t.Fatalf("members = %d, want floor %d", got, floor)
	}
	sawFloor := false
	for _, d := range ctl.Log() {
		if d.Target < 4 {
			t.Fatalf("target %d below floor: %v", d.Target, d)
		}
		if d.Action == ActionBlockedFloor {
			sawFloor = true
		}
	}
	if !sawFloor {
		t.Error("no blocked-floor decision logged at the floor")
	}
}

// TestSettlingPacesChanges: nothing is enacted while the store reports
// an unsettled membership (change streaming or a warming window open).
func TestSettlingPacesChanges(t *testing.T) {
	store := newFakeStore(4, 10)
	store.settled = false
	clock := &fakeClock{}
	ctl := New(store, &scriptSampler{loads: []float64{6000}}, clock, testConfig(10))
	drive(ctl, clock, 10)
	for _, d := range ctl.Log() {
		if d.Action.Enacted() {
			t.Fatalf("enacted while unsettled: %v", d)
		}
	}
	store.settled = true
	drive(ctl, clock, 2)
	if len(store.joins) == 0 {
		t.Fatal("no join once settled")
	}
}

// TestConvergencePacesChanges: with gossip-disseminated membership, a
// settled but not yet view-converged cluster defers changes exactly
// like an unsettled one, and acts once views agree.
func TestConvergencePacesChanges(t *testing.T) {
	store := newFakeStore(4, 10)
	converged := false
	store.converged = &converged
	clock := &fakeClock{}
	ctl := New(store, &scriptSampler{loads: []float64{6000}}, clock, testConfig(10))
	drive(ctl, clock, 10)
	for _, d := range ctl.Log() {
		if d.Action.Enacted() {
			t.Fatalf("enacted while views diverged: %v", d)
		}
	}
	sawDefer := false
	for _, d := range ctl.Log() {
		if d.Action == ActionDeferSettling && d.Reason == "membership views still converging" {
			sawDefer = true
		}
	}
	if !sawDefer {
		t.Fatal("no convergence deferral logged")
	}
	converged = true
	drive(ctl, clock, 2)
	if len(store.joins) == 0 {
		t.Fatal("no join once views converged")
	}
}

// TestBoundaryAwareScaleDown: with whole-hour billing, a scale-down is
// deferred until the victim approaches its billed-unit boundary, then
// enacted.
func TestBoundaryAwareScaleDown(t *testing.T) {
	store := newFakeStore(6, 10)
	clock := &fakeClock{}
	cfg := testConfig(10)
	cfg.Pricing = cost.EC2East2013() // whole-hour billing
	cfg.Interval = time.Minute
	cfg.Cooldown = 3 * time.Minute
	ctl := New(store, &scriptSampler{loads: []float64{3000}}, clock, cfg) // wants 4 < 6

	// Streaks accumulate over the first downStreak periods, then the
	// boundary defers until ~an hour from the (zero) anchor.
	sawDefer := false
	for i := 0; i < 65; i++ {
		d := ctl.Step()
		if d.Action == ActionDeferBoundary {
			sawDefer = true
		}
		if d.Action.Enacted() && clock.now < 59*time.Minute {
			t.Fatalf("scale-down enacted %v before the billed-unit boundary: %v", time.Hour-clock.now, d)
		}
		clock.advance(cfg.Interval)
	}
	if !sawDefer {
		t.Fatal("no defer-boundary decision logged")
	}
	if len(store.decoms) == 0 {
		t.Fatal("scale-down never enacted at the boundary")
	}
}

// TestUnsatisfiableConstraintsHold: constraints no size can meet (level
// unreachable after failures) must hold the cluster, not chase the
// ceiling.
func TestUnsatisfiableConstraintsHold(t *testing.T) {
	store := newFakeStore(4, 10)
	clock := &fakeClock{}
	cfg := testConfig(10)
	cfg.Constraints.ReadLevel = 3 // RF 3 − 1 failure < 3: unreachable at any size
	ctl := New(store, &scriptSampler{loads: []float64{6000}}, clock, cfg)
	drive(ctl, clock, 10)
	for _, d := range ctl.Log() {
		if d.Action.Enacted() {
			t.Fatalf("unsatisfiable constraints enacted a change: %v", d)
		}
		if d.Action == ActionHold && !strings.Contains(d.Reason, "holding:") {
			t.Fatalf("hold without the unsatisfiable reason: %v", d)
		}
	}
}

// TestDecisionLogDeterministic: the controller is a pure function of
// its inputs — the same scripted run yields an identical decision log.
func TestDecisionLogDeterministic(t *testing.T) {
	run := func() []string {
		store := newFakeStore(4, 12)
		clock := &fakeClock{}
		loads := []float64{0, 900, 2500, 6000, 6000, 6000, 6000, 4000, 2000, 800, 800, 800, 800, 800, 800, 800}
		ctl := New(store, &scriptSampler{loads: loads, stale: 0.02}, clock, testConfig(12))
		drive(ctl, clock, 25)
		var lines []string
		for _, d := range ctl.Log() {
			lines = append(lines, d.String())
		}
		return lines
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("log lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("logs diverge at %d:\n  a: %s\n  b: %s", i, a[i], b[i])
		}
	}
	if len(a) != 25 {
		t.Fatalf("log length = %d, want 25", len(a))
	}
}

// TestWorkloadFromSnapshot: the distilled workload carries aggregate
// load, read fraction and the read-weighted per-key write rate.
func TestWorkloadFromSnapshot(t *testing.T) {
	snap := monitor.Snapshot{
		ReadRate:  800,
		WriteRate: 200,
		TopKeys: []monitor.KeyRate{
			{Key: "hot", ReadShare: 0.5, WriteRate: 40},
			{Key: "warm", ReadShare: 0.1, WriteRate: 10},
		},
		TailKeys:     100,
		TailReadShr:  0.4,
		TailWriteRte: 150,
	}
	w := WorkloadFrom(snap, 2*time.Millisecond)
	if w.OpsPerSecond != 1000 {
		t.Errorf("ops = %f", w.OpsPerSecond)
	}
	if w.ReadFraction != 0.8 {
		t.Errorf("read fraction = %f", w.ReadFraction)
	}
	want := 0.5*40 + 0.1*10 + 0.4*1.5
	if diff := w.WriteRate - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("per-key write rate = %f, want %f", w.WriteRate, want)
	}
	if w.BaseLatency != 2*time.Millisecond {
		t.Errorf("base latency = %v", w.BaseLatency)
	}
}

// TestMeasuredStaleScaleUp: when the windowed observed stale rate
// violates the constraint while the model calls the current size
// compliant, the violation is scale-up pressure — the measured feedback
// loop, not just the queueing model, drives the controller.
func TestMeasuredStaleScaleUp(t *testing.T) {
	store := newFakeStore(6, 10)
	clock := &fakeClock{}
	cfg := testConfig(10)
	cfg.Constraints.MaxStaleRate = 0.05
	// 4800 ops/s recommends exactly the current 6 nodes; only the
	// measured 20% stale rate pushes past it.
	ctl := New(store, &scriptSampler{loads: []float64{4800}, stale: 0.20}, clock, cfg)
	drive(ctl, clock, 4)

	if len(store.joins) == 0 {
		t.Fatal("measured staleness violation never scaled up")
	}
	sawReason := false
	for _, d := range ctl.Log() {
		if d.Action == ActionJoin && strings.Contains(d.Reason, "measured stale") {
			sawReason = true
		}
	}
	if !sawReason {
		t.Fatalf("join not attributed to the measured stale violation: %v", ctl.Log())
	}
	// Control: the same load with compliant measured staleness holds.
	store2 := newFakeStore(6, 10)
	ctl2 := New(store2, &scriptSampler{loads: []float64{4800}, stale: 0.01}, &fakeClock{}, cfg)
	drive(ctl2, &fakeClock{}, 4)
	if len(store2.joins) != 0 {
		t.Fatal("compliant staleness scaled up")
	}
}

// TestCeilingBlockedLogged: pressure pointing past the candidate pool is
// journaled as blocked-ceiling, not as a silent hold.
func TestCeilingBlockedLogged(t *testing.T) {
	store := newFakeStore(8, 8)
	clock := &fakeClock{}
	cfg := testConfig(8)                                                   // the 8 candidates cap the size
	ctl := New(store, &scriptSampler{loads: []float64{12000}}, clock, cfg) // wants ~15
	drive(ctl, clock, 5)

	sawCeiling := false
	for _, d := range ctl.Log() {
		if d.Action.Enacted() {
			t.Fatalf("enacted past the ceiling: %v", d)
		}
		if d.Action == ActionBlockedCeiling {
			sawCeiling = true
			if d.Target != 8 {
				t.Errorf("blocked-ceiling target = %d, want 8", d.Target)
			}
		}
	}
	if !sawCeiling {
		t.Fatal("no blocked-ceiling decision logged at the ceiling")
	}
}

// TestBoundaryExactInstantActs: a victim sitting exactly on its
// billed-unit boundary has nothing left to burn — the scale-down must
// act, not defer for another whole unit.
func TestBoundaryExactInstantActs(t *testing.T) {
	store := newFakeStore(6, 10)
	clock := &fakeClock{}
	cfg := testConfig(10)
	cfg.Pricing = cost.EC2East2013() // whole-hour billing
	cfg.Interval = time.Minute
	cfg.Cooldown = 2 * time.Minute
	ctl := New(store, &scriptSampler{loads: []float64{3000}}, clock, cfg) // wants 4 < 6

	// Build the down streak off-boundary, then step exactly on the hour.
	for m := 55; m <= 58; m++ {
		clock.now = time.Duration(m) * time.Minute
		ctl.Step()
	}
	clock.now = time.Hour
	d := ctl.Step()
	if d.Action != ActionDecommission {
		t.Fatalf("on-boundary step = %v, want decommission", d)
	}
}
