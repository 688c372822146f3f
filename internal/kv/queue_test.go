package kv_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/netsim"
)

// queueConfig is elasticConfig over a six-node topology with four
// founding members, so two spares can join.
func queueConfig(seed uint64) kv.Config {
	cfg := quietConfig(seed)
	cfg.InitialMembers = []netsim.NodeID{0, 1, 2, 3}
	cfg.WarmupDuration = 500 * time.Millisecond
	return cfg
}

// queueScenario runs the overlapping-change scenario and returns the
// final member set plus the membership counters, for the determinism
// comparison below.
func queueScenario(t *testing.T, seed uint64) ([]netsim.NodeID, kv.Usage) {
	t.Helper()
	h := newHarness(netsim.SingleDC(6), queueConfig(seed))
	for i := 0; i < 30; i++ {
		if w := h.write(mkey(i), []byte("v"), kv.Quorum); w.Err != nil {
			t.Fatal(w.Err)
		}
	}
	h.eng.Run()

	// A join is in flight; overlapping requests must queue, not race.
	h.join(4)
	if h.cluster.MembershipSettled() {
		t.Fatal("cluster reports settled with a join in flight")
	}
	if err := h.cluster.TryJoin(5); err != nil {
		t.Fatalf("TryJoin(5) during a change: %v", err)
	}
	if err := h.cluster.TryDecommission(0); err != nil {
		t.Fatalf("TryDecommission(0) during a change: %v", err)
	}
	// At most one queued change per node.
	if err := h.cluster.TryJoin(5); err == nil {
		t.Fatal("duplicate queued TryJoin(5) accepted")
	}
	if err := h.cluster.TryDecommission(5); err == nil {
		t.Fatal("queued TryDecommission(5) over a queued join accepted")
	}

	// Nothing may have flipped yet: the queued decommission must not
	// race the in-flight join's placement flip.
	if got := len(h.cluster.Members()); got != 4 {
		t.Fatalf("members = %d while the first join still streams", got)
	}
	if s := h.cluster.State(0); s != kv.StateLive {
		t.Fatalf("queued decommission already acted: State(0) = %v", s)
	}

	h.eng.RunFor(10 * time.Second)
	return h.cluster.Members(), h.cluster.Usage()
}

// TestQueuedMembershipChanges is the regression test for overlapping
// Join/Decommission: requests issued while another change is in flight
// are queued deterministically (FIFO, one per node) and enacted one at
// a time — never racing the placement flip — with panics reserved for
// the blocking Join/Decommission entry points.
func TestQueuedMembershipChanges(t *testing.T) {
	members, u := queueScenario(t, 33)
	want := []netsim.NodeID{1, 2, 3, 4, 5}
	if fmt.Sprint(members) != fmt.Sprint(want) {
		t.Fatalf("members = %v, want %v (join 4, join 5, decommission 0 in FIFO order)", members, want)
	}
	if u.Joins != 2 || u.Decommissions != 1 {
		t.Fatalf("joins=%d decommissions=%d", u.Joins, u.Decommissions)
	}

	// Same seed → same sequence: the queue is deterministic.
	members2, u2 := queueScenario(t, 33)
	if fmt.Sprint(members2) != fmt.Sprint(members) || u2.StreamedCells != u.StreamedCells {
		t.Fatalf("same-seed queue runs diverged: %v/%d vs %v/%d",
			members, u.StreamedCells, members2, u2.StreamedCells)
	}
}

// TestTryJoinValidation pins the non-panicking validation errors.
func TestTryJoinValidation(t *testing.T) {
	h := newHarness(netsim.SingleDC(6), queueConfig(34))
	h.eng.Run()
	if err := h.cluster.TryJoin(0); err == nil {
		t.Error("TryJoin of a member accepted")
	}
	if err := h.cluster.TryJoin(9); err == nil {
		t.Error("TryJoin outside the topology accepted")
	}
	if err := h.cluster.TryDecommission(5); err == nil {
		t.Error("TryDecommission of a non-member accepted")
	}
	// 4 members at RF 3: one decommission is legal, a second would
	// under-replicate and must be rejected up front.
	if err := h.cluster.TryDecommission(3); err != nil {
		t.Fatalf("TryDecommission(3): %v", err)
	}
	h.eng.RunFor(5 * time.Second)
	if err := h.cluster.TryDecommission(2); err == nil {
		t.Error("TryDecommission below RF accepted")
	}
	if !h.cluster.MembershipSettled() {
		t.Error("cluster not settled after the queue drained")
	}
}

// TestQueuedChangeDroppedWhenInvalidated pins drain-time re-validation:
// a queued decommission whose target crashes before the drain is
// dropped instead of acting on a crashed node.
func TestQueuedChangeDroppedWhenInvalidated(t *testing.T) {
	h := newHarness(netsim.SingleDC(6), queueConfig(35))
	for i := 0; i < 20; i++ {
		if w := h.write(mkey(i), []byte("v"), kv.Quorum); w.Err != nil {
			t.Fatal(w.Err)
		}
	}
	h.eng.Run()

	h.join(4)
	if err := h.cluster.TryDecommission(3); err != nil {
		t.Fatalf("TryDecommission(3): %v", err)
	}
	h.cluster.Crash(3) // invalidates the queued request
	h.eng.RunFor(10 * time.Second)

	if s := h.cluster.State(3); s != kv.StateCrashed {
		t.Fatalf("State(3) = %v, want crashed (queued decommission must be dropped)", s)
	}
	if got := len(h.cluster.Members()); got != 5 {
		t.Fatalf("members = %d, want 5 (join landed, drop left membership alone)", got)
	}
	u := h.cluster.Usage()
	if u.Decommissions != 0 {
		t.Fatalf("decommissions = %d, want 0", u.Decommissions)
	}
}
