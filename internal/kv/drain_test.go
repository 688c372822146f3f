package kv

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// newDrainHarness builds a small elastic cluster for white-box
// queue-drain tests.
func newDrainHarness(t *testing.T, warmup time.Duration) (*sim.Engine, *Cluster) {
	t.Helper()
	topo := netsim.SingleDC(6)
	eng := sim.New(1)
	tr := netsim.NewTransport(eng, topo)
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.InitialMembers = []netsim.NodeID{0, 1, 2}
	cfg.WarmupDuration = warmup
	cfg.HintReplayInterval = 0
	cfg.AntiEntropyInterval = 0
	return eng, New(topo, tr, cfg)
}

// TestMembershipSettledDrainWindow pins the warm-expiry → drain-tick
// race: drainMembershipQueue schedules runQueuedChange at zero delay,
// and in the window before that event pops the queue an observer must
// not see MembershipSettled() == true — the drain may be about to start
// a change. The white-box probe manufactures the exact window: a drain
// event in flight with nothing else (no pending change, empty queue,
// no warming) left to report unsettled.
func TestMembershipSettledDrainWindow(t *testing.T) {
	eng, c := newDrainHarness(t, 0)

	if !c.MembershipSettled() {
		t.Fatal("fresh cluster must be settled")
	}
	c.membershipQueue = []queuedChange{{join: true, id: 3}}
	c.drainMembershipQueue() // draining = 1, event scheduled
	// Simulate the queue having been consumed by a same-instant path:
	// before the fix, settled was a pure function of pending/queue/warming
	// and this state read as quiescent with a drain still in flight.
	c.membershipQueue = nil
	if c.draining != 1 {
		t.Fatalf("draining = %d, want 1 while the drain event is in flight", c.draining)
	}
	if c.MembershipSettled() {
		t.Fatal("settled during the drain window — a controller could start a racing change")
	}
	eng.Step() // runQueuedChange: decrements the counter, finds nothing
	if c.draining != 0 {
		t.Fatalf("draining = %d after the drain ran, want 0", c.draining)
	}
	if !c.MembershipSettled() {
		t.Fatal("not settled after the drain event ran on an empty queue")
	}
}

// TestMembershipSettledNeverLiesDuringQueuedJoin sweeps the realistic
// path: while a queued TryJoin is anywhere between "queued" and "warm",
// MembershipSettled must never report true. The first true must
// coincide with the queued node being a full warm member.
func TestMembershipSettledNeverLiesDuringQueuedJoin(t *testing.T) {
	eng, c := newDrainHarness(t, 200*time.Millisecond)
	eng.RunFor(50 * time.Millisecond)

	if err := c.Join(3); err != nil { // in flight...
		t.Fatal(err)
	}
	if err := c.TryJoin(4); err != nil {
		t.Fatal(err)
	}
	if len(c.membershipQueue) != 1 {
		t.Fatalf("TryJoin during a change should queue, queue len = %d", len(c.membershipQueue))
	}

	settledAt := time.Duration(-1)
	for eng.Step() {
		if !c.MembershipSettled() {
			continue
		}
		if len(c.Members()) != 5 {
			t.Fatalf("settled at %v with %d members — the queued join was still pending",
				eng.Now(), len(c.Members()))
		}
		if len(c.warming) != 0 || c.draining != 0 {
			t.Fatalf("settled at %v with warming=%d draining=%d",
				eng.Now(), len(c.warming), c.draining)
		}
		if settledAt < 0 {
			settledAt = eng.Now()
		}
	}
	if settledAt < 0 {
		t.Fatal("cluster never settled")
	}
}
