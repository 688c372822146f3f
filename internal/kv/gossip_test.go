package kv_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/gossip"
	"repro/internal/kv"
	"repro/internal/netsim"
)

// gossipConfig is quietConfig with SWIM membership dissemination on and
// three founders of a five-node topology.
func gossipConfig(seed uint64) kv.Config {
	cfg := quietConfig(seed)
	cfg.InitialMembers = []netsim.NodeID{0, 1, 2}
	cfg.Gossip = true
	return cfg
}

func gkey(i int) string { return fmt.Sprintf("%03d-gossip", i) }

// waitConverged runs the simulation until every reachable view agrees
// with the membership-flip log (bounded, loud on overrun).
func (h *harness) waitConverged(t *testing.T, bound time.Duration) time.Duration {
	t.Helper()
	start := h.eng.Now()
	for h.cluster.ViewAgreement() < 1 {
		if h.eng.Now()-start > bound {
			t.Fatalf("views did not converge within %v (agreement %.2f)",
				bound, h.cluster.ViewAgreement())
		}
		h.eng.RunFor(50 * time.Millisecond)
	}
	return h.eng.Now() - start
}

// TestGossipJoinConvergesViews: after a join, per-node views converge on
// the new ring through gossip alone, MembershipConverged flips true, and
// the dissemination meters show ring events actually traveled.
func TestGossipJoinConvergesViews(t *testing.T) {
	h := newHarness(netsim.SingleDC(5), gossipConfig(11))
	for i := 0; i < 40; i++ {
		if w := h.write(gkey(i), []byte("pre-join"), kv.All); w.Err != nil {
			t.Fatal(w.Err)
		}
	}
	if !h.cluster.MembershipConverged() {
		t.Fatal("founding cluster must start converged")
	}

	h.join(3)
	h.eng.RunFor(300 * time.Millisecond) // streaming
	h.waitConverged(t, 5*time.Second)
	if !h.cluster.MembershipConverged() {
		t.Fatal("not converged after join")
	}
	u := h.cluster.Usage()
	if u.GossipRounds == 0 {
		t.Error("no gossip rounds ran")
	}
	if u.GossipEvents == 0 {
		t.Error("no ring events disseminated")
	}

	// The new ring must actually serve: every key readable at quorum.
	for i := 0; i < 40; i++ {
		if r := h.read(gkey(i), kv.Quorum); r.Err != nil || !r.Exists {
			t.Fatalf("key %s after join: err=%v exists=%v", gkey(i), r.Err, r.Exists)
		}
	}
}

// TestGossipSuspicionAndRefutation: a failed node is suspected and then
// declared dead by its peers' local detectors; on recovery the
// refutation handshake resurrects it in every view — no global reset.
func TestGossipSuspicionAndRefutation(t *testing.T) {
	cfg := gossipConfig(13)
	cfg.InitialMembers = []netsim.NodeID{0, 1, 2, 3}
	h := newHarness(netsim.SingleDC(4), cfg)
	h.eng.RunFor(time.Second)

	h.cluster.Fail(1)
	// Enough for every peer to probe node 1 and age the suspicion out.
	h.eng.RunFor(4 * time.Second)
	u := h.cluster.Usage()
	if u.GossipSuspicions == 0 {
		t.Fatal("no suspicions raised against the failed node")
	}
	if u.GossipDeadDeclared == 0 {
		t.Fatal("no death verdict after the suspicion aged out")
	}
	for _, viewer := range []netsim.NodeID{0, 2, 3} {
		if st := h.cluster.GossipStatus(viewer, 1); st == gossip.Alive {
			t.Fatalf("viewer %d still believes the failed node alive", viewer)
		}
	}

	h.cluster.Recover(1)
	deadline := h.eng.Now() + 10*time.Second
	healed := func() bool {
		for _, viewer := range []netsim.NodeID{0, 2, 3} {
			if h.cluster.GossipStatus(viewer, 1) != gossip.Alive {
				return false
			}
		}
		return h.cluster.GossipStatus(1, 0) == gossip.Alive
	}
	for !healed() && h.eng.Now() < deadline {
		h.eng.RunFor(100 * time.Millisecond)
	}
	if !healed() {
		t.Fatal("refutation did not resurrect the recovered node in every view")
	}
	// The healed ring serves at All — every coordinator routes to node 1
	// again.
	if w := h.write(gkey(0), []byte("post-heal"), kv.All); w.Err != nil {
		t.Fatalf("write at All after heal: %v", w.Err)
	}
}

// staleRingSetup joins node 3, converges every view, then rewinds all
// views except the joiner's and one displaced old owner's to the
// pre-join prefix. It returns a key the join moved plus the displaced
// replica: a stale coordinator contacts the displaced node, which
// refuses (strictly newer ring, no longer an owner) and teaches it the
// missing events — the wrong-owner fallback under a maximally stale
// ring.
func staleRingSetup(t *testing.T, seed uint64) (h *harness, key string, joiner, displaced netsim.NodeID) {
	t.Helper()
	cfg := gossipConfig(seed)
	cfg.WarmupDuration = 0 // no warming: isolate the stale-ring machinery
	h = newHarness(netsim.SingleDC(5), cfg)
	joiner = 3

	oldReps := make(map[string][]netsim.NodeID)
	for i := 0; i < 120; i++ {
		k := gkey(i)
		oldReps[k] = append([]netsim.NodeID(nil), h.cluster.Strategy().Replicas(k)...)
		if w := h.write(k, []byte("v0"), kv.All); w.Err != nil {
			t.Fatal(w.Err)
		}
	}
	h.join(joiner)
	h.eng.RunFor(300 * time.Millisecond)
	h.waitConverged(t, 5*time.Second)

	displaced = -1
	for i := 0; i < 120; i++ {
		k := gkey(i)
		newR := h.cluster.Strategy().Replicas(k)
		if !containsID(newR, joiner) {
			continue
		}
		for _, r := range oldReps[k] {
			if !containsID(newR, r) {
				key, displaced = k, r
				break
			}
		}
		if displaced >= 0 {
			break
		}
	}
	if displaced < 0 {
		t.Fatal("no key was displaced by the join")
	}
	for _, m := range h.cluster.Members() {
		if m != joiner && m != displaced {
			h.cluster.ResetGossipView(m, 0)
		}
	}
	return h, key, joiner, displaced
}

func containsID(list []netsim.NodeID, id netsim.NodeID) bool {
	for _, n := range list {
		if n == id {
			return true
		}
	}
	return false
}

// TestStaleRingNotOwnerFallback: coordinators on a maximally stale
// (pre-join) ring still meet quorum within the deadline for every
// operation shape — the displaced replica's notOwner refusal advances
// their ring and the retry contacts the true owners.
func TestStaleRingNotOwnerFallback(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, h *harness, key string)
	}{
		{"read", func(t *testing.T, h *harness, key string) {
			r := h.read(key, kv.Quorum)
			if r.Err != nil || string(r.Value) != "v0" {
				t.Fatalf("stale-ring read: err=%v value=%q", r.Err, r.Value)
			}
		}},
		{"write", func(t *testing.T, h *harness, key string) {
			if w := h.write(key, []byte("v1"), kv.Quorum); w.Err != nil {
				t.Fatalf("stale-ring write: %v", w.Err)
			}
		}},
		// All-level: quorum target selection may skip the displaced
		// replica entirely; All guarantees the stale coordinator contacts
		// it and gets refused.
		{"batch-read", func(t *testing.T, h *harness, key string) {
			res := h.batchRead([]string{key, gkey(0), gkey(1)}, kv.All)
			for _, r := range res {
				if r.Err != nil || !r.Exists {
					t.Fatalf("stale-ring batch read %s: err=%v exists=%v", r.Key, r.Err, r.Exists)
				}
			}
		}},
		{"batch-write", func(t *testing.T, h *harness, key string) {
			ops := []kv.BatchOp{{Key: key, Value: []byte("v1")}, {Key: gkey(0), Value: []byte("v1")}}
			for _, w := range h.batchWrite(ops, kv.Quorum) {
				if w.Err != nil {
					t.Fatalf("stale-ring batch write %s: %v", w.Key, w.Err)
				}
			}
		}},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, key, joiner, _ := staleRingSetup(t, 17+uint64(ci))
			before := h.cluster.Usage()
			// Repeat the op: coordinator choice is random, and a stale
			// coordinator converges the moment it is taught — several
			// attempts guarantee at least one exercised the fallback.
			for i := 0; i < 10; i++ {
				tc.run(t, h, key)
			}
			u := h.cluster.Usage()
			if u.NotOwnerReplies == before.NotOwnerReplies {
				t.Error("no wrong-owner refusal was triggered")
			}
			if u.WrongOwnerRetries == before.WrongOwnerRetries {
				t.Error("no wrong-owner retry ran")
			}
			if tc.name == "write" || tc.name == "batch-write" {
				// The retry must have shipped the cell to the new owner.
				h.eng.RunFor(time.Second)
				if _, ok := h.cluster.Node(joiner).Engine().Get(key); !ok {
					t.Error("retried write never reached the new owner")
				}
			}
		})
	}
}

// TestGossipRetryBudgetExhaustionFailsLoudly: with retries disabled, a
// stale coordinator whose only path to quorum is through the refusing
// displaced replica must fail with a loud timeout, not hang.
func TestGossipRetryBudgetExhaustionFailsLoudly(t *testing.T) {
	cfg := gossipConfig(23)
	cfg.WarmupDuration = 0
	cfg.GossipRetryBudget = 1
	h := newHarness(netsim.SingleDC(5), cfg)
	for i := 0; i < 40; i++ {
		if w := h.write(gkey(i), []byte("v0"), kv.All); w.Err != nil {
			t.Fatal(w.Err)
		}
	}
	h.join(3)
	h.eng.RunFor(300 * time.Millisecond)
	h.waitConverged(t, 5*time.Second)
	for _, m := range h.cluster.Members() {
		if m != 3 {
			h.cluster.ResetGossipView(m, 0)
		}
	}
	// Reads at All on the stale ring: any displaced replica refuses, the
	// single budgeted retry re-plans, and the operation either completes
	// or times out — always a definite result within the deadline.
	for i := 0; i < 40; i++ {
		r := h.read(gkey(i), kv.All)
		if r.Err != nil && r.Err != kv.ErrTimeout {
			t.Fatalf("unexpected error shape: %v", r.Err)
		}
	}
}
