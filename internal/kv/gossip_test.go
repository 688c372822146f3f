package kv_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"repro/internal/gossip"
	"repro/internal/kv"
	"repro/internal/netsim"
)

// gossipConfig is quietConfig with SWIM membership dissemination on and
// three founding members of a five-node topology.
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

	// Views at one ring-event prefix share one placement: converged
	// views route on the cluster's own, rewound ones on the founding one.
	members := h.cluster.Members()
	for _, m := range members {
		if h.cluster.Node(m).RouteStrategy() != h.cluster.Strategy() {
			t.Fatalf("converged node %d routes on its own copy of the placement", m)
		}
	}
	for _, m := range members {
		h.cluster.ResetGossipView(m, 0)
	}
	founding := h.cluster.Node(members[0]).RouteStrategy()
	if founding == h.cluster.Strategy() {
		t.Fatal("a view rewound to prefix 0 routes on the post-join placement")
	}
	for _, m := range members[1:] {
		if h.cluster.Node(m).RouteStrategy() != founding {
			t.Fatalf("rewound node %d routes on its own copy of the founding placement", m)
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

// readLine and writeLine are one result's transcript line.
func readLine(r kv.ReadResult) string {
	return fmt.Sprintf("get %s err=%v val=%q lat=%v ver=%v", r.Key, r.Err, r.Value, r.Latency, r.Version)
}

func writeLine(w kv.WriteResult) string {
	return fmt.Sprintf("put %s err=%v lat=%v ver=%v acked=%d", w.Key, w.Err, w.Latency, w.Version, w.Acked)
}

// usageLine is a transcript's Usage line: named counters, so a field
// added to Usage does not move a pinned hash unless the line names it.
// It names every field but StreamInChunks.
func usageLine(u kv.Usage) string {
	return fmt.Sprintf("usage nodes=%d busy=%v stored=%d repReads=%d repWrites=%d coordOps=%d repairs=%d "+
		"hintsReplayed=%d hintsDropped=%d ae=%d flushed=%d dropped=%d "+
		"crashes=%d walReplays=%d walBytes=%d walSyncs=%d lostWAL=%d compactions=%d compacted=%d "+
		"joins=%d decommissions=%d streamChunks=%d streamedCells=%d streamedBytes=%d streamInCells=%d snapshotCells=%d "+
		"gossipRounds=%d suspicions=%d dead=%d ringEvents=%d notOwner=%d wrongOwnerRetries=%d warmViolations=%d "+
		"cacheHits=%d cacheMisses=%d cacheFills=%d cacheInvalidations=%d cacheExpired=%d cacheRingEvicted=%d "+
		"cacheStaleServed=%d hotPromotions=%d hotDemotions=%d hotKeys=%d",
		u.Nodes, u.BusyTime, u.StoredBytes, u.ReplicaReads, u.ReplicaWrites, u.CoordOps, u.ReadRepairs,
		u.HintsReplayed, u.HintsDropped, u.AERounds, u.FlushedBytes, u.DroppedMuts,
		u.Crashes, u.WALReplays, u.WALBytes, u.WALSyncs, u.LostWALRecords, u.Compactions, u.CompactedBytes,
		u.Joins, u.Decommissions, u.StreamChunks, u.StreamedCells, u.StreamedBytes, u.StreamInCells, u.StreamSnapshotCells,
		u.GossipRounds, u.GossipSuspicions, u.GossipDeadDeclared, u.GossipEvents, u.NotOwnerReplies, u.WrongOwnerRetries, u.WarmViolations,
		u.CacheHits, u.CacheMisses, u.CacheFills, u.CacheInvalidations, u.CacheExpired, u.CacheRingEvicted,
		u.CacheStaleServed, u.HotPromotions, u.HotDemotions, u.HotKeysNow)
}

// meterLine is a transcript's traffic-meter line.
func meterLine(m netsim.TrafficMeter) string {
	return fmt.Sprintf("meter msgs=%v bytes=%v dropped=%d", m.Messages, m.Bytes, m.Dropped)
}

// TestStaleRingNotOwnerFallback: coordinators on a maximally stale
// (pre-join) ring still meet quorum within the deadline for every
// operation shape — the displaced replica's notOwner refusal advances
// their ring and the retry contacts the true owners. Each case's
// transcript (every result, then Usage and the transport meter after a
// one-second drain) is pinned by hash: these are the only pins on the
// batched wrong-owner paths, which the atomic-path transcripts of the
// root determinism tests never reach.
func TestStaleRingNotOwnerFallback(t *testing.T) {
	cases := []struct {
		name string
		want string
		run  func(t *testing.T, h *harness, key string) []string
	}{
		{"read", "c94cb60e3248bbb45d055447414fd7fd68efc47e0a5b2361c54804e4832a2a3f", func(t *testing.T, h *harness, key string) []string {
			r := h.read(key, kv.Quorum)
			if r.Err != nil || string(r.Value) != "v0" {
				t.Fatalf("stale-ring read: err=%v value=%q", r.Err, r.Value)
			}
			return []string{readLine(r)}
		}},
		{"write", "66af0c3afa10ed027ccaaf37d0c0b2cf924e114308aad4242f26cc046a3d33cb", func(t *testing.T, h *harness, key string) []string {
			w := h.write(key, []byte("v1"), kv.Quorum)
			if w.Err != nil {
				t.Fatalf("stale-ring write: %v", w.Err)
			}
			return []string{writeLine(w)}
		}},
		// All-level: quorum target selection may skip the displaced
		// replica entirely; All guarantees the stale coordinator contacts
		// it and gets refused.
		{"batch-read", "449162b73636fdc34edbef70c7f45b25e4d90f63cfcafc5449ae9c22e87f3cd3", func(t *testing.T, h *harness, key string) []string {
			var lines []string
			for _, r := range h.batchRead([]string{key, gkey(0), gkey(1)}, kv.All) {
				if r.Err != nil || !r.Exists {
					t.Fatalf("stale-ring batch read %s: err=%v exists=%v", r.Key, r.Err, r.Exists)
				}
				lines = append(lines, readLine(r))
			}
			return lines
		}},
		{"batch-write", "9169e7c8879007c29fd1c64291da3750984888589684ace84c432ac3a77c2c04", func(t *testing.T, h *harness, key string) []string {
			var lines []string
			ops := []kv.BatchOp{{Key: key, Value: []byte("v1")}, {Key: gkey(0), Value: []byte("v1")}}
			for _, w := range h.batchWrite(ops, kv.Quorum) {
				if w.Err != nil {
					t.Fatalf("stale-ring batch write %s: %v", w.Key, w.Err)
				}
				lines = append(lines, writeLine(w))
			}
			return lines
		}},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, key, joiner, _ := staleRingSetup(t, 17+uint64(ci))
			before := h.cluster.Usage()
			// Repeat the op: coordinator choice is random, and a stale
			// coordinator converges the moment it is taught — several
			// attempts guarantee at least one exercised the fallback.
			var lines []string
			for i := 0; i < 10; i++ {
				lines = append(lines, tc.run(t, h, key)...)
			}
			u := h.cluster.Usage()
			if u.NotOwnerReplies == before.NotOwnerReplies {
				t.Error("no wrong-owner refusal was triggered")
			}
			if u.WrongOwnerRetries == before.WrongOwnerRetries {
				t.Error("no wrong-owner retry ran")
			}
			h.eng.RunFor(time.Second)
			if tc.name == "write" || tc.name == "batch-write" {
				// The retry must have shipped the cell to the new owner.
				if _, ok := h.cluster.Node(joiner).Engine().Get(key); !ok {
					t.Error("retried write never reached the new owner")
				}
			}
			lines = append(lines, usageLine(h.cluster.Usage()), meterLine(h.tr.Meter()))
			sum := sha256.New()
			for _, l := range lines {
				sum.Write([]byte(l + "\n"))
			}
			if got := hex.EncodeToString(sum.Sum(nil)); got != tc.want {
				for _, l := range lines {
					t.Log(l)
				}
				t.Errorf("transcript hash = %s, want %s", got, tc.want)
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
