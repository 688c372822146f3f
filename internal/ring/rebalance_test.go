package ring

import (
	"fmt"
	"testing"

	"repro/internal/netsim"
)

// sampleKeys returns a deterministic key set for ownership measurements.
func sampleKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("rebalance-key-%06d", i)
	}
	return keys
}

// TestRebalancedTablesMatchWalk verifies, for the member set after each
// step of a membership-change sequence, that the placement table built for it
// agrees entry-for-entry with a fresh ring walk — the table is a pure
// cache of the walk.
func TestRebalancedTablesMatchWalk(t *testing.T) {
	steps := []struct {
		name    string
		members []netsim.NodeID
	}{
		{"initial", nodeIDs(8)},
		{"add-8", nodeIDs(9)},
		{"add-9", nodeIDs(10)},
		{"remove-0", nodeIDs(10)[1:]},
		{"remove-9", nodeIDs(9)[1:]},
		{"add-10", append(nodeIDs(9)[1:], 10)},
		{"remove-3", []netsim.NodeID{1, 2, 4, 5, 6, 7, 8, 10}},
	}
	for _, step := range steps {
		s := NewSimpleStrategy(New(step.members, 32, 11), 3)
		for i := range s.Ring.vnodes {
			walk := refWalk(s.Ring, i)
			walk = walk[:min(len(walk), s.Factor)]
			if !nodesEqual(walk, s.table[i]) {
				t.Fatalf("%s: entry %d: table %v vs walk %v", step.name, i, s.table[i], walk)
			}
		}
	}
}

// TestJoinOwnershipDelta pins consistent hashing's rebalance bound: the
// placement over N+1 nodes moves only about 1/(N+1) of primary
// ownership from the one over N (within vnode-variance slack), and only
// to the new node.
func TestJoinOwnershipDelta(t *testing.T) {
	const n = 8
	before := NewSimpleStrategy(New(nodeIDs(n), 64, 3), 3)
	after := NewSimpleStrategy(New(nodeIDs(n+1), 64, 3), 3)
	keys := sampleKeys(20000)

	moved := 0
	for _, k := range keys {
		was, now := before.Replicas(k)[0], after.Replicas(k)[0]
		if now != was {
			moved++
			if now != n {
				// Primary ownership may only move TO the new node; any
				// other movement breaks minimal rebalancing.
				t.Fatalf("key %s moved %d -> %d (not the new node)", k, was, now)
			}
		}
	}
	frac := float64(moved) / float64(len(keys))
	ideal := 1.0 / float64(n+1)
	if frac > ideal*2 {
		t.Errorf("add moved %.1f%% of primaries, want ≈%.1f%% (≤2× slack)", 100*frac, 100*ideal)
	}
	if frac < ideal/3 {
		t.Errorf("add moved only %.1f%% of primaries, want ≈%.1f%%", 100*frac, 100*ideal)
	}
}

// TestRebalanceDeterminism pins that a placement is a function of the
// member set alone: the same members listed in any order build the same
// ring and answer every key identically.
func TestRebalanceDeterminism(t *testing.T) {
	a := NewSimpleStrategy(New([]netsim.NodeID{0, 2, 3, 4, 5, 6}, 16, 42), 3)
	b := NewSimpleStrategy(New([]netsim.NodeID{6, 0, 5, 2, 4, 3}, 16, 42), 3)
	for i := range a.Ring.vnodes {
		if a.Ring.vnodes[i] != b.Ring.vnodes[i] {
			t.Fatalf("vnode %d: %+v vs %+v for the same member set", i, a.Ring.vnodes[i], b.Ring.vnodes[i])
		}
	}
	for _, k := range sampleKeys(1000) {
		if ra, rb := a.Replicas(k), b.Replicas(k); !nodesEqual(ra, rb) {
			t.Fatalf("key %s: %v vs %v for the same member set", k, ra, rb)
		}
	}
}

// TestNetworkTopologyRemovePanicsWhenThin pins the under-provisioning
// guard a removal meets: the placement over the survivors of a removal
// that leaves a DC below its replica quota cannot be built.
func TestNetworkTopologyRemovePanicsWhenThin(t *testing.T) {
	topo := netsim.NewTopology()
	ids := topo.AddDC("dc1", "r", 2)
	perDC := map[string]int{"dc1": 2}
	NewNetworkTopologyStrategy(New(ids, 8, 1), topo, perDC)
	defer func() {
		if recover() == nil {
			t.Error("expected panic building a placement below the DC quota")
		}
	}()
	NewNetworkTopologyStrategy(New(ids[1:], 8, 1), topo, perDC)
}

// TestNetworkTopologyRebalance verifies the multi-DC strategy meets its
// per-DC quotas over the member sets of a join and a removal.
func TestNetworkTopologyRebalance(t *testing.T) {
	topo := netsim.NewTopology()
	dc1 := topo.AddDC("dc1", "r", 4)
	dc2 := topo.AddDC("dc2", "r", 4)

	initial := append(append([]netsim.NodeID(nil), dc1[:3]...), dc2[:3]...)
	joined := append(append([]netsim.NodeID(nil), initial...), dc1[3])
	removed := joined[1:]
	for _, step := range []struct {
		name    string
		members []netsim.NodeID
	}{{"initial", initial}, {"after add", joined}, {"after remove", removed}} {
		s := NewNetworkTopologyStrategy(New(step.members, 16, 9), topo, map[string]int{"dc1": 2, "dc2": 2})
		for _, k := range sampleKeys(500) {
			perDC := map[string]int{}
			for _, n := range s.Replicas(k) {
				perDC[topo.DCOf(n)]++
			}
			if perDC["dc1"] != 2 || perDC["dc2"] != 2 {
				t.Fatalf("%s: quotas %v for key %s", step.name, perDC, k)
			}
		}
	}
}
