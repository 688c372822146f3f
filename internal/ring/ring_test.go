package ring

import (
	"fmt"
	"maps"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/stats"
)

func nodeIDs(n int) []netsim.NodeID {
	out := make([]netsim.NodeID, n)
	for i := range out {
		out[i] = netsim.NodeID(i)
	}
	return out
}

func TestKeyTokenDeterministic(t *testing.T) {
	if KeyToken("alpha") != KeyToken("alpha") {
		t.Error("token not deterministic")
	}
	if KeyToken("alpha") == KeyToken("beta") {
		t.Error("trivial token collision")
	}
}

func TestSimpleStrategyProperties(t *testing.T) {
	r := New(nodeIDs(10), 16, 7)
	s := NewSimpleStrategy(r, 3)
	if s.RF() != 3 {
		t.Errorf("RF = %d", s.RF())
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(func(key string) bool {
		reps := s.Replicas(key)
		if len(reps) != 3 {
			return false
		}
		seen := map[netsim.NodeID]bool{}
		for _, n := range reps {
			if seen[n] || n < 0 || int(n) >= 10 {
				return false
			}
			seen[n] = true
		}
		// Determinism: the same key maps to the same ordered set.
		again := s.Replicas(key)
		for i := range reps {
			if reps[i] != again[i] {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

// refWalk is the clockwise distinct-node walk over the whole ring from
// vnode start, with nothing stopping it early: what the placement tables
// are checked against.
func refWalk(r *Ring, start int) []netsim.NodeID {
	var walk []netsim.NodeID
	seen := map[netsim.NodeID]bool{}
	for i := range r.vnodes {
		if n := r.vnodes[(start+i)%len(r.vnodes)].node; !seen[n] {
			seen[n] = true
			walk = append(walk, n)
		}
	}
	return walk
}

// TestPlacementTableMatchesWalk pins that the precomputed placement
// tables, whose walks stop once a replica set is full, agree with picks
// over refWalk at every vnode: the first RF nodes for SimpleStrategy, the
// first per-DC quota for NetworkTopologyStrategy. Rings are random in
// membership (sparse ids included), vnode count, seed and RF.
func TestPlacementTableMatchesWalk(t *testing.T) {
	rng := stats.NewSource(5)
	for trial := 0; trial < 60; trial++ {
		var members []netsim.NodeID
		for id := 0; len(members) == 0 || id < 40; id++ {
			if rng.IntN(3) == 0 {
				members = append(members, netsim.NodeID(id))
			}
		}
		r := New(members, 1+rng.IntN(24), rng.Uint64N(1000))
		rf := 1 + rng.IntN(6) // may exceed the member count
		s := NewSimpleStrategy(r, rf)
		for i := range r.vnodes {
			walk := refWalk(r, i)
			want := walk[:min(rf, len(walk))]
			if !slices.Equal(s.table[i], want) {
				t.Fatalf("trial %d, %d members, rf %d, vnode %d: table %v, walk %v", trial, len(members), rf, i, s.table[i], walk)
			}
		}

		topo := netsim.NewTopology()
		topo.AddDC("dc1", "r", 1+rng.IntN(12))
		topo.AddDC("dc2", "r", 1+rng.IntN(12))
		perDC := map[string]int{}
		for _, dc := range []string{"dc1", "dc2"} {
			members := 0
			for _, id := range topo.Nodes() {
				if topo.DCOf(id) == dc {
					members++
				}
			}
			perDC[dc] = rng.IntN(min(members, 3) + 1)
		}
		r = New(topo.Nodes(), 1+rng.IntN(24), rng.Uint64N(1000))
		nts := NewNetworkTopologyStrategy(r, topo, perDC)
		for i := range r.vnodes {
			need := maps.Clone(perDC)
			var want []netsim.NodeID
			for _, n := range refWalk(r, i) {
				if dc := topo.DCOf(n); need[dc] > 0 {
					need[dc]--
					want = append(want, n)
				}
			}
			if !slices.Equal(nts.table[i], want) {
				t.Fatalf("trial %d, perDC %v, vnode %d: table %v, want %v", trial, perDC, i, nts.table[i], want)
			}
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := New(nodeIDs(8), 64, 3)
	s := NewSimpleStrategy(r, 1)
	counts := make(map[netsim.NodeID]int)
	const keys = 20000
	for i := 0; i < keys; i++ {
		counts[s.Replicas(fmt.Sprintf("key-%d", i))[0]]++
	}
	want := keys / 8
	for n, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("node %d owns %d keys (expected ≈%d): poor balance", n, c, want)
		}
	}
}

func TestRingSeedChangesPlacement(t *testing.T) {
	a := NewSimpleStrategy(New(nodeIDs(8), 16, 1), 1)
	b := NewSimpleStrategy(New(nodeIDs(8), 16, 2), 1)
	diff := 0
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%d", i)
		if a.Replicas(k)[0] != b.Replicas(k)[0] {
			diff++
		}
	}
	if diff < 50 {
		t.Errorf("different seeds placed %d/100 keys identically", 100-diff)
	}
}

// TestWalkVisitsAllNodesOnce pins the clockwise walk placement tables
// are built from: it visits every member exactly once.
func TestWalkVisitsAllNodesOnce(t *testing.T) {
	r := New(nodeIDs(6), 8, 1)
	var visited []netsim.NodeID
	r.walkFrom(r.search(KeyToken("somekey")), make([]bool, 6), func(n netsim.NodeID) bool {
		visited = append(visited, n)
		return true
	})
	if len(visited) != 6 {
		t.Fatalf("walk visited %d nodes", len(visited))
	}
	seen := map[netsim.NodeID]bool{}
	for _, n := range visited {
		if seen[n] {
			t.Fatal("walk revisited a node")
		}
		seen[n] = true
	}
}

// TestPrimaryIsFirstWalkNode pins that a key's primary replica is the
// first node clockwise from its token.
func TestPrimaryIsFirstWalkNode(t *testing.T) {
	r := New(nodeIDs(6), 8, 1)
	s := NewSimpleStrategy(r, 3)
	for _, k := range sampleKeys(200) {
		var first netsim.NodeID = -1
		r.walkFrom(r.search(KeyToken(k)), make([]bool, 6), func(n netsim.NodeID) bool { first = n; return false })
		if p := s.Replicas(k)[0]; p != first {
			t.Fatalf("key %s: primary %d != first walk node %d", k, p, first)
		}
	}
}

func TestNetworkTopologyStrategy(t *testing.T) {
	topo := netsim.NewTopology()
	topo.AddDC("dc1", "r", 5)
	topo.AddDC("dc2", "r", 5)
	r := New(topo.Nodes(), 16, 9)
	s := NewNetworkTopologyStrategy(r, topo, map[string]int{"dc1": 2, "dc2": 3})
	if s.RF() != 5 {
		t.Errorf("RF = %d", s.RF())
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		reps := s.Replicas(key)
		if len(reps) != 5 {
			t.Fatalf("replicas = %d", len(reps))
		}
		perDC := map[string]int{}
		for _, n := range reps {
			perDC[topo.DCOf(n)]++
		}
		if perDC["dc1"] != 2 || perDC["dc2"] != 3 {
			t.Fatalf("per-DC placement %v for %s", perDC, key)
		}
	}
}

func TestNetworkTopologyStrategyPanicsWhenDCThin(t *testing.T) {
	topo := netsim.NewTopology()
	topo.AddDC("dc1", "r", 1)
	r := New(topo.Nodes(), 4, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for under-provisioned DC")
		}
	}()
	NewNetworkTopologyStrategy(r, topo, map[string]int{"dc1": 3})
}

func TestRingSingleNode(t *testing.T) {
	r := New(nodeIDs(1), 4, 1)
	s := NewSimpleStrategy(r, 1)
	if got := s.Replicas("k"); len(got) != 1 || got[0] != 0 {
		t.Errorf("single-node ring: %v", got)
	}
}
