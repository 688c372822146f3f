package ring

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
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
	s := SimpleStrategy{Ring: r, Factor: 3}
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

// TestPlacementTableMatchesWalk pins that the precomputed placement
// tables agree with a fresh ring walk for every key — the table is a pure
// cache, not a semantic change.
func TestPlacementTableMatchesWalk(t *testing.T) {
	r := New(nodeIDs(10), 16, 7)
	fast := NewSimpleStrategy(r, 3)
	slow := SimpleStrategy{Ring: r, Factor: 3} // zero table: walking fallback
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key%05d", i)
		a, b := fast.Replicas(key), slow.Replicas(key)
		if len(a) != len(b) {
			t.Fatalf("key %s: table %v vs walk %v", key, a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("key %s: table %v vs walk %v", key, a, b)
			}
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := New(nodeIDs(8), 64, 3)
	s := SimpleStrategy{Ring: r, Factor: 1}
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
	a := SimpleStrategy{Ring: New(nodeIDs(8), 16, 1), Factor: 1}
	b := SimpleStrategy{Ring: New(nodeIDs(8), 16, 2), Factor: 1}
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
	r.walkFrom(r.search(KeyToken("somekey")), map[netsim.NodeID]bool{}, func(n netsim.NodeID) bool {
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
		r.walkFrom(r.search(KeyToken(k)), map[netsim.NodeID]bool{}, func(n netsim.NodeID) bool { first = n; return false })
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
	s := SimpleStrategy{Ring: r, Factor: 1}
	if got := s.Replicas("k"); len(got) != 1 || got[0] != 0 {
		t.Errorf("single-node ring: %v", got)
	}
}
