package ring

import (
	"fmt"
	"testing"

	"repro/internal/netsim"
)

func TestRangeContains(t *testing.T) {
	plain := Range{Start: 100, End: 200}
	for tok, want := range map[Token]bool{100: false, 101: true, 200: true, 201: false, 0: false} {
		if got := plain.Contains(tok); got != want {
			t.Errorf("plain.Contains(%d) = %v, want %v", tok, got, want)
		}
	}
	if plain.Wraps() {
		t.Error("plain arc reported wrapping")
	}
	wrap := Range{Start: ^Token(0) - 10, End: 10}
	for tok, want := range map[Token]bool{^Token(0) - 10: false, ^Token(0) - 9: true, ^Token(0): true, 0: true, 10: true, 11: false, 500: false} {
		if got := wrap.Contains(tok); got != want {
			t.Errorf("wrap.Contains(%d) = %v, want %v", tok, got, want)
		}
	}
	if !wrap.Wraps() {
		t.Error("wrap arc not reported wrapping")
	}
	full := Range{Start: 42, End: 42}
	for _, tok := range []Token{0, 41, 42, 43, ^Token(0)} {
		if !full.Contains(tok) {
			t.Errorf("full ring excludes token %d", tok)
		}
	}
}

// TestRingRangesPartition pins that the per-node arcs partition the
// whole token space: probing boundaries, their neighbors and a spread
// of tokens, every token lands in exactly one node's range set.
func TestRingRangesPartition(t *testing.T) {
	r := New(nodeIDs(8), 16, 7)
	perNode := make(map[netsim.NodeID][]Range, 8)
	wraps := 0
	for _, id := range r.Nodes() {
		rs := r.Ranges(id)
		perNode[id] = rs
		for i, rg := range rs {
			if rg.Wraps() {
				wraps++
				if i != 0 {
					t.Errorf("node %d: wrapping arc at position %d, want first", id, i)
				}
			}
			if i > 0 && rs[i-1].End >= rg.End {
				t.Errorf("node %d: ranges not ascending by End", id)
			}
		}
	}
	if wraps != 1 {
		t.Fatalf("expected exactly one wrapping arc ring-wide, got %d", wraps)
	}
	var probes []Token
	for _, vn := range r.vnodes {
		probes = append(probes, vn.token-1, vn.token, vn.token+1)
	}
	for i := 0; i < 512; i++ {
		probes = append(probes, KeyToken(fmt.Sprintf("probe-%d", i)))
	}
	for _, tok := range probes {
		owners := 0
		var owner netsim.NodeID = -1
		for id, rs := range perNode {
			hit := false
			for _, rg := range rs {
				if rg.Contains(tok) {
					hit = true
				}
			}
			if RangesContain(rs, tok) != hit {
				t.Fatalf("RangesContain disagrees with linear scan at token %d", tok)
			}
			if hit {
				owners++
				owner = id
			}
		}
		if owners != 1 {
			t.Fatalf("token %d owned by %d nodes", tok, owners)
		}
		// The primary owner of the arc is the first node clockwise.
		if got := r.vnodes[r.search(tok)].node; got != owner {
			t.Fatalf("token %d: range owner %d != search owner %d", tok, owner, got)
		}
	}
}

// diffParity checks the tentpole contract on a key sample: a key's
// token is covered by Diff's ranges exactly when its replica list
// changes between the two placements.
func diffParity(t *testing.T, old, next Strategy, keys []string) {
	t.Helper()
	moves := Diff(old, next)
	ranges := make([]Range, 0, len(moves))
	for _, mv := range moves {
		if nodesEqual(mv.Old, mv.New) {
			t.Fatalf("movement %v with identical replica sets", mv.Range)
		}
		ranges = append(ranges, mv.Range)
	}
	for _, k := range keys {
		tok := KeyToken(k)
		changed := !nodesEqual(old.Replicas(k), next.Replicas(k))
		covered := RangesContain(ranges, tok)
		if changed != covered {
			t.Fatalf("key %s (token %d): changed=%v covered=%v", k, tok, changed, covered)
		}
		if covered {
			// The covering movement's Old/New must be the key's actual
			// before/after replica lists.
			for _, mv := range moves {
				if mv.Range.Contains(tok) {
					if !nodesEqual(mv.Old, old.Replicas(k)) || !nodesEqual(mv.New, next.Replicas(k)) {
						t.Fatalf("key %s: movement sets %v→%v, key sets %v→%v",
							k, mv.Old, mv.New, old.Replicas(k), next.Replicas(k))
					}
				}
			}
		}
	}
}

// TestDiffParitySimple is the range-vs-per-key parity property test for
// SimpleStrategy across joins, removals and multi-node changes.
func TestDiffParitySimple(t *testing.T) {
	keys := sampleKeys(2000)
	for _, seed := range []uint64{1, 7, 99} {
		for _, n := range []int{2, 4, 8} {
			build := func(ids []netsim.NodeID) Strategy {
				return NewSimpleStrategy(New(ids, 16, seed), 3)
			}
			base := nodeIDs(n)
			diffParity(t, build(base), build(append(nodeIDs(n), netsim.NodeID(n))), keys)       // join
			diffParity(t, build(base), build(base[1:]), keys)                                   // leave
			diffParity(t, build(base), build(append(nodeIDs(n)[1:], netsim.NodeID(n+3))), keys) // swap
		}
	}
}

// TestDiffParityNetworkTopology runs the same parity property over the
// multi-DC strategy.
func TestDiffParityNetworkTopology(t *testing.T) {
	topo := netsim.NewTopology()
	dc1 := topo.AddDC("dc1", "r", 5)
	dc2 := topo.AddDC("dc2", "r", 5)
	keys := sampleKeys(1500)
	build := func(members []netsim.NodeID) Strategy {
		return NewNetworkTopologyStrategy(New(members, 16, 9), topo, map[string]int{"dc1": 2, "dc2": 2})
	}
	base := append(append([]netsim.NodeID(nil), dc1[:3]...), dc2[:3]...)
	joined := append(append([]netsim.NodeID(nil), base...), dc1[3])
	left := append(append([]netsim.NodeID(nil), dc1[:3]...), dc2[1:3]...)
	diffParity(t, build(base), build(joined), keys)
	diffParity(t, build(base), build(left), keys)
}

// TestDiffEmpty pins that an unchanged membership yields no movements.
func TestDiffEmpty(t *testing.T) {
	a := NewSimpleStrategy(New(nodeIDs(5), 16, 7), 3)
	b := NewSimpleStrategy(New(nodeIDs(5), 16, 7), 3)
	if moves := Diff(a, b); len(moves) != 0 {
		t.Fatalf("identical placements produced %d movements", len(moves))
	}
}

// TestDiffWrapArc pins that a movement crossing token 0 is emitted as a
// wrapping range, ordered first, and covers tokens on both sides of 0.
func TestDiffWrapArc(t *testing.T) {
	// Find a join whose movement set includes the wrap arc: the arc
	// ending at the lowest boundary changes owners for some (seed, n).
	for seed := uint64(1); seed < 64; seed++ {
		old := NewSimpleStrategy(New(nodeIDs(4), 8, seed), 2)
		next := NewSimpleStrategy(New(nodeIDs(5), 8, seed), 2)
		moves := Diff(old, next)
		if len(moves) == 0 || !moves[0].Range.Wraps() {
			continue
		}
		wrap := moves[0].Range
		for i, mv := range moves {
			if i > 0 && mv.Range.Wraps() {
				t.Fatalf("seed %d: second wrapping movement at %d", seed, i)
			}
		}
		if !wrap.Contains(0) || !wrap.Contains(^Token(0)) {
			t.Fatalf("seed %d: wrap arc %+v misses a side of token 0", seed, wrap)
		}
		ranges := make([]Range, 0, len(moves))
		for _, mv := range moves {
			ranges = append(ranges, mv.Range)
		}
		if !RangesContain(ranges, 0) {
			t.Fatalf("seed %d: RangesContain misses token 0 inside wrap arc", seed)
		}
		return
	}
	t.Fatal("no seed produced a wrapping movement; test construction broken")
}
