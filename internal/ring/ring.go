// Package ring implements the consistent-hash token ring and the replica
// placement strategies of the replicated store: SimpleStrategy (first RF
// distinct nodes clockwise) and NetworkTopologyStrategy (per-datacenter
// replica counts), mirroring Cassandra's partitioners.
//
// A ring and its placement are immutable values, built once per member
// set. Tokens are a pure function of (node, vnode index, seed), so the
// placement after a membership change is simply the one built over the
// new member set; adding a node moves only the ~1/N of key ownership
// adjacent to its tokens (consistent hashing's rebalance guarantee), and
// Diff names exactly the arcs that moved.
package ring

import (
	"fmt"
	"sort"

	"repro/internal/netsim"
	"repro/internal/stats"
)

// Token is a position on the hash ring.
type Token uint64

// KeyToken maps a key to its ring position (FNV-1a, uniform enough for
// simulation purposes and fully deterministic). The hash is computed
// inline: this runs once or twice per client operation and must not
// allocate.
func KeyToken(key string) Token {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return Token(h)
}

type vnode struct {
	token Token
	node  netsim.NodeID
}

// Ring is a token ring with virtual nodes, immutable once built: a
// membership change builds a new ring over the new member set.
type Ring struct {
	vnodes []vnode
	nodes  []netsim.NodeID
}

// New builds a ring for the given nodes with vnodesPerNode virtual nodes
// each. Virtual node tokens are derived deterministically from the seed,
// so the same (nodes, vnodes, seed) triple always produces the same
// placement.
func New(nodes []netsim.NodeID, vnodesPerNode int, seed uint64) *Ring {
	if vnodesPerNode <= 0 {
		vnodesPerNode = 1
	}
	r := &Ring{nodes: append([]netsim.NodeID(nil), nodes...)}
	r.vnodes = make([]vnode, 0, len(nodes)*vnodesPerNode)
	for _, n := range nodes {
		for v := 0; v < vnodesPerNode; v++ {
			tok := Token(stats.FNVHash64(seed ^ stats.FNVHash64(uint64(n)<<20|uint64(v))))
			r.vnodes = append(r.vnodes, vnode{token: tok, node: n})
		}
	}
	// Ring order: by token, ties broken by node id.
	sort.Slice(r.vnodes, func(i, j int) bool {
		a, b := r.vnodes[i], r.vnodes[j]
		if a.token != b.token {
			return a.token < b.token
		}
		return a.node < b.node
	})
	return r
}

// Nodes returns the ring members. Callers must not mutate the slice.
func (r *Ring) Nodes() []netsim.NodeID { return r.nodes }

// search returns the index of the first vnode with token ≥ t (wrapping).
func (r *Ring) search(t Token) int {
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].token >= t })
	if i == len(r.vnodes) {
		return 0
	}
	return i
}

// walkFrom visits distinct nodes clockwise starting at vnode index start
// until visit returns false or every member has been seen. seen is
// scratch indexed by node id, at least as long as the largest member id.
func (r *Ring) walkFrom(start int, seen []bool, visit func(netsim.NodeID) bool) {
	clear(seen)
	left := len(r.nodes)
	for i := 0; i < len(r.vnodes) && left > 0; i++ {
		n := r.vnodes[(start+i)%len(r.vnodes)].node
		if seen[n] {
			continue
		}
		seen[n] = true
		left--
		if !visit(n) {
			return
		}
	}
}

// Strategy chooses the replica set of a key. Implementations must be
// deterministic: the same key always maps to the same ordered replica
// list. A strategy is immutable once built; a membership change builds a
// new one over the new member set.
type Strategy interface {
	// Replicas returns the replica nodes of key in preference order
	// (the first entry is the primary). Replicas(key) is exactly
	// ReplicasAt(KeyToken(key)).
	Replicas(key string) []netsim.NodeID
	// ReplicasAt returns the replica set of the arc containing token t,
	// in preference order. A key's placement is a function of its arc
	// alone, so one lookup answers for every key on the arc.
	ReplicasAt(t Token) []netsim.NodeID
	// Ranges returns every arc of the ring with its replica set,
	// ascending by end token with the wrapping arc first (the package
	// ordering invariant).
	Ranges() []RangePlacement
	// RF reports the total replication factor.
	RF() int
}

// A placement is built once per member set and never changes, so a
// key's replica set depends only on the vnode its token lands on. Both
// strategies therefore precompute the replica list of every start vnode
// at construction and answer Replicas with a shared table lookup: zero
// walking and zero allocation per operation. Callers must not mutate the
// returned slice.

// SimpleStrategy places replicas on the first RF distinct nodes clockwise
// from the key's token, ignoring topology. Build it with NewSimpleStrategy.
type SimpleStrategy struct {
	Ring   *Ring
	Factor int

	table [][]netsim.NodeID // per-vnode replica lists
}

// placements precomputes one replica list per start vnode. pick builds a
// list from walk, which offers visit the distinct nodes clockwise from
// that vnode one at a time; visit returns false once the list is full,
// which ends the walk.
func placements(r *Ring, pick func(walk func(visit func(netsim.NodeID) bool)) []netsim.NodeID) [][]netsim.NodeID {
	table := make([][]netsim.NodeID, len(r.vnodes))
	top := netsim.NodeID(0)
	for _, n := range r.nodes {
		top = max(top, n)
	}
	seen := make([]bool, top+1)
	for start := range r.vnodes {
		table[start] = pick(func(visit func(netsim.NodeID) bool) { r.walkFrom(start, seen, visit) })
	}
	return table
}

// NewSimpleStrategy builds the strategy with its placement table.
func NewSimpleStrategy(r *Ring, factor int) *SimpleStrategy {
	s := &SimpleStrategy{Ring: r, Factor: factor}
	s.table = placements(r, func(walk func(func(netsim.NodeID) bool)) []netsim.NodeID {
		out := make([]netsim.NodeID, 0, factor)
		walk(func(n netsim.NodeID) bool {
			if len(out) < factor {
				out = append(out, n)
			}
			return len(out) < factor
		})
		return out
	})
	return s
}

// Replicas implements Strategy.
func (s *SimpleStrategy) Replicas(key string) []netsim.NodeID {
	return s.ReplicasAt(KeyToken(key))
}

// ReplicasAt implements Strategy.
func (s *SimpleStrategy) ReplicasAt(t Token) []netsim.NodeID {
	return s.table[s.Ring.search(t)]
}

// Ranges implements Strategy.
func (s *SimpleStrategy) Ranges() []RangePlacement {
	return strategyRanges(s.Ring, s.ReplicasAt)
}

// RF implements Strategy.
func (s *SimpleStrategy) RF() int { return s.Factor }

// NetworkTopologyStrategy places a configured number of replicas in each
// datacenter: it walks the ring clockwise and takes nodes whose DC still
// has unfilled quota, Cassandra's multi-DC placement.
type NetworkTopologyStrategy struct {
	Ring   *Ring
	Topo   *netsim.Topology
	PerDC  map[string]int
	factor int
	table  [][]netsim.NodeID
}

// NewNetworkTopologyStrategy builds the strategy; perDC maps datacenter
// name to replica count.
func NewNetworkTopologyStrategy(r *Ring, topo *netsim.Topology, perDC map[string]int) *NetworkTopologyStrategy {
	total := 0
	for dc, n := range perDC {
		members := 0
		for _, id := range r.Nodes() {
			if topo.DCOf(id) == dc {
				members++
			}
		}
		if members < n {
			panic(fmt.Sprintf("ring: DC %q has fewer nodes than replicas (%d < %d)",
				dc, members, n))
		}
		total += n
	}
	s := &NetworkTopologyStrategy{Ring: r, Topo: topo, PerDC: perDC, factor: total}
	need := make(map[string]int, len(s.PerDC))
	s.table = placements(s.Ring, func(walk func(func(netsim.NodeID) bool)) []netsim.NodeID {
		for dc, n := range s.PerDC {
			need[dc] = n
		}
		out := make([]netsim.NodeID, 0, s.factor)
		walk(func(n netsim.NodeID) bool {
			if dc := s.Topo.DCOf(n); need[dc] > 0 {
				need[dc]--
				out = append(out, n)
			}
			return len(out) < s.factor
		})
		return out
	})
	return s
}

// Replicas implements Strategy.
func (s *NetworkTopologyStrategy) Replicas(key string) []netsim.NodeID {
	return s.table[s.Ring.search(KeyToken(key))]
}

// ReplicasAt implements Strategy.
func (s *NetworkTopologyStrategy) ReplicasAt(t Token) []netsim.NodeID {
	return s.table[s.Ring.search(t)]
}

// Ranges implements Strategy.
func (s *NetworkTopologyStrategy) Ranges() []RangePlacement {
	return strategyRanges(s.Ring, s.ReplicasAt)
}

// RF implements Strategy.
func (s *NetworkTopologyStrategy) RF() int { return s.factor }
