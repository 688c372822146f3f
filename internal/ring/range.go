// Token ranges: first-class arcs of the hash ring. Ownership and
// membership-change deltas are expressed as ranges so that join and
// decommission streams (and any future repair) can address exactly the
// moved fraction of the keyspace instead of filtering a full store walk
// per key.
//
// Ordering invariant: every range list produced here — Ranges, Diff,
// RangePlacement lists — is sorted ascending by end token with the
// single wrapping arc (if any) first. Consumers iterate ranges in that
// sorted token order; iterating a map of ranges would leak map order
// into stream order and break transcript determinism (repolint's
// determinism analyzer flags that shape).
package ring

import (
	"sort"

	"repro/internal/netsim"
)

// Range is one arc of the token ring: the half-open interval
// (Start, End] in clockwise token order. End < Start means the arc
// wraps through token 0; Start == End covers the whole ring (the only
// arc of a single-vnode ring).
type Range struct {
	Start, End Token
}

// Contains reports whether t lies on the arc.
func (r Range) Contains(t Token) bool {
	if r.Start < r.End {
		return t > r.Start && t <= r.End
	}
	// Wrapping (or full-ring) arc: past Start, or up to End after 0.
	return t > r.Start || t <= r.End
}

// Wraps reports whether the arc crosses token 0 (the full-ring arc
// counts as wrapping).
func (r Range) Wraps() bool { return r.Start >= r.End }

// RangesContain reports whether t lies in any of the ranges. The list
// must follow the package ordering invariant: ascending by End,
// mutually disjoint, at most one wrapping arc and that one first — the
// shape Ranges and Diff produce — so a binary search on End plus a
// wrap check on the first element decides membership.
func RangesContain(rs []Range, t Token) bool {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].End >= t })
	if i < len(rs) && rs[i].Contains(t) {
		return true
	}
	return len(rs) > 0 && rs[0].Wraps() && rs[0].Contains(t)
}

// arcs returns the distinct arc boundaries of the ring ascending, with
// the primary owner of each boundary's arc. Vnodes tied on a token
// collapse into one boundary owned by the lowest node id (ring order):
// the later duplicates own empty arcs, which are no arcs.
func (r *Ring) arcs() (bounds []Token, owners []netsim.NodeID) {
	bounds = make([]Token, 0, len(r.vnodes))
	owners = make([]netsim.NodeID, 0, len(r.vnodes))
	for i := range r.vnodes {
		if i > 0 && r.vnodes[i].token == r.vnodes[i-1].token {
			continue
		}
		bounds = append(bounds, r.vnodes[i].token)
		owners = append(owners, r.vnodes[i].node)
	}
	return bounds, owners
}

// Ranges returns the arcs primarily owned by id: for each of id's
// distinct vnode tokens t, the arc from the previous distinct boundary
// (exclusive) to t (inclusive). Sorted ascending by End, wrapping arc
// first; a single-vnode ring yields the full-ring arc Start == End.
func (r *Ring) Ranges(id netsim.NodeID) []Range {
	bounds, owners := r.arcs()
	var out []Range
	for j, tok := range bounds {
		if owners[j] != id {
			continue
		}
		prev := bounds[(j-1+len(bounds))%len(bounds)]
		out = append(out, Range{Start: prev, End: tok})
	}
	return out
}

// RangePlacement is one arc with its replica set.
type RangePlacement struct {
	Range    Range
	Replicas []netsim.NodeID
}

// strategyRanges decomposes a ring into its arcs and attaches each
// arc's replica set via at (which must answer for any token on the
// arc; the end token is the representative).
func strategyRanges(r *Ring, at func(Token) []netsim.NodeID) []RangePlacement {
	bounds, _ := r.arcs()
	out := make([]RangePlacement, 0, len(bounds))
	for j, tok := range bounds {
		prev := bounds[(j-1+len(bounds))%len(bounds)]
		out = append(out, RangePlacement{
			Range:    Range{Start: prev, End: tok},
			Replicas: at(tok),
		})
	}
	return out
}

// Movement is one arc whose replica set changes under a membership
// change: the keys on Range move from the Old replica set to the New
// one. Old and New are in preference order; callers must not mutate
// them (they alias placement tables).
type Movement struct {
	Range Range
	Old   []netsim.NodeID
	New   []netsim.NodeID
}

func nodesEqual(a, b []netsim.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Diff returns exactly the movements the membership change from old to
// next implies: the arcs whose replica sets differ, each with its
// before and after sets. The two rings' boundary tokens are merged, so
// every returned sub-arc has a single replica set under each placement
// and Old/New describe all of its keys at once. Adjacent sub-arcs with
// identical movements coalesce. Output follows the package ordering
// invariant (ascending by End, wrapping arc first).
func Diff(old, next Strategy) []Movement {
	op, np := old.Ranges(), next.Ranges()
	// A side with no ring contributes no boundaries: every arc of the
	// other side moves wholesale.
	if len(op) == 0 && len(np) == 0 {
		return nil
	}
	if len(op) == 0 {
		out := make([]Movement, 0, len(np))
		for _, rp := range np {
			out = append(out, Movement{Range: rp.Range, New: rp.Replicas})
		}
		return out
	}
	if len(np) == 0 {
		out := make([]Movement, 0, len(op))
		for _, rp := range op {
			out = append(out, Movement{Range: rp.Range, Old: rp.Replicas})
		}
		return out
	}

	bounds := make([]Token, 0, len(op)+len(np))
	for _, rp := range op {
		bounds = append(bounds, rp.Range.End)
	}
	for _, rp := range np {
		bounds = append(bounds, rp.Range.End)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	dedup := bounds[:0]
	for i, t := range bounds {
		if i == 0 || t != bounds[i-1] {
			dedup = append(dedup, t)
		}
	}
	bounds = dedup

	var out []Movement
	for j, tok := range bounds {
		co, cn := old.ReplicasAt(tok), next.ReplicasAt(tok)
		if nodesEqual(co, cn) {
			continue
		}
		prev := bounds[(j-1+len(bounds))%len(bounds)]
		mv := Movement{Range: Range{Start: prev, End: tok}, Old: co, New: cn}
		if n := len(out); n > 0 && out[n-1].Range.End == mv.Range.Start &&
			nodesEqual(out[n-1].Old, mv.Old) && nodesEqual(out[n-1].New, mv.New) {
			out[n-1].Range.End = mv.Range.End
			continue
		}
		out = append(out, mv)
	}
	return out
}
