package storage

import (
	"slices"
	"sort"

	"repro/internal/ring"
)

// keyIndex tracks the first-insertion order of keys (deterministic
// sampling) plus an incrementally maintained sorted view, shared by both
// engines. Each key's ring token is learned at insertion, so
// range-restricted snapshots (SnapshotRanges) filter by token without
// rehashing the keyspace. The sorted view holds the first sortedN keys
// of list in sorted order; newer insertions are merged in on demand
// instead of re-sorting the whole set.
type keyIndex struct {
	list    []string
	toks    []ring.Token // toks[i] == ring.KeyToken(list[i])
	sorted  []string
	stoks   []ring.Token // parallel to sorted
	sortedN int
}

// add appends a first-seen key; tok must be ring.KeyToken(k).
func (x *keyIndex) add(k string, tok ring.Token) {
	x.list = append(x.list, k)
	x.toks = append(x.toks, tok)
}

// reserve makes room for n more keys without further growth.
func (x *keyIndex) reserve(n int) {
	x.list = slices.Grow(x.list, n)
	x.toks = slices.Grow(x.toks, n)
}

func (x *keyIndex) count() int { return len(x.list) }

func (x *keyIndex) at(i int) string { return x.list[i] }

func (x *keyIndex) reset() { *x = keyIndex{} }

// sortedKeys returns all keys in sorted order. Only keys inserted since
// the last call are sorted (O(k log k)) and merged into the cache (O(n)),
// so repeated calls on a stable store cost nothing. Callers must not
// mutate the returned slice.
func (x *keyIndex) sortedKeys() []string {
	keys, _ := x.sortedView()
	return keys
}

// sortedView returns all keys in sorted order with their ring tokens in
// a parallel slice. Callers must not mutate either slice.
func (x *keyIndex) sortedView() ([]string, []ring.Token) {
	if x.sortedN == len(x.list) {
		return x.sorted, x.stoks
	}
	n := len(x.list) - x.sortedN
	order := make([]int, n)
	for i := range order {
		order[i] = x.sortedN + i
	}
	sort.Slice(order, func(i, j int) bool { return x.list[order[i]] < x.list[order[j]] })
	freshK := make([]string, n)
	freshT := make([]ring.Token, n)
	for i, idx := range order {
		freshK[i] = x.list[idx]
		freshT[i] = x.toks[idx]
	}
	if len(x.sorted) == 0 {
		x.sorted, x.stoks = freshK, freshT
	} else {
		x.sorted, x.stoks = mergeSorted(x.sorted, x.stoks, freshK, freshT)
	}
	x.sortedN = len(x.list)
	return x.sorted, x.stoks
}

// mergeSorted merges two sorted, duplicate-free key slices along with
// their parallel token slices.
func mergeSorted(a []string, at []ring.Token, b []string, bt []ring.Token) ([]string, []ring.Token) {
	out := make([]string, 0, len(a)+len(b))
	outT := make([]ring.Token, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out, outT = append(out, a[i]), append(outT, at[i])
			i++
		} else {
			out, outT = append(out, b[j]), append(outT, bt[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	outT = append(outT, at[i:]...)
	return append(out, b[j:]...), append(outT, bt[j:]...)
}

// scanSorted drives an Engine.Scan over a sorted key view using peek for
// cell lookup (shared by both engines).
func scanSorted(keys []string, from, to string, peek func(string) (Cell, bool), fn func(string, Cell) bool) {
	i := 0
	if from != "" {
		i = sort.SearchStrings(keys, from)
	}
	for ; i < len(keys); i++ {
		k := keys[i]
		if to != "" && k >= to {
			return
		}
		if c, ok := peek(k); ok {
			if !fn(k, c) {
				return
			}
		}
	}
}
