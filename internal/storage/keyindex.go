package storage

import (
	"slices"

	"repro/internal/ring"
)

// keyIndex tracks the first-insertion order of keys (deterministic
// sampling), shared by both engines. Each key's ring token is learned at
// insertion, so range-restricted snapshots (SnapshotRanges) filter by
// token without rehashing the keyspace.
type keyIndex struct {
	list []string
	toks []ring.Token // toks[i] == ring.KeyToken(list[i])
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
