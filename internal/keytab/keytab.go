// Package keytab is the per-key table the store keeps its per-key state
// in: values under string keys, held densely in first-insertion order
// behind one open-addressed index. The mem storage engine keeps its cells
// in one, the staleness oracle its per-key ledgers.
//
// The index is slots []int32, each holding an entry's index + 1 (0 marks
// an empty slot). The slot count is a power of two of at least twice the
// entries, so every probe ends at an empty slot; a key's home slot is the
// low bits of its hash, with linear probing past collisions. Each entry
// keeps its hash, so growing the index never hashes a key again. Keys are
// never removed: an id, once given, names its key for the table's life.
//
// Nothing walks the slots in order (iteration is over ids, which is
// insertion order), so the random hash seed reaches no output.
package keytab

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
)

// seed keys the hash of every table in the process.
var seed = maphash.MakeSeed()

// Table maps string keys to dense ids and a value of type V each. The
// zero value is an empty table.
type Table[V any] struct {
	entries []entry[V]
	slots   []int32
}

type entry[V any] struct {
	hash uint64
	key  string
	val  V
}

// Len reports the number of keys, whose ids are 0..Len()-1.
func (t *Table[V]) Len() int { return len(t.entries) }

// Key returns the key of id.
func (t *Table[V]) Key(id int) string { return t.entries[id].key }

// Val returns the value of id. The pointer is valid until the next
// Insert or Reserve.
func (t *Table[V]) Val(id int) *V { return &t.entries[id].val }

// Find returns key's id.
func (t *Table[V]) Find(key string) (int, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	_, s := t.probe(key)
	return int(t.slots[s]) - 1, t.slots[s] != 0
}

// Insert returns key's id, found reporting that key was already there.
// A new key gets the next id with a zero value, in the empty slot its
// probe ended at: one probe either way.
func (t *Table[V]) Insert(key string) (id int, found bool) {
	if 2*(len(t.entries)+1) > len(t.slots) {
		t.index(2 * (len(t.entries) + 1))
	}
	h, s := t.probe(key)
	if t.slots[s] != 0 {
		return int(t.slots[s]) - 1, true
	}
	t.entries = append(t.entries, entry[V]{hash: h, key: key})
	t.slots[s] = int32(len(t.entries))
	return len(t.entries) - 1, false
}

// probe hashes key and walks its probe sequence to the slot holding key
// or to the empty slot that ends it.
func (t *Table[V]) probe(key string) (h, s uint64) {
	h = maphash.String(seed, key)
	mask := uint64(len(t.slots) - 1)
	for s = h & mask; t.slots[s] != 0; s = (s + 1) & mask {
		if e := &t.entries[t.slots[s]-1]; e.hash == h && e.key == key {
			break
		}
	}
	return h, s
}

// Reserve makes room for n more keys: the entries and the index grow at
// most once here, and not again until they hold them.
func (t *Table[V]) Reserve(n int) {
	t.entries = slices.Grow(t.entries, n)
	if want := 2 * (len(t.entries) + n); want > len(t.slots) {
		t.index(want)
	}
}

// Reset empties the table and releases its memory.
func (t *Table[V]) Reset() { *t = Table[V]{} }

// index rebuilds the slots at the smallest power of two of at least n
// (and 8), placing every entry by its kept hash.
func (t *Table[V]) index(n int) {
	t.slots = make([]int32, 1<<bits.Len(uint(max(n, 8)-1)))
	mask := uint64(len(t.slots) - 1)
	for i := range t.entries {
		s := t.entries[i].hash & mask
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = int32(i + 1)
	}
}

// Verify checks the table's invariants, for tests: a power-of-two slot
// count of at least twice the entries, each entry's kept hash current,
// no key twice, one slot per entry, and every entry reached by the probe
// from its home slot.
func (t *Table[V]) Verify() error {
	n := len(t.slots)
	if n == 0 {
		if len(t.entries) != 0 {
			return fmt.Errorf("%d entries and no index", len(t.entries))
		}
		return nil
	}
	if n&(n-1) != 0 || n < 2*len(t.entries) {
		return fmt.Errorf("%d slots for %d entries", n, len(t.entries))
	}
	used := 0
	for _, i := range t.slots {
		if i < 0 || int(i) > len(t.entries) {
			return fmt.Errorf("slot holds %d of %d entries", i, len(t.entries))
		}
		if i != 0 {
			used++
		}
	}
	if used != len(t.entries) {
		return fmt.Errorf("%d slots used for %d entries", used, len(t.entries))
	}
	mask := uint64(n - 1)
	for id := range t.entries {
		e := &t.entries[id]
		if e.hash != maphash.String(seed, e.key) {
			return fmt.Errorf("entry %d (%q): stale hash", id, e.key)
		}
		s := e.hash & mask
		for ; t.slots[s] != int32(id+1); s = (s + 1) & mask {
			if t.slots[s] == 0 {
				return fmt.Errorf("entry %d (%q) not reached from its home slot", id, e.key)
			}
			if o := &t.entries[t.slots[s]-1]; o.key == e.key {
				return fmt.Errorf("key %q at entries %d and %d", e.key, t.slots[s]-1, id)
			}
		}
	}
	return nil
}
