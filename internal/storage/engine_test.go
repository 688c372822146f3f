package storage

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func v(ts int64, seq uint64) Version {
	return Version{Timestamp: time.Duration(ts), Seq: seq}
}

func TestVersionOrdering(t *testing.T) {
	cases := []struct {
		a, b  Version
		after bool
	}{
		{v(2, 1), v(1, 9), true},
		{v(1, 9), v(2, 1), false},
		{v(1, 2), v(1, 1), true},
		{v(1, 1), v(1, 1), false},
	}
	for _, c := range cases {
		if got := c.a.After(c.b); got != c.after {
			t.Errorf("%v.After(%v) = %v", c.a, c.b, got)
		}
	}
	if v(1, 1).Compare(v(1, 1)) != 0 || v(2, 0).Compare(v(1, 0)) != 1 || v(1, 0).Compare(v(2, 0)) != -1 {
		t.Error("Compare wrong")
	}
	if !(Version{}).Zero() || v(0, 1).Zero() {
		t.Error("Zero wrong")
	}
}

func TestApplyLastWriteWins(t *testing.T) {
	e := NewMemEngine(0)
	if !e.Apply("k", Cell{Version: v(10, 1), Value: []byte("a")}) {
		t.Fatal("first apply rejected")
	}
	if e.Apply("k", Cell{Version: v(5, 2), Value: []byte("old")}) {
		t.Fatal("older write applied")
	}
	got, ok := e.Get("k")
	if !ok || string(got.Value) != "a" {
		t.Fatalf("resident cell %v", got)
	}
	if !e.Apply("k", Cell{Version: v(20, 3), Value: []byte("b")}) {
		t.Fatal("newer write rejected")
	}
	got, _ = e.Get("k")
	if string(got.Value) != "b" {
		t.Fatal("newer value not resident")
	}
	if rejected := e.Stats().Rejected; rejected != 1 {
		t.Errorf("rejected = %d", rejected)
	}
}

// TestApplyOrderIndependenceProperty: applying any permutation of a write
// set converges to the same resident version — the property hinted
// handoff and anti-entropy rely on.
func TestApplyOrderIndependenceProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	if err := quick.Check(func(seed uint64, n uint8) bool {
		count := int(n%8) + 2
		cells := make([]Cell, count)
		for i := range cells {
			cells[i] = Cell{
				Version: v(int64(i/2), uint64(i)), // include timestamp ties
				Value:   []byte(fmt.Sprintf("v%d", i)),
			}
		}
		apply := func(perm []int) Version {
			e := NewMemEngine(0)
			for _, idx := range perm {
				e.Apply("k", cells[idx])
			}
			c, _ := e.Get("k")
			return c.Version
		}
		base := make([]int, count)
		for i := range base {
			base[i] = i
		}
		want := apply(base)
		rng := rand.New(rand.NewPCG(seed, 1))
		for trial := 0; trial < 5; trial++ {
			perm := append([]int(nil), base...)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			if apply(perm) != want {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestTombstone(t *testing.T) {
	e := NewMemEngine(0)
	e.Apply("k", Cell{Version: v(1, 1), Value: []byte("x")})
	if !e.Apply("k", Cell{Version: v(2, 2), Tombstone: true}) {
		t.Fatal("delete rejected")
	}
	got, ok := e.Get("k")
	if !ok || !got.Tombstone {
		t.Fatal("tombstone not resident")
	}
	// A write newer than the tombstone resurrects the key.
	e.Apply("k", Cell{Version: v(3, 3), Value: []byte("y")})
	got, _ = e.Get("k")
	if got.Tombstone || string(got.Value) != "y" {
		t.Fatal("resurrection failed")
	}
}

func TestBytesAccounting(t *testing.T) {
	e := NewMemEngine(0)
	e.Apply("k", Cell{Version: v(1, 1), Value: make([]byte, 100)})
	if e.Bytes() != 124 {
		t.Errorf("bytes = %d", e.Bytes())
	}
	e.Apply("k", Cell{Version: v(2, 2), Value: make([]byte, 10)})
	if e.Bytes() != 34 {
		t.Errorf("bytes after overwrite = %d", e.Bytes())
	}
	e.Apply("j", Cell{Version: v(1, 3), Value: make([]byte, 6)})
	if e.Bytes() != 64 {
		t.Errorf("bytes after second key = %d", e.Bytes())
	}
}

func TestFlushAccounting(t *testing.T) {
	e := NewMemEngine(100)
	for i := 0; i < 10; i++ {
		e.Apply(fmt.Sprintf("k%d", i), Cell{Version: v(1, uint64(i+1)), Value: make([]byte, 40)})
	}
	st := e.Stats()
	if st.Flushes == 0 {
		t.Error("no flushes despite exceeding the limit")
	}
	if st.FlushedBytes == 0 {
		t.Error("flushed bytes not accounted")
	}
}

func TestKeyListInsertionOrder(t *testing.T) {
	e := NewMemEngine(0)
	keys := []string{"c", "a", "b"}
	for i, k := range keys {
		e.Apply(k, Cell{Version: v(1, uint64(i+1))})
	}
	e.Apply("a", Cell{Version: v(2, 4)}) // re-apply must not duplicate
	if e.KeyCount() != 3 {
		t.Fatalf("key count = %d", e.KeyCount())
	}
	for i, k := range keys {
		if e.KeyAt(i) != k {
			t.Errorf("KeyAt(%d) = %s, want %s", i, e.KeyAt(i), k)
		}
	}
	if got := fmt.Sprint(drainKeys(e.SnapshotRanges(fullRing))); got != "[a b c]" {
		t.Errorf("full-ring snapshot keys = %s", got)
	}
}

// drainKeys lists the keys a snapshot yields, in its order.
func drainKeys(it SnapshotIter) []string {
	var keys []string
	for _, ent := range drain(it) {
		keys = append(keys, ent.key)
	}
	return keys
}

// TestKeysIncrementalSort pins the sorted order of full-ring snapshots
// as the key set grows: interleaved inserts and SnapshotRanges calls
// must always see the full sorted key set, after the first keys, after
// a repeat call with no new keys, and after inserts that land before,
// between and after the keys already held.
func TestKeysIncrementalSort(t *testing.T) {
	e := NewMemEngine(0)
	var want []string
	seq := uint64(0)
	insert := func(keys ...string) {
		for _, k := range keys {
			seq++
			e.Apply(k, Cell{Version: v(1, seq)})
			want = append(want, k)
		}
	}
	check := func() {
		t.Helper()
		sorted := append([]string(nil), want...)
		sort.Strings(sorted)
		if got := drainKeys(e.SnapshotRanges(fullRing)); !slices.Equal(got, sorted) {
			t.Fatalf("snapshot keys = %v, want %v", got, sorted)
		}
	}
	insert("m", "c", "x")
	check()
	check() // no new keys
	insert("a", "q")
	e.Apply("c", Cell{Version: v(2, 99)}) // overwrite: no new key
	check()
	insert("b")
	check()
}

func TestPeekDoesNotCountAsRead(t *testing.T) {
	e := NewMemEngine(0)
	e.Apply("k", Cell{Version: v(1, 1)})
	e.Peek("k")
	if reads := e.Stats().Reads; reads != 0 {
		t.Errorf("peek counted as read: %d", reads)
	}
	e.Get("k")
	if reads := e.Stats().Reads; reads != 1 {
		t.Errorf("get not counted: %d", reads)
	}
}
