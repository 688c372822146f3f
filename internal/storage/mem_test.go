package storage

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ring"
)

// memModel is the mem engine as a Go map plus the first-insertion order
// of its keys: the reference FuzzMemEngine holds MemEngine to.
type memModel struct {
	cells      map[string]Cell
	order      []string
	stats      Stats
	mem, total int64
	limit      int64
	crashed    bool
}

func (m *memModel) apply(key string, c Cell) bool {
	m.stats.Writes++
	old, ok := m.cells[key]
	if ok && !c.Version.After(old.Version) {
		m.stats.Rejected++
		return false
	}
	if !ok {
		m.order = append(m.order, key)
	}
	m.cells[key] = c
	m.total += int64(c.Size())
	if ok {
		m.total -= int64(old.Size())
	}
	m.mem += int64(c.Size())
	if m.limit > 0 && m.mem >= m.limit {
		m.stats.Flushes++
		m.stats.FlushedBytes += uint64(m.mem)
		m.mem = 0
	}
	return true
}

// FuzzMemEngine drives MemEngine and memModel with the same calls. The
// first byte sets the flush limit (0 disables it); each later byte picks
// Apply, ApplyAt, Get, Reserve, Crash or Recover and the bytes after it
// the arguments: one of 24 keys and a version whose timestamp and
// sequence collide often, so replacements, refusals and equal versions
// all occur. After every call the results, every key's cell, KeyAt order,
// Stats and Bytes must match the model and the table's index invariants
// must hold; at the end every key must be filed under its ring token.
func FuzzMemEngine(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 0, 1, 1, 2, 2, 3, 1, 4, 2, 1, 3, 0, 1})
	f.Add([]byte{90, 3, 40, 0, 5, 9, 9, 2, 5, 1, 1, 5, 6, 0, 5, 2, 2, 3, 3, 3, 5})
	f.Add([]byte{200, 0, 1, 1, 1, 0, 2, 1, 1, 4, 200, 0, 3, 2, 2, 1, 9, 9, 9, 5, 6, 1, 3, 4, 5})
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%02d", i)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		limit := int64(data[0])
		data = data[1:]
		e := NewMemEngine(limit)
		m := &memModel{cells: map[string]Cell{}, limit: limit}
		arg := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		for step := 0; len(data) > 0; step++ {
			switch op := arg() % 7; op {
			case 0, 1, 2:
				key, b := keys[arg()%len(keys)], arg()
				c := Cell{Version: Version{Timestamp: time.Duration(b % 8), Seq: uint64(b / 8 % 4)}, Value: []byte(key[:b%6])}
				var got bool
				if op == 2 {
					got = e.ApplyAt(key, ring.KeyToken(key), c)
				} else {
					got = e.Apply(key, c)
				}
				if want := m.apply(key, c); got != want {
					t.Fatalf("step %d: apply(%s, %v) = %v, want %v", step, key, c.Version, got, want)
				}
			case 3:
				key := keys[arg()%len(keys)]
				c, ok := e.Get(key)
				m.stats.Reads++
				if w, wok := m.cells[key]; ok != wok || fmt.Sprint(c) != fmt.Sprint(w) {
					t.Fatalf("step %d: Get(%s) = %v %v, want %v %v", step, key, c, ok, w, wok)
				}
			case 4:
				e.Reserve(arg())
			case 5:
				e.Crash()
				m.stats.Crashes++
				m.cells, m.order, m.mem, m.total, m.crashed = map[string]Cell{}, nil, 0, 0, true
			case 6:
				e.Recover()
				if m.crashed {
					m.stats.Replays++
					m.crashed = false
				}
			}
			if err := e.cells.Verify(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if e.Stats() != m.stats || e.Bytes() != m.total || e.KeyCount() != len(m.order) {
				t.Fatalf("step %d: stats %+v bytes %d keys %d, want %+v %d %d",
					step, e.Stats(), e.Bytes(), e.KeyCount(), m.stats, m.total, len(m.order))
			}
			for i, key := range m.order {
				if e.KeyAt(i) != key {
					t.Fatalf("step %d: KeyAt(%d) = %s, want %s", step, i, e.KeyAt(i), key)
				}
				if c, ok := e.Peek(key); !ok || fmt.Sprint(c) != fmt.Sprint(m.cells[key]) {
					t.Fatalf("step %d: Peek(%s) = %v %v, want %v", step, key, c, ok, m.cells[key])
				}
			}
		}
		for _, key := range m.order {
			tok := ring.KeyToken(key)
			k, _, ok := e.SnapshotRanges([]ring.Range{{Start: tok - 1, End: tok}}).Next()
			if !ok || k != key {
				t.Fatalf("snapshot of %s's token streamed %q %v", key, k, ok)
			}
		}
	})
}
