// Package syncuse exercises the sync rule: the single-goroutine sim
// needs no locking, and no sync.Pool either.
package syncuse

import (
	"sync"
	"sync/atomic"
)

var mu sync.Mutex // want `sync\.Mutex in deterministic sim package`

var count atomic.Int64 // want `sync/atomic\.Int64 in deterministic sim package`

func bump() {
	mu.Lock()    // want `sync\.Lock in deterministic sim package`
	count.Add(1) // want `sync/atomic\.Add in deterministic sim package`
	mu.Unlock()  // want `sync\.Unlock in deterministic sim package`
}

type box struct{ n int }

var boxes = sync.Pool{New: func() any { return new(box) }} // want `sync\.Pool in deterministic sim package` `sync\.New in deterministic sim package`

// A sim package recycles through its own free lists; sync.Pool is a
// sync primitive like any other.
func roundTrip() {
	b := boxes.Get().(*box) // want `sync\.Get in deterministic sim package`
	b.n++
	boxes.Put(b) // want `sync\.Put in deterministic sim package`
}
