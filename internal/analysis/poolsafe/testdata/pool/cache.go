package pool

// A miniature of the coordinator read cache, built the way PR 8
// deliberately did NOT build it: with pooled entries. The real cache
// (kv/hotcache.go) stores plain values in its map precisely because a
// pooled entry has every lifecycle hazard below — a served reference
// outliving an invalidation, an invalidation racing a drop-all, a fill
// recycling a box the map still points to. These cases pin that the
// analyzer would catch each of them if entries ever became pooled.

type entry struct {
	key string
	val []byte
	seq uint64
}

var freeEntries []*entry

func newEntry(key string) *entry {
	var e *entry
	if n := len(freeEntries) - 1; n >= 0 {
		e = freeEntries[n]
		freeEntries = freeEntries[:n]
	} else {
		e = new(entry)
	}
	e.key = key
	return e
}

func releaseEntry(e *entry) {
	*e = entry{}
	freeEntries = append(freeEntries, e)
}

type cache struct {
	entries map[string]*entry
}

// fill hands the freshly acquired entry to the map: a legal ownership
// transfer, the cache releases it at invalidation time. Clean.
func (c *cache) fill(key string, val []byte, seq uint64) {
	e := newEntry(key)
	e.val = val
	e.seq = seq
	c.entries[key] = e
}

// fillThenRelease recycles the box the map still points at: the next
// fill of ANY key hands out the same memory and the stale alias serves
// another key's value.
func (c *cache) fillThenRelease(key string, val []byte) {
	e := newEntry(key)
	e.val = val
	c.entries[key] = e
	releaseEntry(e) // want `e was stored in c\.entries\[\.\.\.\] and is now returned to its pool`
}

// serveAfterInvalidate reads the value out of a box already back in the
// pool — the classic serve/invalidate race collapsed into one function.
func serveAfterInvalidate(key string) []byte {
	e := newEntry(key)
	releaseEntry(e)
	return e.val // want `use of e after it was returned to its pool`
}

// invalidateTwice models a write invalidation racing a ring-change
// drop-all: both paths release the same box.
func invalidateTwice(key string) {
	e := newEntry(key)
	releaseEntry(e)
	releaseEntry(e) // want `e is returned to its pool twice`
}

// mayInvalidate poisons the serve path: on the invalidated branch the
// box is already recycled when the read runs.
func mayInvalidate(key string, stale bool) []byte {
	e := newEntry(key)
	if stale {
		releaseEntry(e)
	}
	return e.val // want `use of e after it was returned to its pool`
}

// dropAll releases each entry exactly once per iteration because each
// iteration rebinds the range variable. Clean.
func (c *cache) dropAll() {
	for k, e := range c.entries {
		delete(c.entries, k)
		releaseEntry(e)
	}
}

// asyncFill captures a pooled box in a goroutine: the fill callback may
// run after an invalidation recycled the box.
func (c *cache) asyncFill(key string, apply func(*entry)) {
	e := newEntry(key)
	go apply(e) // want `pooled e captured by a goroutine`
	releaseEntry(e)
}
