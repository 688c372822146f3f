package pool

type holder struct{ last *msg }

// Round trip: acquire, fill, release once. Clean.
func roundTrip(key string) {
	m := newMsg(key)
	m.val = append(m.val[:0], key...)
	releaseMsg(m)
}

func useAfterRelease(key string) string {
	m := newMsg(key)
	releaseMsg(m)
	return m.key // want `use of m after it was returned to its pool`
}

func doubleRelease(key string) {
	m := newMsg(key)
	releaseMsg(m)
	releaseMsg(m) // want `m is returned to its pool twice`
}

func deferredDouble(key string) {
	m := newMsg(key)
	defer releaseMsg(m)
	releaseMsg(m) // want `m is returned to its pool twice`
}

func deferAfterRelease(key string) {
	m := newMsg(key)
	releaseMsg(m)
	defer releaseMsg(m) // want `deferred release duplicates an earlier one`
}

func storeThenRelease(h *holder, key string) {
	m := newMsg(key)
	h.last = m
	releaseMsg(m) // want `m was stored in h\.last and is now returned to its pool`
}

// Storing without releasing is a legal ownership transfer: the holder
// now owns the box and releases it later.
func stash(h *holder, key string) {
	h.last = newMsg(key)
}

func goroutineCapture(key string) {
	m := newMsg(key)
	go process(m) // want `pooled m captured by a goroutine`
	releaseMsg(m)
}

func process(*msg) {}

func loopRelease(keys []string) {
	m := newMsg("shared")
	for range keys {
		releaseMsg(m) // want `m is returned to its pool inside a loop without being reacquired`
	}
}

// Reacquiring inside the loop is the correct per-iteration pattern.
func loopReacquire(keys []string) {
	for _, k := range keys {
		m := newMsg(k)
		releaseMsg(m)
	}
}

// A branch that releases and returns leaves the fall-through path clean.
func branchRelease(key string, early bool) {
	m := newMsg(key)
	if early {
		releaseMsg(m)
		return
	}
	m.val = nil
	releaseMsg(m)
}

// A may-release branch poisons later uses: on the true path the box is
// already back in the pool when the read runs.
func mayRelease(key string, early bool) string {
	m := newMsg(key)
	if early {
		releaseMsg(m)
	}
	return m.key // want `use of m after it was returned to its pool`
}

// Returning an acquired box hands ownership to the caller. Clean.
func handoff(key string) *msg {
	return newMsg(key)
}

// Handing a box to a slice that keeps it is no release either. Clean.
func registerThenUse(key string) string {
	m := newMsg(key)
	register(m)
	return m.key
}
