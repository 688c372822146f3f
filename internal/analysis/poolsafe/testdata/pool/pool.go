// Package pool exercises the poolsafe lifecycle rules against a
// miniature of the kv free lists: an acquire wrapper (newMsg) that pops
// a box off a free list and a release wrapper (releaseMsg) that resets a
// box and pushes it back, both discovered by the analyzer rather than
// hard-coded.
package pool

type msg struct {
	key string
	val []byte
}

var freeMsgs []*msg

func newMsg(key string) *msg {
	var m *msg
	if n := len(freeMsgs) - 1; n >= 0 {
		m = freeMsgs[n]
		freeMsgs = freeMsgs[:n]
	} else {
		m = new(msg)
	}
	m.key = key
	return m
}

func releaseMsg(m *msg) {
	*m = msg{}
	freeMsgs = append(freeMsgs, m)
}

// register appends without resetting: an ownership transfer into a
// slice of pointers, not a release.
var registry []*msg

func register(m *msg) { registry = append(registry, m) }
