package pool

// A miniature of the kv message boxes (kv/messages.go): one generic
// wrapper type whose put is the acquire and whose take — copy out, zero,
// recycle — is the release. A call site names an instantiated method
// (box[msg].take), not the generic one the analyzer finds declared, and
// take returns the message, so the release stands on the right of an
// assignment or inside another call's arguments, never alone.

import "sync"

type box[T any] struct{ pool sync.Pool }

func (b *box[T]) put(v T) *T {
	p, _ := b.pool.Get().(*T)
	if p == nil {
		p = new(T)
	}
	*p = v
	return p
}

func (b *box[T]) take(p *T) T {
	v := *p
	var zero T
	*p = zero
	b.pool.Put(p)
	return v
}

var msgs box[msg]

func consume(msg) {}

// The blessed forms: copy out with take, then use only the copy. Clean.
func boxCopyOut(key string) string {
	m := msgs.put(msg{key: key})
	v := msgs.take(m)
	return v.key
}

func boxDispatch(key string) {
	m := msgs.put(msg{key: key})
	consume(msgs.take(m))
}

func boxUseAfterTake(key string) string {
	m := msgs.put(msg{key: key})
	v := msgs.take(m)
	return v.key + m.key // want `use of m after it was returned to its pool`
}

func boxDoubleTake(key string) {
	m := msgs.put(msg{key: key})
	v := msgs.take(m)
	consume(v)
	consume(msgs.take(m)) // want `m is returned to its pool twice`
}

func boxLoopTake(keys []string) {
	m := msgs.put(msg{key: "shared"})
	for range keys {
		v := msgs.take(m) // want `m is returned to its pool inside a loop without being reacquired`
		consume(v)
	}
}

// Taking a box put inside the same iteration is the per-iteration
// pattern. Clean.
func boxLoopReacquire(keys []string) {
	for _, k := range keys {
		m := msgs.put(msg{key: k})
		consume(msgs.take(m))
	}
}

// A goroutine must get the copy, not the box.
func boxGoroutine(key string) {
	m := msgs.put(msg{key: key})
	go process(m) // want `pooled m captured by a goroutine`
	consume(msgs.take(m))
}
