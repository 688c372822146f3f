// Package timerorder covers the scheduler and transport entry points
// beyond Schedule, ScheduleCall and Send: each of SendLocal, ScheduleAt
// and ScheduleStopCall consumes an engine sequence number exactly like
// Schedule, so arming timers from a map range makes map order the firing
// order among equal deadlines.
package timerorder

import "sort"

type timer struct{}

type transport struct{}

func (transport) SendLocal(id int, payload any, delay int)                     {}
func (transport) ScheduleAt(t int, fn func()) timer                            { return timer{} }
func (transport) ScheduleStopCall(d int, cb func(uint64, any), a uint64) timer { return timer{} }

// tickUnsorted arms one self-message per node straight from a map range.
func tickUnsorted(tr transport, nodes map[int]string) {
	for id, name := range nodes {
		tr.SendLocal(id, name, 10) // want `map iteration drives`
	}
}

// deadlinesUnsorted arms absolute-time events in map order.
func deadlinesUnsorted(tr transport, deadlines map[int]func()) {
	for at, fn := range deadlines {
		tr.ScheduleAt(at, fn) // want `map iteration drives`
	}
}

// guardsUnsorted arms the cancelable pre-bound-callback timers in map
// order; the handles end up keyed, but the sequence numbers are spent.
func guardsUnsorted(tr transport, ops map[uint64]int, cb func(uint64, any)) map[uint64]timer {
	guards := make(map[uint64]timer, len(ops))
	for op, d := range ops {
		guards[op] = tr.ScheduleStopCall(d, cb, op) // want `map iteration drives`
	}
	return guards
}

// tickSorted is the blessed shape: the map range only collects, the
// arming loop ranges over the sorted ids.
func tickSorted(tr transport, nodes map[int]string) {
	ids := make([]int, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		tr.SendLocal(id, nodes[id], 10)
	}
}
