package kv

import (
	"time"

	"repro/internal/storage"
)

// Hooks receive instrumentation callbacks from the store. All fields are
// optional; nil fields are skipped. The Harmony monitoring module is a
// Hooks consumer — it sees exactly what a Cassandra-side agent could see
// (request streams and acknowledgement timings), never the oracle's
// ground truth. A multi-key batch fires the per-operation hooks once per
// item.
type Hooks struct {
	// ReadStarted fires when a coordinator admits a read.
	ReadStarted func(now time.Duration, key string)
	// ReadCompleted fires when the client-visible read finishes.
	ReadCompleted func(now time.Duration, res ReadResult)
	// WriteStarted fires when a coordinator accepts a write.
	WriteStarted func(now time.Duration, key string, v storage.Version, replicas int)
	// WriteAck fires for every replica acknowledgement of a write,
	// including those arriving after the blocked-for level was
	// satisfied. rank is the 1-based arrival order and delay the time
	// since the write was accepted — the monitor's propagation signal.
	WriteAck func(now time.Duration, key string, rank int, delay time.Duration)
	// WriteCompleted fires when the client-visible write finishes.
	WriteCompleted func(now time.Duration, res WriteResult)
}

// hookSet fans callbacks out to registered hooks.
type hookSet []*Hooks

func (hs hookSet) readStarted(now time.Duration, key string) {
	for _, h := range hs {
		if h.ReadStarted != nil {
			h.ReadStarted(now, key)
		}
	}
}

func (hs hookSet) readCompleted(now time.Duration, res ReadResult) {
	for _, h := range hs {
		if h.ReadCompleted != nil {
			h.ReadCompleted(now, res)
		}
	}
}

func (hs hookSet) writeStarted(now time.Duration, key string, v storage.Version, replicas int) {
	for _, h := range hs {
		if h.WriteStarted != nil {
			h.WriteStarted(now, key, v, replicas)
		}
	}
}

func (hs hookSet) writeAck(now time.Duration, key string, rank int, delay time.Duration) {
	for _, h := range hs {
		if h.WriteAck != nil {
			h.WriteAck(now, key, rank, delay)
		}
	}
}

func (hs hookSet) writeCompleted(now time.Duration, res WriteResult) {
	for _, h := range hs {
		if h.WriteCompleted != nil {
			h.WriteCompleted(now, res)
		}
	}
}
