package repro

import (
	"context"
	"sync"
	"time"

	"repro/internal/kv"
)

// PutOp is one item of a multi-key batch mutation; Delete issues a
// tombstone for Key instead of storing Value.
type PutOp = kv.BatchOp

// Store-level errors surfaced through result Err fields.
var (
	// ErrTimeout: the store did not complete the operation in time.
	ErrTimeout = kv.ErrTimeout
	// ErrUnavailable: fewer live replicas than the level requires.
	ErrUnavailable = kv.ErrUnavailable
	// ErrDeadline: the per-operation deadline (WithDeadline) expired.
	ErrDeadline = kv.ErrDeadline
	// ErrCanceled: the operation's context was canceled before issue.
	ErrCanceled = kv.ErrCanceled
)

// Client is the unified, context-aware surface both backends implement:
// the simulated deployment (Sim.Client) and the live deployment
// (Live.Client) serve the identical API, so examples, tools, workload
// drivers and embedding services are written once. Blocking forms return
// when the result is in; *Async forms return a Future immediately.
// Multi-key Batch operations are coordinated as true batches in the
// store — one coordinator admission and at most one request message per
// replica per batch — not as N independent operations.
//
// Per-operation options override the session's consistency level
// (WithLevel) and bound client-visible completion time (WithDeadline).
// A canceled context fails the operation with ErrCanceled before issue;
// cancellation mid-wait returns a result carrying the context's error
// while the underlying operation completes in the store regardless.
//
// Clients are membership-transparent: operations issued across a
// Join/Decommission (Sim.Join, Live.Join, ...) route by whatever
// placement is current when the coordinator admits them, and in-flight
// operations drain on the old owners — callers never observe a
// membership change except as shifting replica sets.
type Client interface {
	Get(ctx context.Context, key string, opts ...OpOption) ReadResult
	Put(ctx context.Context, key string, value []byte, opts ...OpOption) WriteResult
	Delete(ctx context.Context, key string, opts ...OpOption) WriteResult
	BatchGet(ctx context.Context, keys []string, opts ...OpOption) []ReadResult
	BatchPut(ctx context.Context, ops []PutOp, opts ...OpOption) []WriteResult

	GetAsync(ctx context.Context, key string, opts ...OpOption) *ReadFuture
	PutAsync(ctx context.Context, key string, value []byte, opts ...OpOption) *WriteFuture
	DeleteAsync(ctx context.Context, key string, opts ...OpOption) *WriteFuture
	BatchGetAsync(ctx context.Context, keys []string, opts ...OpOption) *BatchGetFuture
	BatchPutAsync(ctx context.Context, ops []PutOp, opts ...OpOption) *BatchPutFuture

	// Run drives a YCSB-style workload through this client's session to
	// completion and returns its metrics.
	Run(w Workload, o RunOptions) (*Metrics, error)
	// Session exposes the underlying session, the seam for wrappers
	// (freshness enforcement, tracing) that predate the Client API.
	Session() Session
}

// RunOptions parameterizes Client.Run. The zero value runs 10k
// operations on 16 closed-loop threads with the workload's records
// preloaded.
type RunOptions struct {
	Ops          uint64  // operations to run; 0 means 10 000
	Threads      int     // closed-loop client threads; 0 means 16
	BatchSize    int     // >1 dispatches multi-key batches of this size
	WarmupOps    uint64  // completions ignored before measurement starts
	OpenLoopRate float64 // ops/s Poisson arrivals; 0 selects closed loop
}

// opOptions is the resolved per-operation option set.
type opOptions struct {
	level    *Level
	deadline time.Duration
}

// OpOption customizes one client operation.
type OpOption func(*opOptions)

// WithLevel overrides the session's consistency level for this
// operation (for a batch: for every item of the batch).
func WithLevel(l Level) OpOption { return func(o *opOptions) { o.level = &l } }

// WithDeadline fails the operation with ErrDeadline if the result has
// not arrived within d of issue — virtual time on the simulated
// backend, wall time live. The store may still complete the operation
// afterwards; the deadline bounds the client-visible wait only.
func WithDeadline(d time.Duration) OpOption { return func(o *opOptions) { o.deadline = d } }

func resolveOpts(opts []OpOption) opOptions {
	var o opOptions
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// Future is a pending operation result. Wait blocks until the result is
// available (on the simulated backend it advances virtual time on the
// caller's goroutine); Ready polls without blocking.
type Future[T any] struct {
	mu       sync.Mutex //repolint:allow simpure futures resolve from live-engine goroutines; the sim path never contends
	resolved bool
	res      T
	done     chan struct{} // closed by the first resolve
	be       backend       // how to wait for done
	fail     func(error) T // builds the result for cancellation paths
}

// The future types the Client API returns.
type (
	ReadFuture     = Future[ReadResult]
	WriteFuture    = Future[WriteResult]
	BatchGetFuture = Future[[]ReadResult]
	BatchPutFuture = Future[[]WriteResult]
)

// resolve publishes the result; the first resolution wins.
func (f *Future[T]) resolve(v T) {
	f.mu.Lock() //repolint:allow simpure guards cross-goroutine resolution under the live engine
	defer f.mu.Unlock()
	if f.resolved {
		return
	}
	f.resolved = true
	f.res = v
	close(f.done)
}

// Ready reports whether Wait would return immediately.
func (f *Future[T]) Ready() bool {
	f.mu.Lock() //repolint:allow simpure guards cross-goroutine resolution under the live engine
	defer f.mu.Unlock()
	return f.resolved
}

// Wait blocks until the result is available or ctx is done; on
// cancellation it returns a result carrying ctx.Err() while the store
// finishes the operation in the background. Should a simulation drain
// without resolving — impossible while the store's client-side timeout
// timer is pending, so purely a backstop — the result carries ErrTimeout.
func (f *Future[T]) Wait(ctx context.Context) T {
	if err := f.be.await(ctx, f.done); err != nil {
		return f.fail(err)
	}
	return f.res // published before done was closed
}

// failedBatchReads builds per-item failure results for a whole batch.
func failedBatchReads(keys []string, err error) []ReadResult {
	out := make([]ReadResult, len(keys))
	for i, k := range keys {
		out[i] = ReadResult{Err: err, Key: k}
	}
	return out
}

func failedBatchWrites(ops []PutOp, err error) []WriteResult {
	out := make([]WriteResult, len(ops))
	for i, op := range ops {
		out[i] = WriteResult{Err: err, Key: op.Key}
	}
	return out
}
