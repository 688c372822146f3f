package repro

import (
	"context"
	"fmt"
	"time"

	"repro/internal/live"
)

// Live is a deployment of the same store over wall-clock time and
// goroutines — the middleware running for real rather than simulated.
// Its session, client, membership and introspection methods are the
// embedded core's, shared with Sim; here they take the engine lock, so
// they and the clients they return are safe from many goroutines.
type Live struct {
	deployment
	Engine *live.Engine
}

// NewLive builds a live deployment on topo. latencyScale compresses the
// topology's latencies (0.1 runs a WAN topology ten times faster); pass 1
// for real latencies.
func NewLive(topo *Topology, cfg Config, latencyScale float64) *Live {
	eng := live.New(topo, cfg.Seed)
	if latencyScale > 0 {
		eng.Scale = latencyScale
	}
	return &Live{deployment: build(topo, cfg, eng, liveBackend{eng}), Engine: eng}
}

// Close stops the engine (outstanding timers become no-ops) and closes
// the cluster's storage, reporting the first error a file-backed WAL gave.
func (l *Live) Close() (err error) {
	l.Engine.Close()
	l.Engine.Do(func() { err = l.Cluster.Close() })
	return err
}

// liveBackend runs a deployment on the wall-clock engine; Do is the engine's.
type liveBackend struct{ *live.Engine }

func (liveBackend) await(ctx context.Context, done <-chan struct{}) error {
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// deadline deliberately bypasses the engine (whose timers are compressed
// by the latency scale): a client deadline is a promise in real time, and
// resolving a future touches no cluster state, so it needs no engine lock.
func (liveBackend) deadline(d time.Duration, fail func()) {
	time.AfterFunc(d, fail) //repolint:allow determinism live client deadlines are wall-clock promises, deliberately unscaled
}

func (liveBackend) awaitRun(done <-chan struct{}) error {
	select {
	case <-done:
		return nil
	case <-time.After(10 * time.Minute): //repolint:allow determinism live-mode watchdog; the sim backend never reaches this select
		return fmt.Errorf("repro: live workload did not finish within 10 minutes")
	}
}
