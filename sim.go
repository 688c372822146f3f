package repro

import (
	"context"
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Sim is a fully wired simulated deployment: a deterministic
// discrete-event engine, a cluster of store nodes over a modeled network,
// and the Harmony monitoring module. All interaction happens in virtual
// time; runs with the same seed are bit-reproducible. It is
// single-threaded: blocking client calls and Future.Wait advance virtual
// time on the caller's goroutine. Its session, client, membership and
// introspection methods are the embedded core's, shared with Live.
type Sim struct {
	deployment
	Engine    *sim.Engine
	Transport *netsim.Transport
}

// NewSim builds a simulated deployment on topo.
func NewSim(topo *Topology, cfg Config) *Sim {
	eng := sim.New(cfg.Seed)
	tr := netsim.NewTransport(eng, topo)
	return &Sim{deployment: build(topo, cfg, tr, simBackend{eng}), Engine: eng, Transport: tr}
}

// Run advances virtual time by d.
func (s *Sim) Run(d time.Duration) { s.Engine.RunFor(d) }

// Now reports current virtual time.
func (s *Sim) Now() time.Duration { return s.Engine.Now() }

// simBackend runs a deployment on the single-threaded discrete-event engine.
type simBackend struct{ eng *sim.Engine }

func (simBackend) Do(fn func()) { fn() }

func (b simBackend) await(ctx context.Context, done <-chan struct{}) error {
	for {
		select {
		case <-done:
			return nil
		default:
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if !b.eng.Step() {
			return ErrTimeout // drained (or stopped) with done still open
		}
	}
}

func (b simBackend) deadline(d time.Duration, fail func()) { b.eng.Schedule(d, fail) }

func (b simBackend) awaitRun(done <-chan struct{}) error {
	if b.await(context.Background(), done) != nil {
		return fmt.Errorf("repro: workload stalled with %d events pending", b.eng.Pending())
	}
	return nil
}
