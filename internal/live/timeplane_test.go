package live

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/netsim"
)

// fakeClock is an injected clock source the test moves by hand. The
// engine reads it under its lock, possibly from the runtime timer's
// goroutine, hence the atomic.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() time.Duration  { return time.Duration(c.ns.Load()) }
func (c *fakeClock) set(d time.Duration) { c.ns.Store(int64(d)) }

// newDirectEngine returns a serving-mode engine (no mesh) on a fake
// clock, with a recording handler on every node.
func newDirectEngine(t *testing.T, n int) (*Engine, *fakeClock, *[]string) {
	t.Helper()
	e, err := NewMesh(netsim.SingleDC(n), 1, MeshConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	clk := &fakeClock{}
	e.clock = clk.now
	var log []string
	e.Do(func() {
		for id := 0; id < n; id++ {
			e.Register(netsim.NodeID(id), func(_ netsim.NodeID, payload any) {
				log = append(log, payload.(string))
			})
		}
	})
	return e, clk, &log
}

// TestDirectTimerOrder pins how direct-mode timers order among
// themselves and against run-queue deliveries: due events — scheduled
// functions and timer messages alike — fire at their deadline in
// (deadline, scheduling order), as in the simulator; what they send at
// zero delay joins the run queue, and whatever the lock holder enqueues
// itself comes after that. The queue underneath keeps short delays on a
// timing wheel and long ones in a heap (split at 500 ms); the last case
// arms on both sides of the split, and twice for one instant from either
// side, and wants plain time order.
func TestDirectTimerOrder(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		name string
		arm  func(e *Engine, rec func(string)) // runs inside Do at t=0
		at   time.Duration                     // the clock then jumps here
		then func(e *Engine)                   // and this runs inside Do
		at2  time.Duration                     // if set, the clock jumps again
		want []string
	}{
		{
			name: "equal deadlines fire in scheduling order",
			arm: func(e *Engine, rec func(string)) {
				e.SendLocal(0, "m1", 10*ms)
				e.Schedule(10*ms, func() { rec("f2") })
				e.SendLocal(1, "m3", 10*ms)
				e.Schedule(10*ms, func() { rec("f4") })
			},
			at:   10 * ms,
			want: []string{"m1", "f2", "m3", "f4"},
		},
		{
			name: "earlier deadline first, zero delay is the run queue",
			arm: func(e *Engine, rec func(string)) {
				e.SendLocal(0, "late", 10*ms)
				e.SendLocal(1, "early", 5*ms)
				e.Send(0, 1, "now1")
				e.SendLocal(0, "now2", 0)
			},
			at:   10 * ms,
			want: []string{"now1", "now2", "early", "late"},
		},
		{
			name: "timer cascade queues behind timer messages, ahead of the caller's",
			arm: func(e *Engine, rec func(string)) {
				e.SendLocal(0, "t1", 10*ms)
				e.Schedule(10*ms, func() { rec("A"); e.Send(0, 1, "from-A") })
				e.SendLocal(1, "t2", 10*ms)
				e.Schedule(5*ms, func() { rec("B") })
			},
			at:   10 * ms,
			then: func(e *Engine) { e.Send(1, 0, "caller") },
			want: []string{"B", "t1", "A", "t2", "from-A", "caller"},
		},
		{
			name: "not yet due stays queued",
			arm: func(e *Engine, rec func(string)) {
				e.SendLocal(0, "due", 10*ms)
				e.SendLocal(0, "later", 11*ms)
			},
			at:   10 * ms,
			want: []string{"due"},
		},
		{
			name: "long and short delays interleave in time order",
			arm: func(e *Engine, rec func(string)) {
				e.SendLocal(0, "2s", 2*time.Second)
				e.SendLocal(1, "501ms", 501*ms)
				e.SendLocal(0, "499ms", 499*ms)
				e.SendLocal(1, "600ms armed at 0", 600*ms)
				e.SendLocal(0, "500ms", 500*ms)
				e.SendLocal(1, "10ms", 10*ms)
			},
			at:   200 * ms,
			then: func(e *Engine) { e.SendLocal(0, "600ms armed at 200ms", 400*ms) },
			at2:  2 * time.Second,
			want: []string{"10ms", "499ms", "500ms", "501ms", "600ms armed at 0", "600ms armed at 200ms", "2s"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, clk, log := newDirectEngine(t, 2)
			rec := func(s string) { *log = append(*log, s) }
			e.Do(func() { tc.arm(e, rec) })
			clk.set(tc.at)
			e.Do(func() {
				if tc.then != nil {
					tc.then(e)
				}
			})
			if tc.at2 > 0 {
				clk.set(tc.at2)
				e.Do(func() {})
			}
			var got []string
			e.Do(func() { got = append(got, *log...) })
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("order = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestDirectEndpointTables: handlers and failure flags are slices indexed
// by NodeID+1. A delivery to an id the table does not reach — a peer
// frame can name any id — is dropped, not a panic; Fail and Recover take
// ids past the table; a failed node neither receives nor sends network
// messages until it recovers, but its own timers still reach it.
func TestDirectEndpointTables(t *testing.T) {
	e, _, log := newDirectEngine(t, 3)
	e.Do(func() {
		e.enqueue(1<<40, 0, "far", false)
		e.enqueue(-7, 0, "negative", false)
		e.enqueue(2, 0, "ok", false)
	})
	e.Do(func() {
		e.Fail(9)
		e.Recover(9)
		e.Fail(1)
		e.Send(0, 1, "to-failed")
		e.Send(1, 2, "from-failed")
		e.SendLocal(1, "timer-on-failed", 0)
	})
	e.Do(func() {
		e.Recover(1)
		e.Send(0, 1, "recovered")
	})
	if want := []string{"ok", "timer-on-failed", "recovered"}; !reflect.DeepEqual(*log, want) {
		t.Errorf("delivered %v, want %v", *log, want)
	}
}

// TestDirectPartition: a partition cuts the direct path both ways,
// counted as dropped; traffic outside it and self-messages still flow,
// and Heal restores the link.
func TestDirectPartition(t *testing.T) {
	e, _, log := newDirectEngine(t, 3)
	e.Do(func() {
		e.Partition([]netsim.NodeID{0}, []netsim.NodeID{1})
		e.Send(0, 1, "0->1")
		e.Send(1, 0, "1->0")
		e.Send(0, 2, "0->2")
		e.SendLocal(1, "timer-on-1", 0)
	})
	if d := e.Meter().Dropped; d != 2 {
		t.Errorf("dropped = %d, want the two sends across the partition", d)
	}
	e.Do(func() {
		e.Heal()
		e.Send(0, 1, "healed")
	})
	if want := []string{"0->2", "timer-on-1", "healed"}; !reflect.DeepEqual(*log, want) {
		t.Errorf("delivered %v, want %v", *log, want)
	}
}

// countingCodec is a carried store that records what the engine hands
// back; it frames nothing.
type countingCodec struct{ released []any }

func (c *countingCodec) ReleaseMessage(payload any) { c.released = append(c.released, payload) }

func (*countingCodec) MarshalMessage(buf []byte, _, _ netsim.NodeID, _ any) ([]byte, bool) {
	return buf, false
}

func (*countingCodec) UnmarshalMessage(byte, []byte) (netsim.NodeID, netsim.NodeID, any, error) {
	return 0, 0, nil, nil
}

func (*countingCodec) MessageSize(netsim.NodeID, netsim.NodeID, any) int { return 0 }

// TestDirectReleasesRefused: on the direct path a refused message goes
// back to the carried store through the transport, whether Admit refuses
// it at departure or the destination fails before the run queue reaches
// it; a delivered one is not released.
func TestDirectReleasesRefused(t *testing.T) {
	e, _, log := newDirectEngine(t, 3)
	codec := &countingCodec{}
	e.Do(func() {
		e.Carry(codec)
		e.Fail(1)
		e.Send(0, 1, "departure")
		e.Recover(1)
	})
	e.Do(func() {
		e.Send(0, 1, "arrival")
		e.Fail(1) // before the drain delivers it
	})
	e.Do(func() {
		e.Recover(1)
		e.Send(0, 1, "delivered")
	})
	if want := []any{"departure", "arrival"}; !reflect.DeepEqual(codec.released, want) {
		t.Errorf("released %v, want %v", codec.released, want)
	}
	if want := []string{"delivered"}; !reflect.DeepEqual(*log, want) {
		t.Errorf("delivered %v, want %v", *log, want)
	}
}

// TestStaleGuardHandleSparesNewTenant: a guard's slot is recycled when
// it fires; stopping the old handle afterwards must not cancel the guard
// that now lives in the slot.
func TestStaleGuardHandleSparesNewTenant(t *testing.T) {
	e, clk, _ := newDirectEngine(t, 1)
	var fired []uint64
	cb := func(arg uint64, _ any) { fired = append(fired, arg) }
	var stale bool
	e.Do(func() {
		old := e.ScheduleStopCall(10*time.Millisecond, cb, 1)
		clk.set(10 * time.Millisecond)
		e.tq.RunUntil(e.clock()) // fires guard 1, freeing its slot
		e.ScheduleStopCall(10*time.Millisecond, cb, 2)
		stale = old.Stop()
	})
	clk.set(20 * time.Millisecond)
	var got []uint64
	e.Do(func() { got = append(got, fired...) })
	if stale {
		t.Error("Stop on a fired guard's handle reported a cancellation")
	}
	if !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Errorf("fired = %v, want [1 2]: the stale handle canceled the slot's new tenant", got)
	}
}

// TestTimerFiresWithoutDo: with nobody calling in, the one runtime timer
// must run a due event, and the drain after it must re-arm for the next.
func TestTimerFiresWithoutDo(t *testing.T) {
	e, err := NewMesh(netsim.SingleDC(1), 1, MeshConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	first, second := make(chan struct{}), make(chan struct{})
	e.Do(func() {
		e.Schedule(20*time.Millisecond, func() {
			close(first)
			e.Schedule(20*time.Millisecond, func() { close(second) })
		})
		e.Schedule(time.Hour, func() {}) // a later event must not hold the timer
	})
	for _, ch := range []chan struct{}{first, second} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("scheduled function did not run without a Do")
		}
	}
}

// TestClockNeverDecreases injects a backward step of the clock source:
// the engine clock holds still, a deadline armed during the step lies in
// the engine's future (no panic, not in the past), and both deadlines
// fire once the source has caught up.
func TestClockNeverDecreases(t *testing.T) {
	e, clk, _ := newDirectEngine(t, 1)
	clk.set(100 * time.Millisecond)
	var fired []string
	e.Do(func() { e.Schedule(10*time.Millisecond, func() { fired = append(fired, "before") }) })
	clk.set(50 * time.Millisecond) // the host clock stepped back
	var during time.Duration
	e.Do(func() {
		during = e.Now()
		e.Schedule(10*time.Millisecond, func() { fired = append(fired, "during") })
	})
	if during != 100*time.Millisecond {
		t.Errorf("Now() = %v after a backward step, want it held at 100ms", during)
	}
	clk.set(109 * time.Millisecond)
	e.Do(func() {
		if len(fired) != 0 {
			t.Errorf("fired %v before any deadline", fired)
		}
	})
	clk.set(110 * time.Millisecond)
	var got []string
	e.Do(func() { got = append(got, fired...) })
	if !reflect.DeepEqual(got, []string{"before", "during"}) {
		t.Errorf("fired = %v, want [before during]", got)
	}
}

// newServingCluster builds a single-process serving deployment whose
// request timeout is short enough to wait out.
func newServingCluster(t *testing.T, timeout time.Duration) (*Engine, *kv.Cluster) {
	t.Helper()
	topo := netsim.SingleDC(3)
	e, err := NewMesh(topo, 1, MeshConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := kv.DefaultConfig()
	cfg.Timeout = timeout
	cfg.HintReplayInterval = time.Hour
	var cl *kv.Cluster
	e.Do(func() { cl = kv.New(topo, e, cfg) })
	return e, cl
}

// TestGuardSurvivingItsDrainTimesOut: an operation whose coordinator
// never answers (here: cut off right after the request was queued, as a
// peer process would be) leaves its guard armed past the drain that
// issued it; the guard must still fail the operation with ErrTimeout at
// twice the request timeout.
func TestGuardSurvivingItsDrainTimesOut(t *testing.T) {
	const timeout = 40 * time.Millisecond
	e, cl := newServingCluster(t, timeout)
	defer e.Close()
	res := make(chan kv.ReadResult, 1)
	start := time.Now()
	e.Do(func() {
		cl.Read("k", kv.Quorum, func(r kv.ReadResult) { res <- r })
		for _, id := range cl.Members() {
			e.Fail(id)
		}
	})
	select {
	case r := <-res:
		if r.Err != kv.ErrTimeout || r.Latency != 2*timeout {
			t.Errorf("result = %+v, want ErrTimeout with latency %v", r, 2*timeout)
		}
		if el := time.Since(start); el < 2*timeout {
			t.Errorf("guard fired after %v, before 2×Timeout = %v", el, 2*timeout)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("guard never fired")
	}
}

// TestCloseReleasesPendingWork closes an engine holding armed guards,
// waiting timer messages and scheduled functions: Close must empty the
// time plane and stop the runtime timer (TestMain's leak check covers
// the goroutine side), stay idempotent, and leave Do usable — with
// whatever a closed engine is handed dropped at the next drain.
func TestCloseReleasesPendingWork(t *testing.T) {
	e, cl := newServingCluster(t, time.Hour)
	completed := 0
	e.Do(func() {
		for _, id := range cl.Members() {
			e.Fail(id) // requests are dropped, so every guard stays armed
		}
		for i := 0; i < 8; i++ {
			cl.Read("k", kv.Quorum, func(kv.ReadResult) { completed++ })
			cl.Write("k", []byte("v"), kv.Quorum, func(kv.WriteResult) { completed++ })
		}
		e.Schedule(time.Hour, func() { completed++ })
	})
	e.Do(func() {
		if e.tq.Pending() < 17 {
			t.Fatalf("only %d pending events before Close, want the guards and timers armed", e.tq.Pending())
		}
	})
	e.Close()
	e.Close()
	e.Do(func() {
		cl.Read("k", kv.Quorum, func(kv.ReadResult) { completed++ })
		e.SendLocal(0, "dropped", time.Hour)
	})
	e.Do(func() {
		if n := e.tq.Pending(); n != 0 {
			t.Errorf("%d events pending on a closed engine", n)
		}
		if len(e.runq) != 0 {
			t.Errorf("closed engine holds %d queued messages", len(e.runq))
		}
		if completed != 0 {
			t.Errorf("%d callbacks ran on work discarded by Close", completed)
		}
	})
}

// newClockedCluster builds a single-process serving deployment of four
// nodes on a fake clock, every operation coordinated by node 0.
func newClockedCluster(t *testing.T, cfg kv.Config) (*Engine, *fakeClock, *kv.Cluster) {
	t.Helper()
	topo := netsim.SingleDC(4)
	e, err := NewMesh(topo, 1, MeshConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	clk := &fakeClock{}
	e.clock = clk.now
	cfg.Coordinators = []netsim.NodeID{0}
	var cl *kv.Cluster
	e.Do(func() { cl = kv.New(topo, e, cfg) })
	return e, clk, cl
}

// advance moves the clock d forward in steps of at most step, letting
// the engine run what falls due at each.
func (c *fakeClock) advance(e *Engine, d, step time.Duration) {
	for end := c.now() + d; c.now() < end; {
		c.set(min(c.now()+step, end))
		e.Do(func() {})
	}
}

// keyWhere returns a key among k0…k999 whose replicas satisfy ok.
func keyWhere(t *testing.T, e *Engine, cl *kv.Cluster, ok func(replicas []netsim.NodeID) bool) (key string, replicas []netsim.NodeID) {
	t.Helper()
	e.Do(func() {
		for i := 0; i < 1000 && key == ""; i++ {
			k := fmt.Sprintf("k%d", i)
			if r := cl.Strategy().Replicas(k); ok(r) {
				key, replicas = k, r
			}
		}
	})
	if key == "" {
		t.Fatal("no key with the wanted replicas among k0…k999")
	}
	return key, replicas
}

// replicatedBy returns a key whose replicas include id.
func replicatedBy(t *testing.T, e *Engine, cl *kv.Cluster, id netsim.NodeID) (key string, replicas []netsim.NodeID) {
	t.Helper()
	return keyWhere(t, e, cl, func(r []netsim.NodeID) bool { return slices.Contains(r, id) })
}

// TestFailedCoordinatorKeepsItsClock: Fail cuts a node's network, not its
// clock. A coordinator failed and recovered must still run its
// hint-replay tick afterwards: a hint it buffers for a replica that was
// down is replayed once that replica recovers.
func TestFailedCoordinatorKeepsItsClock(t *testing.T) {
	const tick = 100 * time.Millisecond
	cfg := kv.DefaultConfig()
	cfg.ReadService = netsim.Constant(0)
	cfg.WriteService = netsim.Constant(0)
	cfg.CoordOverhead = netsim.Constant(0)
	cfg.HintReplayInterval = tick
	cfg.DetectionDelay = tick
	e, clk, cl := newClockedCluster(t, cfg)
	key, replicas := replicatedBy(t, e, cl, 0)
	y := replicas[0]
	if y == 0 {
		y = replicas[1]
	}

	e.Do(func() { cl.Fail(0) })
	clk.advance(e, 5*tick, tick/4)
	e.Do(func() { cl.Recover(0) })
	clk.advance(e, 2*tick, tick/4)

	e.Do(func() { cl.Fail(y) })
	clk.advance(e, 2*tick, tick/4)
	var werr error = errors.New("write never completed")
	e.Do(func() { cl.Write(key, []byte("v"), kv.One, func(r kv.WriteResult) { werr = r.Err }) })
	if werr != nil {
		t.Fatalf("write at ONE with one replica down: %v", werr)
	}
	e.Do(func() { cl.Recover(y) })
	clk.advance(e, 5*tick, tick/4)

	var replayed uint64
	e.Do(func() { replayed = cl.Usage().HintsReplayed })
	if replayed == 0 {
		t.Error("no hint replayed: the coordinator's hint-replay tick died while it was failed")
	}
}

// TestFailedNodeFinishesItsStageWork: a replica failed while its only
// read slot is busy still completes the unit at its deadline, so after
// Recover the stage serves again — a read it coordinates and serves
// itself completes instead of waiting on a slot that never frees.
func TestFailedNodeFinishesItsStageWork(t *testing.T) {
	const ms = time.Millisecond
	cfg := kv.DefaultConfig()
	cfg.ReadService = netsim.Constant(ms)
	cfg.WriteService = netsim.Constant(ms)
	cfg.CoordOverhead = netsim.Constant(ms)
	cfg.Concurrency = 1
	cfg.HintReplayInterval = 0
	cfg.DetectionDelay = 10 * ms
	e, clk, cl := newClockedCluster(t, cfg)
	key, _ := replicatedBy(t, e, cl, 0)

	e.Do(func() {
		for i := 0; i < 4; i++ {
			cl.Read(key, kv.One, func(kv.ReadResult) {})
		}
	})
	clk.advance(e, 3*ms/2, ms/2) // admitted; node 0 serves the first read
	e.Do(func() { cl.Fail(0) })
	clk.advance(e, 20*ms, ms)
	e.Do(func() { cl.Recover(0) })
	clk.advance(e, 20*ms, ms)

	var got *kv.ReadResult
	e.Do(func() { cl.Read(key, kv.One, func(r kv.ReadResult) { got = &r }) })
	clk.advance(e, 50*ms, ms)
	var res *kv.ReadResult
	e.Do(func() { res = got })
	if res == nil || res.Err != nil {
		t.Fatalf("read after Recover = %+v, want it served: the node's read stage is wedged", res)
	}
}
