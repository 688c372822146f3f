package kv_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// Coordinator context lifetime: a context leaves its node's maps (and
// its request timeout leaves the event queue) with the last response or
// acknowledgement the request can still receive, and only a request
// that is owed one it will never get waits for the timeout.

// contexts sums the coordinator contexts every member tracks.
func (h *harness) contexts() int {
	total := 0
	for _, id := range h.cluster.Members() {
		total += h.cluster.Node(id).CoordContexts()
	}
	return total
}

// writeProbe follows one key's write through the monitor's hooks.
type writeProbe struct {
	key      string
	admitted bool
	start    time.Duration
	ranks    []int
}

func (p *writeProbe) attach(c *kv.Cluster) {
	c.AddHooks(&kv.Hooks{
		WriteStarted: func(now time.Duration, key string, _ storage.Version, _ int) {
			if key == p.key {
				p.admitted, p.start = true, now
			}
		},
		WriteAck: func(_ time.Duration, key string, rank int, _ time.Duration) {
			if key == p.key {
				p.ranks = append(p.ranks, rank)
			}
		},
	})
}

// followWrite issues one write of p.key and steps the simulation until
// its context has come and gone, calling each (when non-nil) after
// every event. It returns the client's result and the instant the
// context retired.
func (h *harness) followWrite(t *testing.T, p *writeProbe, lvl kv.Level, each func()) (kv.WriteResult, time.Duration) {
	t.Helper()
	p.admitted, p.ranks = false, nil
	var res kv.WriteResult
	replied := false
	h.cluster.Write(p.key, []byte("v"), lvl, func(r kv.WriteResult) { res, replied = r, true })
	deadline := h.eng.Now() + 3*h.cluster.Config().Timeout
	for h.eng.Now() < deadline && h.eng.Step() {
		if each != nil {
			each()
		}
		if p.admitted && replied && h.contexts() == 0 {
			return res, h.eng.Now()
		}
	}
	t.Fatalf("write of %s: context never retired (admitted=%v replied=%v contexts=%d)",
		p.key, p.admitted, replied, h.contexts())
	return res, 0
}

func TestCoordinatorContextsRetireAtLastAck(t *testing.T) {
	cfg := kv.DefaultConfig() // hint-replay ticks stay on: the background the queue keeps
	cfg.Seed = 31
	h := newHarness(netsim.SingleDC(6), cfg)
	idle := h.eng.Pending()
	rng := h.eng.RNG().Stream("lifetime")
	// The number goes first: the ring's FNV-1a barely spreads keys that
	// differ in their last bytes only (cf. gkey).
	key := func() string { return fmt.Sprintf("%03d-life", rng.IntN(50)) }

	// drive issues n mixed single and batched operations 50µs apart and
	// checks the cluster 100ms of virtual time after the last reply.
	drive := func(name string, n int, levels []kv.Level) {
		t.Helper()
		begin := h.eng.Now()
		pending, failed := 0, 0
		var lastReply time.Duration
		done := func(err error) {
			pending--
			lastReply = h.eng.Now()
			if err != nil {
				failed++
			}
		}
		for i := 0; i < n; i++ {
			lvl := levels[rng.IntN(len(levels))]
			pending++
			switch rng.IntN(4) {
			case 0:
				h.cluster.Write(key(), []byte("v"), lvl, func(r kv.WriteResult) { done(r.Err) })
			case 1:
				h.cluster.Read(key(), lvl, func(r kv.ReadResult) { done(r.Err) })
			case 2:
				ops := []kv.BatchOp{{Key: key(), Value: []byte("b")}, {Key: key(), Value: []byte("b")}, {Key: key(), Delete: true}}
				h.cluster.WriteBatch(ops, lvl, func(rs []kv.WriteResult) {
					var err error
					for _, r := range rs {
						if r.Err != nil {
							err = r.Err
						}
					}
					done(err)
				})
			default:
				h.cluster.ReadBatch([]string{key(), key(), key()}, lvl, func(rs []kv.ReadResult) {
					var err error
					for _, r := range rs {
						if r.Err != nil {
							err = r.Err
						}
					}
					done(err)
				})
			}
			h.eng.RunFor(50 * time.Microsecond)
		}
		for pending > 0 && h.eng.Step() {
		}
		if pending > 0 || failed > 0 {
			t.Fatalf("%s: %d operations unanswered, %d failed", name, pending, failed)
		}
		h.eng.RunUntil(lastReply + 100*time.Millisecond)
		if took := h.eng.Now() - begin; took >= cfg.Timeout {
			t.Fatalf("%s: phase took %v, a request timeout (%v) may have fired", name, took, cfg.Timeout)
		}
		for _, id := range h.cluster.Members() {
			if c := h.cluster.Node(id).CoordContexts(); c != 0 {
				t.Errorf("%s: node %d still tracks %d contexts 100ms after the last reply", name, id, c)
			}
		}
		if got := h.eng.Pending(); got != idle {
			t.Errorf("%s: %d events pending, want the %d background ticks of the idle cluster", name, got, idle)
		}
	}

	drive("healthy", 2000, []kv.Level{kv.One, kv.Quorum, kv.All})

	// A detected-down replica is hinted, not shipped to: its writes are
	// owed two acks, not RF, and must still retire at the second.
	h.cluster.Fail(5)
	h.eng.RunFor(cfg.DetectionDelay + 10*time.Millisecond)
	drive("one replica hinted", 400, []kv.Level{kv.One, kv.Quorum})
	hinted := 0
	for _, id := range h.cluster.Members() {
		hinted += h.cluster.Node(id).HintCount()
	}
	if hinted == 0 {
		t.Error("no write was hinted: the hinted-replica case did not run")
	}
}

func TestLateAcksStillFeedMonitor(t *testing.T) {
	h := newHarness(netsim.SingleDC(6), quietConfig(33))
	p := &writeProbe{key: "late-acks"}
	p.attach(h.cluster)

	// From admission to the third ack exactly one context exists — the
	// client's answer at rank 1 does not end it.
	res, retiredAt := h.followWrite(t, p, kv.One, func() {
		want := 0
		if p.admitted && len(p.ranks) < 3 {
			want = 1
		}
		if got := h.contexts(); got != want {
			t.Fatalf("at %v, %d acks in: %d contexts, want %d", h.eng.Now(), len(p.ranks), got, want)
		}
	})
	if res.Err != nil || res.Acked != 1 {
		t.Fatalf("write at ONE: %+v", res)
	}
	if !slices.Equal(p.ranks, []int{1, 2, 3}) {
		t.Errorf("WriteAck ranks %v, want [1 2 3]", p.ranks)
	}
	if lived := retiredAt - p.start; lived >= h.cluster.Config().Timeout/10 {
		t.Errorf("context lived %v, want the few milliseconds to the last ack", lived)
	}
	if n := h.cluster.Oracle().InFlight(); n != 0 {
		t.Errorf("oracle still tracks %d in-flight writes", n)
	}
	h.eng.Run()
	if !slices.Equal(p.ranks, []int{1, 2, 3}) {
		t.Errorf("WriteAck ranks after drain %v, want [1 2 3]", p.ranks)
	}
}

// TestShortAckCountWaitsForTimeout: a write owed an acknowledgement that
// never comes keeps its context until the request timeout fires at
// admission + Timeout — what every context did before contexts retired
// at the last ack — and the client and the monitor see the same as then.
func TestShortAckCountWaitsForTimeout(t *testing.T) {
	t.Run("replica failed mid-flight", func(t *testing.T) {
		h := newHarness(netsim.SingleDC(6), quietConfig(37))
		p := &writeProbe{key: "short-ack"}
		p.attach(h.cluster)
		failed := false
		res, retiredAt := h.followWrite(t, p, kv.One, func() {
			if !p.admitted || failed {
				return
			}
			// The mutations are on the wire; cut off a replica that is
			// not the coordinator.
			for _, r := range h.cluster.Strategy().Replicas(p.key) {
				if h.cluster.Node(r).CoordContexts() == 0 {
					h.cluster.Fail(r)
					failed = true
					return
				}
			}
		})
		if !failed {
			t.Fatal("no replica was failed")
		}
		checkShortAck(t, h, p, res, retiredAt, []int{1, 2})
	})

	t.Run("mutation shed", func(t *testing.T) {
		cfg := quietConfig(39)
		cfg.Concurrency = 1
		cfg.MutationShed = 10 * time.Millisecond
		h := newHarness(netsim.SingleDC(6), cfg)
		p := &writeProbe{key: "short-ack"}
		p.attach(h.cluster)
		// The mutation queues behind 50ms of work and is shed at 10ms.
		victim := h.cluster.Node(h.cluster.Strategy().Replicas(p.key)[2])
		victim.OccupyWriteStage(50 * time.Millisecond)
		res, retiredAt := h.followWrite(t, p, kv.Quorum, nil)
		if victim.DroppedMutations() != 1 {
			t.Fatalf("victim shed %d mutations, want 1", victim.DroppedMutations())
		}
		checkShortAck(t, h, p, res, retiredAt, []int{1, 2})
	})

	t.Run("notOwner refusal re-planned", func(t *testing.T) {
		h, key, joiner, _ := staleRingSetup(t, 41)
		p := &writeProbe{key: key}
		p.attach(h.cluster)
		// Coordinator choice rotates; the first stale one contacts the
		// displaced replica, is refused, and re-plans onto the joiner.
		for i := 0; i < 10; i++ {
			before := h.cluster.Usage()
			res, retiredAt := h.followWrite(t, p, kv.Quorum, nil)
			u := h.cluster.Usage()
			if u.NotOwnerReplies == before.NotOwnerReplies {
				if lived := retiredAt - p.start; lived >= h.cluster.Config().Timeout {
					t.Fatalf("unrefused write lived %v", lived)
				}
				continue
			}
			if u.WrongOwnerRetries == before.WrongOwnerRetries {
				t.Fatal("refusal was not re-planned")
			}
			// Two old owners and, after the re-plan, the joiner: three
			// acks for four mutations shipped.
			checkShortAck(t, h, p, res, retiredAt, []int{1, 2, 3})
			if _, ok := h.cluster.Node(joiner).Engine().Get(key); !ok {
				t.Error("re-planned write never reached the new owner")
			}
			return
		}
		t.Fatal("no write was refused")
	})
}

// checkShortAck asserts the client was answered, the monitor saw ranks,
// and the context retired when its timeout fired — not before, not
// after.
func checkShortAck(t *testing.T, h *harness, p *writeProbe, res kv.WriteResult, retiredAt time.Duration, ranks []int) {
	t.Helper()
	if res.Err != nil {
		t.Errorf("client result: %v", res.Err)
	}
	if !slices.Equal(p.ranks, ranks) {
		t.Errorf("WriteAck ranks %v, want %v", p.ranks, ranks)
	}
	if want := p.start + h.cluster.Config().Timeout; retiredAt != want {
		t.Errorf("context retired at %v, want admission + Timeout = %v", retiredAt, want)
	}
}

// TestCrashStopsRequestTimeouts: a crash drops the coordinator's
// contexts and cancels their timeouts with them — what stays queued for
// the dead node's requests is the clients' own guards, nothing else.
func TestCrashStopsRequestTimeouts(t *testing.T) {
	cfg := quietConfig(43)
	cfg.Coordinators = []netsim.NodeID{0}
	h := newHarness(netsim.SingleDC(6), cfg)
	answered := 0
	const ops = 20
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("%03d-crash", i)
		if i%2 == 0 {
			h.cluster.Write(key, []byte("v"), kv.All, func(kv.WriteResult) { answered++ })
		} else {
			h.cluster.Read(key, kv.All, func(kv.ReadResult) { answered++ })
		}
	}
	for h.cluster.Node(0).CoordContexts() < ops/2 && h.eng.Step() {
	}
	if got := h.cluster.Node(0).CoordContexts(); got < ops/2 {
		t.Fatalf("only %d contexts admitted before the queue drained", got)
	}
	h.cluster.Crash(0)
	if got := h.cluster.Node(0).CoordContexts(); got != 0 {
		t.Fatalf("crashed node tracks %d contexts", got)
	}
	// Past the detection delay, short of any request timeout: messages
	// in flight have landed or been dropped.
	h.eng.RunFor(cfg.DetectionDelay + 100*time.Millisecond)
	if got, want := h.eng.Pending(), ops-answered; got != want {
		t.Errorf("%d events pending after the crash, want the %d unanswered clients' guards", got, want)
	}
	h.eng.Run()
	if answered != ops {
		t.Errorf("%d of %d operations answered", answered, ops)
	}
}
