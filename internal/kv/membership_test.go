package kv_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// elasticConfig is quietConfig restricted to three founding members of a
// five-node topology, so nodes 3 and 4 can Join.
func elasticConfig(seed uint64) kv.Config {
	cfg := quietConfig(seed)
	cfg.InitialMembers = []netsim.NodeID{0, 1, 2}
	cfg.WarmupDuration = 500 * time.Millisecond
	return cfg
}

// mkey varies the leading characters: KeyToken's FNV-1a spreads prefix
// differences across the whole ring but clusters trailing-digit ones, so
// prefix-varying keys exercise rebalancing with a small key count.
func mkey(i int) string { return fmt.Sprintf("%04d-member", i) }

// TestJoinStreamsDataAndFlipsPlacement pins the bootstrap path on both
// engines: a joining node receives exactly the ranges it will own via
// snapshot streaming, the placement flips only after streaming completes,
// and the node passes through warming into live. Background repair is
// disabled, so every cell on the joiner arrived through the stream.
func TestJoinStreamsDataAndFlipsPlacement(t *testing.T) {
	for _, engine := range []storage.Kind{storage.Mem, storage.LSM} {
		t.Run(engine.String(), func(t *testing.T) {
			cfg := elasticConfig(21)
			cfg.Engine = engine
			if engine == storage.LSM {
				cfg.FlushLimit = 2 << 10 // several runs, so the snapshot merges
				cfg.WALSyncBytes = 1 << 10
			}
			h := newHarness(netsim.SingleDC(5), cfg)

			versions := make(map[string]storage.Version)
			for i := 0; i < 80; i++ {
				w := h.write(mkey(i), []byte("pre-join-payload"), kv.All)
				if w.Err != nil {
					t.Fatal(w.Err)
				}
				versions[mkey(i)] = w.Version
			}
			h.eng.Run()

			if got := len(h.cluster.Members()); got != 3 {
				t.Fatalf("members = %d before join", got)
			}
			h.join(3)
			if s := h.cluster.State(3); s != kv.StateBootstrapping {
				t.Fatalf("state during streaming = %v", s)
			}
			h.eng.RunFor(300 * time.Millisecond)
			if s := h.cluster.State(3); s != kv.StateWarming {
				t.Fatalf("state after streaming = %v, want warming", s)
			}
			h.eng.RunFor(time.Second)
			if s := h.cluster.State(3); s != kv.StateLive {
				t.Fatalf("state after warmup = %v, want live", s)
			}
			if got := len(h.cluster.Members()); got != 4 {
				t.Fatalf("members = %d after join", got)
			}

			// The joiner must hold the latest version of every key it now
			// owns — and nothing else reached it (no AE, no hints).
			eng := h.cluster.Node(3).Engine()
			owned := 0
			for i := 0; i < 80; i++ {
				k := mkey(i)
				replicas := h.cluster.Strategy().Replicas(k)
				isReplica := false
				for _, r := range replicas {
					if r == 3 {
						isReplica = true
					}
				}
				cell, ok := eng.Peek(k)
				if isReplica {
					owned++
					if !ok || cell.Version != versions[k] {
						t.Fatalf("joiner missing owned key %s (ok=%v ver=%v want %v)", k, ok, cell.Version, versions[k])
					}
				} else if ok {
					t.Fatalf("joiner holds un-owned key %s", k)
				}
			}
			if owned == 0 {
				t.Fatal("rebalance moved no ownership to the joiner")
			}
			u := h.cluster.Usage()
			if u.Joins != 1 || u.StreamedCells == 0 || u.StreamChunks == 0 || u.StreamInCells == 0 {
				t.Fatalf("stream accounting: %+v", u)
			}
			if u.StreamInCells != uint64(owned) {
				t.Fatalf("streamed-in cells %d != owned keys %d", u.StreamInCells, owned)
			}
		})
	}
}

// TestJoinAblationSkipsStreaming pins the hints+AE-only ablation: with
// DisableJoinStream the node flips in immediately and empty.
func TestJoinAblationSkipsStreaming(t *testing.T) {
	cfg := elasticConfig(22)
	cfg.DisableJoinStream = true
	h := newHarness(netsim.SingleDC(5), cfg)
	for i := 0; i < 40; i++ {
		if w := h.write(mkey(i), []byte("v"), kv.All); w.Err != nil {
			t.Fatal(w.Err)
		}
	}
	h.eng.Run()
	h.join(3)
	if s := h.cluster.State(3); s != kv.StateWarming {
		t.Fatalf("ablation join should flip immediately into warming, got %v", s)
	}
	if n := h.cluster.Node(3).Engine().KeyCount(); n != 0 {
		t.Fatalf("ablation joiner holds %d cells, want 0", n)
	}
	if u := h.cluster.Usage(); u.StreamedCells != 0 {
		t.Fatalf("ablation streamed %d cells", u.StreamedCells)
	}
}

// TestDecommissionHandsOffOwnership pins scale-down: the leaver streams
// each key it owns to the nodes that newly own it, then leaves the ring;
// quorum reads stay fresh with no repair machinery running.
func TestDecommissionHandsOffOwnership(t *testing.T) {
	cfg := quietConfig(23)
	cfg.InitialMembers = []netsim.NodeID{0, 1, 2, 3}
	cfg.WarmupDuration = 200 * time.Millisecond
	h := newHarness(netsim.SingleDC(5), cfg)

	versions := make(map[string]storage.Version)
	for i := 0; i < 80; i++ {
		w := h.write(mkey(i), []byte("payload"), kv.All)
		if w.Err != nil {
			t.Fatal(w.Err)
		}
		versions[mkey(i)] = w.Version
	}
	h.eng.Run()

	h.decommission(3)
	if s := h.cluster.State(3); s != kv.StateLeaving {
		t.Fatalf("state during handoff = %v", s)
	}
	h.eng.RunFor(2 * time.Second)
	if s := h.cluster.State(3); s != kv.StateDecommissioned {
		t.Fatalf("state after handoff = %v", s)
	}
	if got := len(h.cluster.Members()); got != 3 {
		t.Fatalf("members = %d after decommission", got)
	}

	// Every key's current replica set must hold the latest version — the
	// newly responsible nodes got theirs from the leaver's handoff stream.
	for i := 0; i < 80; i++ {
		k := mkey(i)
		for _, r := range h.cluster.Strategy().Replicas(k) {
			if r == 3 {
				t.Fatalf("key %s still places on the decommissioned node", k)
			}
			cell, ok := h.cluster.Node(r).Engine().Peek(k)
			if !ok || cell.Version != versions[k] {
				t.Fatalf("replica %d missing %s after handoff (ok=%v)", r, k, ok)
			}
		}
		if r := h.read(k, kv.Quorum); r.Err != nil || r.Stale || !r.Exists {
			t.Fatalf("quorum read after decommission: %+v", r)
		}
	}
	u := h.cluster.Usage()
	if u.Decommissions != 1 || u.StreamedCells == 0 {
		t.Fatalf("decommission accounting: %+v", u)
	}
}

// TestRejoinAfterDecommission pins the full cycle: a decommissioned node
// can Join again as a fresh machine and serve.
func TestRejoinAfterDecommission(t *testing.T) {
	cfg := quietConfig(24)
	cfg.InitialMembers = []netsim.NodeID{0, 1, 2, 3}
	h := newHarness(netsim.SingleDC(5), cfg)
	for i := 0; i < 20; i++ {
		if w := h.write(mkey(i), []byte("v"), kv.Quorum); w.Err != nil {
			t.Fatal(w.Err)
		}
	}
	h.decommission(3)
	h.eng.RunFor(2 * time.Second)
	h.join(3)
	h.eng.RunFor(2 * time.Second)
	if s := h.cluster.State(3); s != kv.StateLive {
		t.Fatalf("rejoined state = %v", s)
	}
	if got := len(h.cluster.Members()); got != 4 {
		t.Fatalf("members = %d after rejoin", got)
	}
	if r := h.read(mkey(0), kv.All); r.Err != nil || !r.Exists {
		t.Fatalf("ALL read after rejoin: %+v", r)
	}
}

// TestWarmingExcludedFromReads pins recovery-aware read routing: a
// restarted (empty, still converging) replica is not counted into read
// quorums while warming, so ONE-level reads keep returning data; with
// warming disabled the same scenario serves misses from the empty
// replica. No repair machinery runs, so the replica stays empty.
func TestWarmingExcludedFromReads(t *testing.T) {
	run := func(warmup time.Duration) (misses int) {
		cfg := quietConfig(25)
		cfg.WarmupDuration = warmup
		h := newHarness(netsim.SingleDC(4), cfg)
		if w := h.write("hot", []byte("v"), kv.All); w.Err != nil {
			panic(w.Err)
		}
		h.eng.Run()
		victim := h.cluster.Strategy().Replicas("hot")[0]
		h.cluster.Crash(victim)
		h.eng.RunFor(2 * time.Second)
		h.cluster.Recover(victim) // MemEngine: comes back empty
		h.eng.RunFor(2 * time.Second)
		for i := 0; i < 12; i++ { // rotate coordinators past the victim
			if r := h.read("hot", kv.One); !r.Exists {
				misses++
			}
		}
		return misses
	}
	if m := run(0); m == 0 {
		t.Fatal("control: with warming disabled the empty replica should serve misses")
	}
	if m := run(time.Minute); m != 0 {
		t.Fatalf("warming replica served %d misses; it must be excluded from ONE-level reads", m)
	}
}

// TestWarmingStillServesQuorumWhenNeeded pins the availability
// fallback: when excluding warming replicas would make the level
// unreachable, they are contacted anyway.
func TestWarmingStillServesQuorumWhenNeeded(t *testing.T) {
	cfg := quietConfig(26)
	cfg.WarmupDuration = time.Minute
	h := newHarness(netsim.SingleDC(3), cfg) // RF 3 on 3 nodes
	if w := h.write("hot", []byte("v"), kv.All); w.Err != nil {
		t.Fatal(w.Err)
	}
	h.eng.Run()
	h.cluster.Crash(1)
	h.eng.RunFor(2 * time.Second)
	h.cluster.Recover(1)
	h.eng.RunFor(2 * time.Second)
	// ALL must still reach 3 replicas, warming included.
	if r := h.read("hot", kv.All); r.Err != nil {
		t.Fatalf("ALL read with a warming replica: %+v", r)
	}
}

// TestMembershipContract pins the refusals: no concurrent changes, no
// joining members, no leaving below the replication factor, and no
// decommission of unsettled nodes — each an error that changes nothing.
func TestMembershipContract(t *testing.T) {
	cfg := elasticConfig(27)
	h := newHarness(netsim.SingleDC(5), cfg)
	h.eng.Run()

	refused := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s was accepted", what)
		}
		if got := len(h.cluster.Members()); got != 3 {
			t.Fatalf("%s was refused (%v) but left %d members", what, err, got)
		}
	}
	refused("Join of a member", h.cluster.Join(0))
	refused("Join outside the topology", h.cluster.Join(9))
	refused("Decommission below RF", h.cluster.Decommission(2))
	if err := h.cluster.Fail(4); !errors.Is(err, kv.ErrNotMember) {
		t.Fatalf("Fail of a non-member: %v, want ErrNotMember", err)
	}

	h.join(3)
	refused("concurrent Join", h.cluster.Join(4))
	refused("Decommission during Join", h.cluster.Decommission(0))
	h.eng.RunFor(200 * time.Millisecond) // streaming done; node is warming
	if err := h.cluster.Decommission(3); err == nil {
		t.Fatal("Decommission of a warming node was accepted")
	}
	h.eng.RunFor(time.Second)
	if s := h.cluster.State(3); s != kv.StateLive {
		t.Fatalf("state = %v", s)
	}

	// Sequential changes are fine once the previous one settled.
	h.join(4)
	h.eng.RunFor(2 * time.Second)
	if got := len(h.cluster.Members()); got != 5 {
		t.Fatalf("members = %d", got)
	}
	h.decommission(4)
	h.eng.RunFor(2 * time.Second)
	if got := len(h.cluster.Members()); got != 4 {
		t.Fatalf("members = %d after decommission", got)
	}
}

// slowStreamConfig makes handoff streaming take real virtual time: one
// chunk per key, each paying a constant 50 ms of read-stage service.
func slowStreamConfig(seed uint64) kv.Config {
	cfg := elasticConfig(seed)
	cfg.Timeout = 200 * time.Millisecond // membership wedge guard at 1 s
	cfg.StreamChunkBytes = 8             // one cell per chunk
	cfg.ReadService = netsim.Constant(50 * time.Millisecond)
	cfg.Concurrency = 1 // chunks drain serially: ~30 keys ≈ 1.5 s of streaming
	return cfg
}

// TestStaleGuardDoesNotFlipNextChange pins the guard-generation fix:
// the wedge-guard timer armed for an earlier, completed Join must not
// force-flip a LATER Join of the same node mid-stream. (Cross-kind
// staleness is already rejected by finishJoin/finishDecommission's kind
// checks; same-kind same-id staleness — join, decommission, re-join
// inside one guard window — is what only the generation stamp catches.)
func TestStaleGuardDoesNotFlipNextChange(t *testing.T) {
	cfg := slowStreamConfig(31)
	cfg.Timeout = 100 * time.Millisecond // guards fire 0.5 s after arming
	cfg.WarmupDuration = 50 * time.Millisecond
	h := newHarness(netsim.SingleDC(5), cfg)
	runUntil := func(at time.Duration) {
		if d := at - h.tr.Now(); d > 0 {
			h.eng.RunFor(d)
		}
	}

	h.join(3) // no data yet: completes instantly; its stale guard fires at t≈0.5s
	runUntil(200 * time.Millisecond)
	if s := h.cluster.State(3); s != kv.StateLive {
		t.Fatalf("first join did not settle: %v", s)
	}
	h.decommission(3) // still no data: instant
	if s := h.cluster.State(3); s != kv.StateDecommissioned {
		t.Fatalf("empty decommission should be instant: %v", s)
	}
	versions := make(map[string]storage.Version)
	for i := 0; i < 40; i++ {
		w := h.write(mkey(i), []byte("v"), kv.All)
		if w.Err != nil {
			t.Fatal(w.Err)
		}
		versions[mkey(i)] = w.Version
	}
	runUntil(300 * time.Millisecond)
	// Re-join: now there is data to stream, one 50 ms chunk per key
	// through single read slots, so bootstrap streaming spans the first
	// join's stale guard at t≈0.5s.
	h.join(3)
	runUntil(550 * time.Millisecond)
	if s := h.cluster.State(3); s != kv.StateBootstrapping {
		t.Fatalf("placement flipped prematurely (stale guard): state = %v", s)
	}
	h.eng.RunFor(5 * time.Second)
	if s := h.cluster.State(3); s != kv.StateLive {
		t.Fatalf("re-join never completed: %v", s)
	}
	eng := h.cluster.Node(3).Engine()
	for i := 0; i < 40; i++ {
		k := mkey(i)
		for _, r := range h.cluster.Strategy().Replicas(k) {
			if r != 3 {
				continue
			}
			if cell, ok := eng.Peek(k); !ok || cell.Version != versions[k] {
				t.Fatalf("joiner missing owned key %s after re-join", k)
			}
		}
	}
}

// TestRestartOfDecommissionedStaysDecommissioned pins that a node whose
// decommission completed while it was crashed does not resurrect into
// the member states through Restart's warming path.
func TestRestartOfDecommissionedStaysDecommissioned(t *testing.T) {
	h := newHarness(netsim.SingleDC(5), slowStreamConfig(32))
	h.eng.Run()
	for i := 0; i < 40; i++ {
		if w := h.write(mkey(i), []byte("v"), kv.Quorum); w.Err != nil {
			t.Fatal(w.Err)
		}
	}
	// InitialMembers is {0,1,2} plus RF 3, so grow to 4 first.
	h.join(3)
	h.eng.RunFor(2 * time.Second)
	h.decommission(3)
	h.cluster.Crash(3) // mid-handoff; the wedge guard completes the decommission
	h.eng.RunFor(3 * time.Second)
	if s := h.cluster.State(3); s != kv.StateCrashed {
		t.Fatalf("state = %v, want crashed", s)
	}
	h.cluster.Recover(3)
	h.eng.RunFor(2 * time.Second)
	if s := h.cluster.State(3); s != kv.StateDecommissioned {
		t.Fatalf("restart resurrected a decommissioned node: %v", s)
	}
	if h.cluster.IsMember(3) || len(h.cluster.Members()) != 3 {
		t.Fatalf("ghost member: members=%v", h.cluster.Members())
	}
}

// TestJoinSurvivesStreamSourceFailure pins the wedge guard: a peer that
// fails mid-stream cannot stall the join forever — the guard timer flips
// the placement and the joiner converges through the normal machinery.
func TestJoinSurvivesStreamSourceFailure(t *testing.T) {
	cfg := elasticConfig(28)
	h := newHarness(netsim.SingleDC(5), cfg)
	for i := 0; i < 40; i++ {
		if w := h.write(mkey(i), []byte("v"), kv.All); w.Err != nil {
			t.Fatal(w.Err)
		}
	}
	h.eng.Run()
	h.join(3)
	h.cluster.Fail(0) // a stream source dies before its chunks leave
	h.eng.RunFor(15 * time.Second)
	if s := h.cluster.State(3); s != kv.StateLive {
		t.Fatalf("join wedged: state = %v", s)
	}
	if got := len(h.cluster.Members()); got != 4 {
		t.Fatalf("members = %d", got)
	}
}

// TestMembershipValidation pins the non-panicking validation errors of
// Join and Decommission.
func TestMembershipValidation(t *testing.T) {
	cfg := elasticConfig(34)
	cfg.InitialMembers = []netsim.NodeID{0, 1, 2, 3}
	h := newHarness(netsim.SingleDC(6), cfg)
	h.eng.Run()
	if err := h.cluster.Join(0); err == nil {
		t.Error("Join of a member accepted")
	}
	if err := h.cluster.Join(9); err == nil {
		t.Error("Join outside the topology accepted")
	}
	if err := h.cluster.Decommission(5); err == nil {
		t.Error("Decommission of a non-member accepted")
	}
	// 4 members at RF 3: one decommission is legal, a second would
	// under-replicate and must be rejected up front.
	if err := h.cluster.Decommission(3); err != nil {
		t.Fatalf("Decommission(3): %v", err)
	}
	h.eng.RunFor(5 * time.Second)
	if err := h.cluster.Decommission(2); err == nil {
		t.Error("Decommission below RF accepted")
	}
	if !h.cluster.MembershipSettled() {
		t.Error("cluster not settled after the decommission")
	}
}
