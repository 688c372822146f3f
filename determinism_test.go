package repro_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro"
)

// determinismHash pins the full transcript of the scenario below, as
// produced by the seed implementation of the discrete-event core. The
// fast-path overhaul (indexed event heap, pooled delivery, message
// pooling) must preserve bit-for-bit determinism: the same seed must keep
// producing this exact transcript. If a deliberate semantic change
// invalidates the hash, regenerate it with
//
//	REPRO_PRINT_TRANSCRIPT=1 go test -run TestDeterminismTranscript -v
//
// and update the constant with an explanation in the commit message.
const determinismHash = "2dd3b14fecd9cae5d3f1fbeddccfb76b897d77cc5c0c88daba8c9122f72d9668"

// determinismScenario drives a mixed workload that crosses every hot
// path: single reads/writes/deletes at levels ONE and QUORUM, multi-key
// batches, a node failure and recovery mid-run (hints, timeouts), and
// anti-entropy rounds with load shedding armed. It returns the op-by-op
// transcript plus the closing accounting lines.
func determinismScenario(seed uint64) []string {
	topo := repro.SingleDC(5)
	cfg := repro.Defaults(topo)
	cfg.Seed = seed
	cfg.AntiEntropyInterval = 150 * time.Millisecond
	cfg.AntiEntropySample = 16
	cfg.HintReplayInterval = 200 * time.Millisecond
	cfg.MutationShed = 250 * time.Millisecond
	cfg.DetectionDelay = 50 * time.Millisecond

	s := repro.NewSim(topo, cfg)
	one := s.StaticClient(repro.One, repro.One)
	quorum := s.StaticClient(repro.Quorum, repro.Quorum)
	ctx := context.Background()

	var log []string
	record := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	key := func(i int) string { return fmt.Sprintf("det%04d", i) }

	s.Preload(48, func(i uint64) string { return key(int(i)) }, []byte("seed-value"))

	recordRead := func(tag string, r repro.ReadResult) {
		record("%s get %s val=%q exists=%v stale=%v err=%v lat=%v ver=%v",
			tag, r.Key, r.Value, r.Exists, r.Stale, r.Err, r.Latency, r.Version)
	}
	recordWrite := func(tag string, w repro.WriteResult) {
		record("%s put %s err=%v lat=%v acked=%d ver=%v", tag, w.Key, w.Err, w.Latency, w.Acked, w.Version)
	}

	for round := 0; round < 6; round++ {
		cli, tag := one, "one"
		if round%2 == 1 {
			cli, tag = quorum, "quorum"
		}
		for i := 0; i < 8; i++ {
			k := key((round*7 + i*3) % 48)
			recordWrite(tag, cli.Put(ctx, k, []byte(fmt.Sprintf("r%d-i%d", round, i))))
			recordRead(tag, cli.Get(ctx, key((round*5+i)%48)))
		}
		ops := make([]repro.PutOp, 5)
		for i := range ops {
			ops[i] = repro.PutOp{Key: key((round*11 + i) % 48), Value: []byte(fmt.Sprintf("b%d-%d", round, i))}
		}
		ops[4].Delete = true
		for i, w := range cli.BatchPut(ctx, ops) {
			record("%s batchput %d %s err=%v acked=%d", tag, i, w.Key, w.Err, w.Acked)
		}
		keys := make([]string, 6)
		for i := range keys {
			keys[i] = key((round*13 + i) % 48)
		}
		for _, r := range cli.BatchGet(ctx, keys) {
			record("%s batchget %s val=%q exists=%v stale=%v err=%v", tag, r.Key, r.Value, r.Exists, r.Stale, r.Err)
		}

		switch round {
		case 1:
			s.Cluster.Fail(2) // transport drops its traffic at once
		case 3:
			s.Cluster.Recover(2)
		case 4:
			recordWrite("del", quorum.Delete(ctx, key(3)))
		}
		// Let timers, anti-entropy, hint replay and the failure detector
		// make progress between rounds.
		s.Run(300 * time.Millisecond)
	}
	// Drain to full quiescence so late acks, repairs and AE rounds are in
	// the accounting; timers (AE/hint ticks reschedule forever) are cut by
	// a horizon instead of Run-to-empty.
	s.Run(5 * time.Second)

	u := s.Cluster.Usage()
	m := s.Transport.Meter()
	record("stale-rate %.9f", s.StaleRate())
	record("usage busy=%v repReads=%d repWrites=%d coordOps=%d repairs=%d hintsReplayed=%d hintsDropped=%d ae=%d dropped=%d stored=%d",
		u.BusyTime, u.ReplicaReads, u.ReplicaWrites, u.CoordOps, u.ReadRepairs,
		u.HintsReplayed, u.HintsDropped, u.AERounds, u.DroppedMuts, u.StoredBytes)
	record("meter msgs=%v bytes=%v dropped=%d", m.Messages, m.Bytes, m.Dropped)
	record("engine events=%d now=%v", s.Engine.Events(), s.Now())
	return log
}

// started panics on a refused membership change: the transcripts pin
// runs in which every Join and Decommission starts.
func started(err error) {
	if err != nil {
		panic(err)
	}
}

// hashTranscript hashes the pinned portion of the transcript: every
// op-by-op result plus the stale-rate, usage and meter accounting. The
// "engine ..." line is excluded — fired-event counts may legitimately
// shrink when the optimization reclaims canceled timers instead of firing
// them as no-ops — but it still participates in the same-seed double-run
// comparison.
func hashTranscript(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		if strings.HasPrefix(l, "engine ") {
			continue
		}
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDeterminismTranscript asserts the simulator is a pure function of
// the seed across the fast-path refactor: two in-process runs must agree
// line for line, and the transcript must match the hash captured on the
// pre-optimization implementation.
func TestDeterminismTranscript(t *testing.T) {
	first := determinismScenario(42)
	second := determinismScenario(42)
	if len(first) != len(second) {
		t.Fatalf("same-seed runs differ in length: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("same-seed runs diverge at line %d:\n  a: %s\n  b: %s", i, first[i], second[i])
		}
	}
	got := hashTranscript(first)
	if os.Getenv("REPRO_PRINT_TRANSCRIPT") != "" {
		for _, l := range first {
			t.Log(l)
		}
		t.Logf("transcript hash: %s", got)
	}
	if got != determinismHash {
		t.Errorf("transcript hash = %s, want %s (the optimization changed observable behaviour; "+
			"rerun with REPRO_PRINT_TRANSCRIPT=1 to diff transcripts)", got, determinismHash)
	}
}

// crashDeterminismHashMem pins the transcript of the crash/restart
// scenario below on the default MemEngine, captured on the tree that
// introduced Cluster.Crash/Restart (PR 3). Same regeneration protocol as
// determinismHash, with -run TestDeterminismCrashRestart.
const crashDeterminismHashMem = "cf7ce4b70038e29e11fe96398e68aaa7c2c1eea2885e2fc28b67e2baa8c818aa"

// crashDeterminismHashLSM pins the same scenario on the LSM engine
// (WAL replay + run reload on restart are part of the transcript).
const crashDeterminismHashLSM = "2375f613c4a31c7b8d4db1eb65d31005558928871cab0506363cd46bb68da5f0"

// crashDeterminismScenario is determinismScenario's sibling for the
// crash/restart path: a replica crashes mid-run (losing volatile state),
// writes keep flowing (hinted for it), it restarts (the LSM engine
// replays its WAL) and catches up through hint replay and anti-entropy.
// The transcript logs every op plus the recovery stats and the closing
// accounting.
func crashDeterminismScenario(seed uint64, lsm bool) []string {
	topo := repro.SingleDC(5)
	cfg := repro.Defaults(topo)
	cfg.Seed = seed
	cfg.AntiEntropyInterval = 150 * time.Millisecond
	cfg.AntiEntropySample = 16
	cfg.HintReplayInterval = 200 * time.Millisecond
	cfg.DetectionDelay = 50 * time.Millisecond
	if lsm {
		cfg.Engine = repro.EngineLSM
		cfg.FlushLimit = 768   // force runs and compactions at toy scale
		cfg.MaxRuns = 2        // compact aggressively
		cfg.WALSyncBytes = 320 // crashes lose a real tail
	}

	s := repro.NewSim(topo, cfg)
	cli := s.StaticClient(repro.Quorum, repro.Quorum)
	ctx := context.Background()

	var log []string
	record := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	key := func(i int) string { return fmt.Sprintf("crash%04d", i) }

	s.Preload(32, func(i uint64) string { return key(int(i)) }, []byte("seed-value"))

	const victim = repro.NodeID(1)
	for round := 0; round < 6; round++ {
		for i := 0; i < 10; i++ {
			k := key((round*9 + i*5) % 32)
			w := cli.Put(ctx, k, []byte(fmt.Sprintf("r%d-i%d", round, i)))
			record("put %s err=%v acked=%d ver=%v", w.Key, w.Err, w.Acked, w.Version)
			r := cli.Get(ctx, key((round*3+i)%32))
			record("get %s val=%q exists=%v stale=%v err=%v ver=%v", r.Key, r.Value, r.Exists, r.Stale, r.Err, r.Version)
		}
		switch round {
		case 1:
			s.Cluster.Crash(victim)
			record("crash node=%d", victim)
		case 3:
			rs, _ := s.Cluster.Recover(victim)
			record("restart node=%d runs=%d runEntries=%d walRecords=%d torn=%v keys=%d",
				victim, rs.RunsLoaded, rs.RunEntries, rs.WALRecords, rs.TornTail, rs.Keys)
		}
		s.Run(300 * time.Millisecond)
	}
	s.Run(5 * time.Second)

	u := s.Cluster.Usage()
	record("stale-rate %.9f", s.StaleRate())
	record("usage busy=%v repReads=%d repWrites=%d coordOps=%d repairs=%d hintsReplayed=%d ae=%d stored=%d",
		u.BusyTime, u.ReplicaReads, u.ReplicaWrites, u.CoordOps, u.ReadRepairs,
		u.HintsReplayed, u.AERounds, u.StoredBytes)
	record("durability crashes=%d replays=%d walBytes=%d walSyncs=%d lost=%d compactions=%d",
		u.Crashes, u.WALReplays, u.WALBytes, u.WALSyncs, u.LostWALRecords, u.Compactions)
	return log
}

// TestDeterminismCrashRestart asserts the crash/restart path is a pure
// function of the seed on BOTH engines: two in-process runs must agree
// line for line, and the transcripts must match the hashes pinned when
// Crash/Restart was introduced.
func TestDeterminismCrashRestart(t *testing.T) {
	for _, tc := range []struct {
		name string
		lsm  bool
		want string
	}{
		{"mem", false, crashDeterminismHashMem},
		{"lsm", true, crashDeterminismHashLSM},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := crashDeterminismScenario(42, tc.lsm)
			second := crashDeterminismScenario(42, tc.lsm)
			if len(first) != len(second) {
				t.Fatalf("same-seed runs differ in length: %d vs %d", len(first), len(second))
			}
			for i := range first {
				if first[i] != second[i] {
					t.Fatalf("same-seed runs diverge at line %d:\n  a: %s\n  b: %s", i, first[i], second[i])
				}
			}
			got := hashTranscript(first)
			if os.Getenv("REPRO_PRINT_TRANSCRIPT") != "" {
				for _, l := range first {
					t.Log(l)
				}
				t.Logf("transcript hash: %s", got)
			}
			if got != tc.want {
				t.Errorf("transcript hash = %s, want %s (rerun with REPRO_PRINT_TRANSCRIPT=1 to diff)", got, tc.want)
			}
		})
	}
}

// membershipDeterminismHashMem pins the transcript of the elastic
// membership scenario below on the default MemEngine, captured on the
// tree that introduced Join/Decommission (PR 4). Same regeneration
// protocol as determinismHash, with -run TestDeterminismMembership.
const membershipDeterminismHashMem = "11b96301c186139d25242d53490c566a64e6122d5c17cbd02c44077c598f759e"

// membershipDeterminismHashLSM pins the same scenario on the LSM engine
// (snapshot streaming walks sealed runs there).
const membershipDeterminismHashLSM = "6aefdb042e0e9825c553e0890b2136193207b37311542a6f503e0cee7a1b370f"

// membershipDeterminismScenario exercises the elastic-membership paths
// end to end: a node joins via snapshot streaming and warms up, a
// replica crashes and restarts through the warming state, and a founding
// member decommissions by streaming its ownership out — all under
// Quorum traffic with anti-entropy, hint replay and the failure detector
// armed. Keys vary their prefix so the small key set still spreads over
// the ring. The transcript logs every op, every membership transition
// and the closing accounting.
func membershipDeterminismScenario(seed uint64, lsm bool) []string {
	topo := repro.SingleDC(6)
	cfg := repro.Defaults(topo)
	cfg.Seed = seed
	cfg.InitialMembers = []repro.NodeID{0, 1, 2, 3}
	cfg.WarmupDuration = 400 * time.Millisecond
	cfg.StreamChunkBytes = 512 // several chunks per stream at toy scale
	cfg.AntiEntropyInterval = 150 * time.Millisecond
	cfg.AntiEntropySample = 16
	cfg.HintReplayInterval = 200 * time.Millisecond
	cfg.DetectionDelay = 50 * time.Millisecond
	if lsm {
		cfg.Engine = repro.EngineLSM
		cfg.FlushLimit = 768
		cfg.MaxRuns = 2
		cfg.WALSyncBytes = 320
	}

	s := repro.NewSim(topo, cfg)
	cli := s.StaticClient(repro.Quorum, repro.Quorum)
	ctx := context.Background()

	var log []string
	record := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	key := func(i int) string { return fmt.Sprintf("%03d-elastic", i) }

	s.Preload(40, func(i uint64) string { return key(int(i)) }, []byte("seed-value"))

	states := func() string {
		var b strings.Builder
		for id := repro.NodeID(0); int(id) < topo.N(); id++ {
			fmt.Fprintf(&b, "%d=%v ", id, s.State(id))
		}
		return strings.TrimSpace(b.String())
	}
	for round := 0; round < 8; round++ {
		for i := 0; i < 8; i++ {
			k := key((round*9 + i*5) % 40)
			w := cli.Put(ctx, k, []byte(fmt.Sprintf("r%d-i%d", round, i)))
			record("put %s err=%v acked=%d ver=%v", w.Key, w.Err, w.Acked, w.Version)
			r := cli.Get(ctx, key((round*3+i)%40))
			record("get %s val=%q exists=%v stale=%v err=%v ver=%v", r.Key, r.Value, r.Exists, r.Stale, r.Err, r.Version)
		}
		switch round {
		case 1:
			started(s.Join(4))
			record("join node=4")
		case 3:
			s.Cluster.Crash(1)
			record("crash node=1")
		case 4:
			rs, _ := s.Cluster.Recover(1)
			record("restart node=1 runs=%d walRecords=%d torn=%v keys=%d",
				rs.RunsLoaded, rs.WALRecords, rs.TornTail, rs.Keys)
		case 5:
			started(s.Decommission(0))
			record("decommission node=0")
		}
		s.Run(300 * time.Millisecond)
		record("round %d members=%v states: %s", round, s.Members(), states())
	}
	s.Run(5 * time.Second)

	u := s.Cluster.Usage()
	record("stale-rate %.9f", s.StaleRate())
	record("usage busy=%v repReads=%d repWrites=%d coordOps=%d repairs=%d hintsReplayed=%d hintsDropped=%d ae=%d stored=%d",
		u.BusyTime, u.ReplicaReads, u.ReplicaWrites, u.CoordOps, u.ReadRepairs,
		u.HintsReplayed, u.HintsDropped, u.AERounds, u.StoredBytes)
	record("membership joins=%d decommissions=%d chunks=%d cellsOut=%d bytesOut=%d cellsIn=%d",
		u.Joins, u.Decommissions, u.StreamChunks, u.StreamedCells, u.StreamedBytes, u.StreamInCells)
	record("durability crashes=%d replays=%d lost=%d", u.Crashes, u.WALReplays, u.LostWALRecords)
	return log
}

// TestDeterminismMembership asserts the elastic-membership paths are a
// pure function of the seed on BOTH engines, pinned by hash like the
// crash/restart scenario.
func TestDeterminismMembership(t *testing.T) {
	for _, tc := range []struct {
		name string
		lsm  bool
		want string
	}{
		{"mem", false, membershipDeterminismHashMem},
		{"lsm", true, membershipDeterminismHashLSM},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := membershipDeterminismScenario(42, tc.lsm)
			second := membershipDeterminismScenario(42, tc.lsm)
			if len(first) != len(second) {
				t.Fatalf("same-seed runs differ in length: %d vs %d", len(first), len(second))
			}
			for i := range first {
				if first[i] != second[i] {
					t.Fatalf("same-seed runs diverge at line %d:\n  a: %s\n  b: %s", i, first[i], second[i])
				}
			}
			got := hashTranscript(first)
			if os.Getenv("REPRO_PRINT_TRANSCRIPT") != "" {
				for _, l := range first {
					t.Log(l)
				}
				t.Logf("transcript hash: %s", got)
			}
			if got != tc.want {
				t.Errorf("transcript hash = %s, want %s (rerun with REPRO_PRINT_TRANSCRIPT=1 to diff)", got, tc.want)
			}
		})
	}
}

// gossipDeterminismHashMem pins the transcript of the gossip-membership
// scenario below on the default MemEngine, captured on the tree that
// introduced SWIM dissemination (PR 7). Same regeneration protocol as
// determinismHash, with -run TestDeterminismGossip.
const gossipDeterminismHashMem = "b8504218bc75c298db0955fb8cd03a8532d052dd27a2580e561ddfee07f23465"

// gossipDeterminismHashLSM pins the same scenario on the LSM engine.
const gossipDeterminismHashLSM = "e5e7ba7cd91eb1310934fffe53f6413e9b07f81e65a0107b9df751e40eaa636b"

// gossipDeterminismScenario exercises the SWIM membership paths end to
// end: a node joins and the ring event spreads view-by-view (stale
// coordinators recover through the notOwner fallback), a member fails
// and every peer's local detector suspects it and ages the suspicion
// into a death verdict, the member recovers and the ping/ack refutation
// handshake resurrects it, and a founding member decommissions with the
// Left rumor spreading the same way — all under Quorum traffic with
// anti-entropy, hint replay and the per-node probe timers armed. The
// transcript logs every op, the per-round view agreement and the gossip
// accounting.
func gossipDeterminismScenario(seed uint64, lsm bool) []string {
	topo := repro.SingleDC(6)
	cfg := repro.Defaults(topo)
	cfg.Seed = seed
	cfg.InitialMembers = []repro.NodeID{0, 1, 2, 3}
	cfg.WarmupDuration = 400 * time.Millisecond
	cfg.StreamChunkBytes = 512
	cfg.AntiEntropyInterval = 150 * time.Millisecond
	cfg.AntiEntropySample = 16
	cfg.HintReplayInterval = 200 * time.Millisecond
	cfg.DetectionDelay = 50 * time.Millisecond
	cfg.Gossip = true
	cfg.GossipInterval = 100 * time.Millisecond // converge within a round at toy scale
	if lsm {
		cfg.Engine = repro.EngineLSM
		cfg.FlushLimit = 768
		cfg.MaxRuns = 2
		cfg.WALSyncBytes = 320
	}

	s := repro.NewSim(topo, cfg)
	cli := s.StaticClient(repro.Quorum, repro.Quorum)
	ctx := context.Background()

	var log []string
	record := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	key := func(i int) string { return fmt.Sprintf("%03d-gossip", i) }

	s.Preload(40, func(i uint64) string { return key(int(i)) }, []byte("seed-value"))

	for round := 0; round < 8; round++ {
		for i := 0; i < 8; i++ {
			k := key((round*9 + i*5) % 40)
			w := cli.Put(ctx, k, []byte(fmt.Sprintf("r%d-i%d", round, i)))
			record("put %s err=%v acked=%d ver=%v", w.Key, w.Err, w.Acked, w.Version)
			r := cli.Get(ctx, key((round*3+i)%40))
			record("get %s val=%q exists=%v stale=%v err=%v ver=%v", r.Key, r.Value, r.Exists, r.Stale, r.Err, r.Version)
		}
		switch round {
		case 1:
			started(s.Join(4))
			record("join node=4")
		case 2:
			s.Cluster.Crash(2) // gossip state survives, probe timers re-arm at restart
			record("crash node=2")
		case 3:
			s.Cluster.Fail(1)
			record("fail node=1")
		case 4:
			rs, _ := s.Cluster.Recover(2)
			record("restart node=2 runs=%d walRecords=%d torn=%v keys=%d",
				rs.RunsLoaded, rs.WALRecords, rs.TornTail, rs.Keys)
		case 5:
			s.Cluster.Recover(1)
			record("recover node=1")
		case 6:
			started(s.Decommission(0))
			record("decommission node=0")
		}
		s.Run(300 * time.Millisecond)
		record("round %d members=%v agreement=%.3f converged=%v",
			round, s.Members(), s.ViewAgreement(), s.MembershipConverged())
	}
	s.Run(5 * time.Second)

	u := s.Cluster.Usage()
	record("stale-rate %.9f", s.StaleRate())
	record("usage busy=%v repReads=%d repWrites=%d coordOps=%d repairs=%d hintsReplayed=%d ae=%d stored=%d",
		u.BusyTime, u.ReplicaReads, u.ReplicaWrites, u.CoordOps, u.ReadRepairs,
		u.HintsReplayed, u.AERounds, u.StoredBytes)
	record("gossip rounds=%d suspicions=%d dead=%d events=%d refusals=%d wrongOwnerRetries=%d warmViolations=%d",
		u.GossipRounds, u.GossipSuspicions, u.GossipDeadDeclared, u.GossipEvents,
		u.NotOwnerReplies, u.WrongOwnerRetries, u.WarmViolations)
	record("membership joins=%d decommissions=%d agreement=%.3f", u.Joins, u.Decommissions, s.ViewAgreement())
	return log
}

// TestDeterminismGossip asserts the SWIM membership paths are a pure
// function of the seed on BOTH engines, pinned by hash like the other
// scenarios.
func TestDeterminismGossip(t *testing.T) {
	for _, tc := range []struct {
		name string
		lsm  bool
		want string
	}{
		{"mem", false, gossipDeterminismHashMem},
		{"lsm", true, gossipDeterminismHashLSM},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := gossipDeterminismScenario(42, tc.lsm)
			second := gossipDeterminismScenario(42, tc.lsm)
			if len(first) != len(second) {
				t.Fatalf("same-seed runs differ in length: %d vs %d", len(first), len(second))
			}
			for i := range first {
				if first[i] != second[i] {
					t.Fatalf("same-seed runs diverge at line %d:\n  a: %s\n  b: %s", i, first[i], second[i])
				}
			}
			got := hashTranscript(first)
			if os.Getenv("REPRO_PRINT_TRANSCRIPT") != "" {
				for _, l := range first {
					t.Log(l)
				}
				t.Logf("transcript hash: %s", got)
			}
			if got != tc.want {
				t.Errorf("transcript hash = %s, want %s (rerun with REPRO_PRINT_TRANSCRIPT=1 to diff)", got, tc.want)
			}
		})
	}
}

// hotCacheDeterminismHashMem pins the transcript of the hot-key cache
// scenario below on the default MemEngine, captured on the tree that
// introduced the freshness-bounded coordinator read cache (PR 8). Same
// regeneration protocol as determinismHash, with -run
// TestDeterminismHotCache.
const hotCacheDeterminismHashMem = "c266558e5c195793f530b731ad892a45b9181b0f20e9905449e46ad3939ae80a"

// hotCacheDeterminismHashLSM pins the same scenario on the LSM engine.
const hotCacheDeterminismHashLSM = "c1beb9edce5e063cd1baae06c7b04477cd1eb50d925a0b8f27992344fabf7423"

// hotCacheDeterminismScenario exercises the hot-key cache paths end to
// end: skewed ONE reads hammer a four-key head until the tracker
// promotes it and the cache starts answering in the coordinator,
// interleaved writes invalidate entries and re-tighten the per-key
// freshness bounds, a membership flip (join mid-run, decommission late)
// drops every node's cache at the placement flip, and a failure plus
// recovery exercises the crash-path drop — all with anti-entropy, hint
// replay and the failure detector armed. The transcript logs every op
// with its cached flag, the per-round hot set, and the closing cache
// accounting.
func hotCacheDeterminismScenario(seed uint64, lsm bool) []string {
	topo := repro.SingleDC(6)
	cfg := repro.Defaults(topo)
	cfg.Seed = seed
	cfg.InitialMembers = []repro.NodeID{0, 1, 2, 3}
	cfg.WarmupDuration = 400 * time.Millisecond
	cfg.StreamChunkBytes = 512
	cfg.AntiEntropyInterval = 150 * time.Millisecond
	cfg.AntiEntropySample = 16
	cfg.HintReplayInterval = 200 * time.Millisecond
	cfg.DetectionDelay = 50 * time.Millisecond
	cfg.HotCache = true
	cfg.HotSetSize = 4
	cfg.HotSetEvalOps = 32 // promote within a round at toy scale
	cfg.HotPromoteShare = 0.05
	if lsm {
		cfg.Engine = repro.EngineLSM
		cfg.FlushLimit = 768
		cfg.MaxRuns = 2
		cfg.WALSyncBytes = 320
	}

	s := repro.NewSim(topo, cfg)
	one := s.StaticClient(repro.One, repro.One)
	quorum := s.StaticClient(repro.Quorum, repro.Quorum)
	ctx := context.Background()

	var log []string
	record := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	key := func(i int) string { return fmt.Sprintf("%03d-hot", i) }

	s.Preload(40, func(i uint64) string { return key(int(i)) }, []byte("seed-value"))

	for round := 0; round < 8; round++ {
		for i := 0; i < 12; i++ {
			// Three reads in four land on the four-key head; ONE reads
			// are cacheable, the interleaved QUORUM read must bypass.
			// The head shifts by four keys halfway through the run so
			// demotion hysteresis swaps the tracked set.
			k := key(i%4 + 4*(round/4))
			if i%4 == 3 {
				k = key((round*7 + i) % 40)
			}
			cli, tag := one, "one"
			if i%6 == 5 {
				cli, tag = quorum, "quorum"
			}
			r := cli.Get(ctx, k)
			record("%s get %s val=%q exists=%v stale=%v cached=%v err=%v ver=%v",
				tag, r.Key, r.Value, r.Exists, r.Stale, r.Cached, r.Err, r.Version)
			if i%3 == 0 {
				wk := key((round + i) % 5) // overlaps the head: invalidations
				w := one.Put(ctx, wk, []byte(fmt.Sprintf("r%d-i%d", round, i)))
				record("put %s err=%v acked=%d ver=%v", w.Key, w.Err, w.Acked, w.Version)
			}
		}
		switch round {
		case 2:
			started(s.Join(4))
			record("join node=4")
		case 4:
			s.Cluster.Crash(1) // volatile state — including the cache — is lost
			record("crash node=1")
		case 5:
			rs, _ := s.Cluster.Recover(1)
			record("restart node=1 runs=%d walRecords=%d torn=%v keys=%d",
				rs.RunsLoaded, rs.WALRecords, rs.TornTail, rs.Keys)
		case 6:
			started(s.Decommission(0))
			record("decommission node=0")
		}
		s.Run(300 * time.Millisecond)
		record("round %d members=%v hot=%v", round, s.Members(), s.HotKeys())
	}
	s.Run(5 * time.Second)

	u := s.Cluster.Usage()
	record("stale-rate %.9f", s.StaleRate())
	record("usage busy=%v repReads=%d repWrites=%d coordOps=%d repairs=%d hintsReplayed=%d ae=%d stored=%d",
		u.BusyTime, u.ReplicaReads, u.ReplicaWrites, u.CoordOps, u.ReadRepairs,
		u.HintsReplayed, u.AERounds, u.StoredBytes)
	record("durability crashes=%d replays=%d lost=%d", u.Crashes, u.WALReplays, u.LostWALRecords)
	record("cache hits=%d misses=%d fills=%d invalidations=%d expired=%d ringEvicted=%d staleServed=%d",
		u.CacheHits, u.CacheMisses, u.CacheFills, u.CacheInvalidations,
		u.CacheExpired, u.CacheRingEvicted, u.CacheStaleServed)
	record("hotset promotions=%d demotions=%d now=%d", u.HotPromotions, u.HotDemotions, u.HotKeysNow)
	return log
}

// TestDeterminismHotCache asserts the hot-key cache paths are a pure
// function of the seed on BOTH engines, pinned by hash like the other
// scenarios — and that the cache actually engaged (the hash would
// otherwise pin a vacuous scenario).
func TestDeterminismHotCache(t *testing.T) {
	for _, tc := range []struct {
		name string
		lsm  bool
		want string
	}{
		{"mem", false, hotCacheDeterminismHashMem},
		{"lsm", true, hotCacheDeterminismHashLSM},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := hotCacheDeterminismScenario(42, tc.lsm)
			second := hotCacheDeterminismScenario(42, tc.lsm)
			if len(first) != len(second) {
				t.Fatalf("same-seed runs differ in length: %d vs %d", len(first), len(second))
			}
			for i := range first {
				if first[i] != second[i] {
					t.Fatalf("same-seed runs diverge at line %d:\n  a: %s\n  b: %s", i, first[i], second[i])
				}
			}
			var engaged bool
			for _, l := range first {
				if strings.HasPrefix(l, "cache hits=") && !strings.HasPrefix(l, "cache hits=0 ") {
					engaged = true
				}
			}
			if !engaged {
				t.Error("scenario produced no cache hits; the pinned transcript is vacuous")
			}
			got := hashTranscript(first)
			if os.Getenv("REPRO_PRINT_TRANSCRIPT") != "" {
				for _, l := range first {
					t.Log(l)
				}
				t.Logf("transcript hash: %s", got)
			}
			if got != tc.want {
				t.Errorf("transcript hash = %s, want %s (rerun with REPRO_PRINT_TRANSCRIPT=1 to diff)", got, tc.want)
			}
		})
	}
}

// TestDeterminismAcrossSeeds sanity-checks that the transcript actually
// depends on the seed (the hash is not vacuous).
func TestDeterminismAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if hashTranscript(determinismScenario(42)) == hashTranscript(determinismScenario(43)) {
		t.Fatal("different seeds produced identical transcripts")
	}
}
