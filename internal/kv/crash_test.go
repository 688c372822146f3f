package kv_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/netsim"
	"repro/internal/storage"
)

func key(i int) string { return fmt.Sprintf("crash%04d", i) }

// lsmConfig is quietConfig on the LSM engine with settings small enough
// that runs, syncs and crash-lost tails actually happen in tests.
func lsmConfig(seed uint64) kv.Config {
	cfg := quietConfig(seed)
	cfg.Engine = storage.LSM
	cfg.FlushLimit = 4 << 10
	cfg.WALSyncBytes = 1 << 10
	return cfg
}

// TestFailPreservesStateCrashLosesIt pins the naming contract documented
// on Cluster.Fail/Crash: a network-level Fail cuts traffic but the node
// keeps every write it held; a Crash loses volatile state (everything,
// on the default MemEngine).
func TestFailPreservesStateCrashLosesIt(t *testing.T) {
	h := newHarness(netsim.SingleDC(5), quietConfig(11))
	w := h.write("k", []byte("v"), kv.All)
	if w.Err != nil {
		t.Fatal(w.Err)
	}
	h.eng.Run()
	victim := h.cluster.Strategy().Replicas("k")[0]
	if cell, ok := h.cluster.Node(victim).Engine().Peek("k"); !ok || cell.Version != w.Version {
		t.Fatal("replica missing the write before failure injection")
	}

	// Network failure: state preserved throughout.
	h.cluster.Fail(victim)
	h.eng.RunFor(2 * time.Second)
	if cell, ok := h.cluster.Node(victim).Engine().Peek("k"); !ok || cell.Version != w.Version {
		t.Fatal("Fail must preserve node state")
	}
	h.cluster.Recover(victim)
	h.eng.RunFor(2 * time.Second)
	if cell, ok := h.cluster.Node(victim).Engine().Peek("k"); !ok || cell.Version != w.Version {
		t.Fatal("state lost across Fail/Recover")
	}

	// Recovering a node without a fault leaves it as it is.
	if rs, err := h.cluster.Recover(victim); err != nil || rs != (storage.RecoverStats{}) {
		t.Fatalf("Recover of a live node: %+v, %v", rs, err)
	}
	if cell, ok := h.cluster.Node(victim).Engine().Peek("k"); !ok || cell.Version != w.Version {
		t.Fatal("Recover of a live node touched its state")
	}

	// Process crash: the MemEngine node comes back empty.
	h.cluster.Crash(victim)
	h.eng.RunFor(2 * time.Second)
	// A crashed node is already more faulted than Fail and as faulted
	// as Crash: both leave it crashed, and it crashes once.
	if err := h.cluster.Fail(victim); err != nil || h.cluster.State(victim) != kv.StateCrashed {
		t.Fatalf("Fail of a crashed node: %v, state %v", err, h.cluster.State(victim))
	}
	if err := h.cluster.Crash(victim); err != nil || h.cluster.State(victim) != kv.StateCrashed {
		t.Fatalf("second Crash: %v, state %v", err, h.cluster.State(victim))
	}
	rs, err := h.cluster.Recover(victim)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Keys != 0 || rs.WALRecords != 0 {
		t.Fatalf("MemEngine recovered state from nowhere: %+v", rs)
	}
	if _, ok := h.cluster.Node(victim).Engine().Peek("k"); ok {
		t.Fatal("Crash must lose MemEngine state")
	}
	if h.cluster.Usage().Crashes != 1 {
		t.Fatalf("usage crashes = %d", h.cluster.Usage().Crashes)
	}
}

// TestCrashRestartLSMReplaysWAL: an LSM node recovers its durable prefix
// by itself, before any repair traffic reaches it.
func TestCrashRestartLSMReplaysWAL(t *testing.T) {
	h := newHarness(netsim.SingleDC(5), lsmConfig(12))
	var versions []storage.Version
	for i := 0; i < 40; i++ {
		w := h.write(key(i), []byte("payload-payload-payload"), kv.All)
		if w.Err != nil {
			t.Fatal(w.Err)
		}
		versions = append(versions, w.Version)
	}
	h.eng.Run()
	victim := h.cluster.Strategy().Replicas(key(0))[0]

	h.cluster.Crash(victim)
	h.eng.RunFor(2 * time.Second)
	rs, _ := h.cluster.Recover(victim)
	if rs.WALRecords == 0 && rs.RunsLoaded == 0 {
		t.Fatalf("LSM restart recovered nothing: %+v", rs)
	}
	// Every ALL-level write synced before the crash must be back without
	// any network help (background tasks are disabled in quietConfig).
	eng := h.cluster.Node(victim).Engine()
	recovered := 0
	for i := range versions {
		if cell, ok := eng.Peek(key(i)); ok && cell.Version == versions[i] {
			recovered++
		}
	}
	if recovered < rs.Keys {
		t.Fatalf("recovered %d keys, engine reports %d", recovered, rs.Keys)
	}
	if recovered == 0 {
		t.Fatal("no writes survived the crash despite the WAL")
	}
}

// TestCrashRecoveryCatchUp: after restart, hinted handoff and
// anti-entropy converge the crashed replica back to the full write set —
// for both engines; the LSM node just starts from a much better prefix.
func TestCrashRecoveryCatchUp(t *testing.T) {
	for _, engine := range []storage.Kind{storage.Mem, storage.LSM} {
		t.Run(engine.String(), func(t *testing.T) {
			cfg := lsmConfig(13)
			cfg.Engine = engine
			cfg.HintReplayInterval = 100 * time.Millisecond
			cfg.AntiEntropyInterval = 150 * time.Millisecond
			cfg.AntiEntropySample = 256
			cfg.DetectionDelay = 50 * time.Millisecond
			h := newHarness(netsim.SingleDC(5), cfg)

			var latest []storage.Version
			for i := 0; i < 30; i++ {
				w := h.write(key(i), []byte("before-crash"), kv.Quorum)
				if w.Err != nil {
					t.Fatal(w.Err)
				}
				latest = append(latest, w.Version)
			}
			victim := h.cluster.Strategy().Replicas(key(0))[0]
			h.cluster.Crash(victim)
			h.eng.RunFor(1 * time.Second) // detector converges
			// Writes during the outage are hinted for the victim.
			for i := 0; i < 30; i++ {
				w := h.write(key(i), []byte("during-outage"), kv.Quorum)
				if w.Err != nil {
					t.Fatal(w.Err)
				}
				latest[i] = w.Version
			}
			h.cluster.Recover(victim)
			h.eng.RunFor(10 * time.Second) // hints + anti-entropy converge

			eng := h.cluster.Node(victim).Engine()
			for i := range latest {
				cell, ok := eng.Peek(key(i))
				if !ok || cell.Version != latest[i] {
					t.Fatalf("engine %v: key %s did not converge: ok=%v %+v want %v",
						engine, key(i), ok, cell.Version, latest[i])
				}
			}
			u := h.cluster.Usage()
			if u.Crashes != 1 || u.WALReplays != 1 {
				t.Fatalf("usage: crashes=%d replays=%d", u.Crashes, u.WALReplays)
			}
		})
	}
}

// TestCrashDropsInFlightCoordination: operations coordinated by the
// crashing node fail via the client guard instead of hanging, and a
// restarted node serves fresh traffic.
func TestCrashDropsInFlightCoordination(t *testing.T) {
	cfg := quietConfig(14)
	h := newHarness(netsim.SingleDC(3), cfg)
	if w := h.write("warm", []byte("v"), kv.All); w.Err != nil {
		t.Fatal(w.Err)
	}
	h.eng.Run()

	// Launch a write and crash its coordinator before completion: the
	// round-robin picker will choose node order[rr%n]; issue and
	// immediately crash every node once to cover whichever coordinates.
	done := 0
	var errs []error
	for i := 0; i < 3; i++ {
		h.cluster.Write("inflight", []byte("x"), kv.All, func(r kv.WriteResult) {
			done++
			if r.Err != nil {
				errs = append(errs, r.Err)
			}
		})
	}
	h.cluster.Crash(0)
	for done < 3 && h.eng.Step() {
	}
	if done != 3 {
		t.Fatalf("client callbacks fired %d/3 (operation hung after crash)", done)
	}
	h.cluster.Recover(0)
	h.eng.RunFor(2 * time.Second)
	if w := h.write("after", []byte("v2"), kv.Quorum); w.Err != nil {
		t.Fatalf("write after restart: %v", w.Err)
	}
}

// faultVerb is one of Cluster.Fail, Crash and Recover, as a schedule
// step.
type faultVerb struct {
	name string
	do   func(*kv.Cluster, netsim.NodeID) error
}

var (
	failVerb    = faultVerb{"Fail", (*kv.Cluster).Fail}
	crashVerb   = faultVerb{"Crash", (*kv.Cluster).Crash}
	recoverVerb = faultVerb{"Recover", func(c *kv.Cluster, id netsim.NodeID) error {
		_, err := c.Recover(id)
		return err
	}}
)

// TestFaultTransitions pins the fault rule documented on Cluster.Fail,
// Crash and Recover: the verbs take any order. Fail then Crash and Crash
// then Fail both leave the node crashed, and Recover brings it back live
// and, on MemEngine, empty; Fail then Recover keeps its state. An id
// that was never a member is refused with ErrNotMember by all three.
func TestFaultTransitions(t *testing.T) {
	for _, tc := range []struct {
		verbs   []faultVerb
		keeps   bool   // the node still holds its write afterwards
		crashes uint64 // Usage().Crashes afterwards
	}{
		{[]faultVerb{failVerb, recoverVerb}, true, 0},
		{[]faultVerb{failVerb, crashVerb, recoverVerb}, false, 1},
		{[]faultVerb{crashVerb, failVerb, recoverVerb}, false, 1},
	} {
		var name string
		for _, v := range tc.verbs {
			name += v.name
		}
		t.Run(name, func(t *testing.T) {
			h := newHarness(netsim.SingleDC(5), quietConfig(11))
			if w := h.write("k", []byte("v"), kv.All); w.Err != nil {
				t.Fatal(w.Err)
			}
			h.eng.Run()
			victim := h.cluster.Strategy().Replicas("k")[0]
			for _, v := range tc.verbs {
				if err := v.do(h.cluster, victim); err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				h.eng.RunFor(2 * time.Second)
			}
			if s := h.cluster.State(victim); s != kv.StateLive {
				t.Fatalf("state = %v, want live", s)
			}
			if _, ok := h.cluster.Node(victim).Engine().Peek("k"); ok != tc.keeps {
				t.Fatalf("node holds its write: %v, want %v", ok, tc.keeps)
			}
			if c := h.cluster.Usage().Crashes; c != tc.crashes {
				t.Fatalf("crashes = %d, want %d", c, tc.crashes)
			}
			if w := h.write("after", []byte("v"), kv.All); w.Err != nil {
				t.Fatalf("ALL write after the schedule: %v", w.Err)
			}
		})
	}

	h := newHarness(netsim.SingleDC(5), quietConfig(11))
	for _, id := range []netsim.NodeID{-1, 5, 1 << 20} {
		for _, v := range []faultVerb{recoverVerb, failVerb, crashVerb} {
			if err := v.do(h.cluster, id); !errors.Is(err, kv.ErrNotMember) {
				t.Errorf("%s(%d) = %v, want ErrNotMember", v.name, id, err)
			}
		}
		if s := h.cluster.State(id); s != kv.StateNotMember {
			t.Errorf("State(%d) = %v after refused verbs", id, s)
		}
	}
}

// storeError reports whether err is one of the store's typed operation
// failures.
func storeError(err error) bool {
	for _, e := range []error{kv.ErrTimeout, kv.ErrUnavailable, kv.ErrDeadline, kv.ErrCanceled} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// FuzzFaults drives a five-node cluster through a fault schedule the
// input bytes decode into, two bytes a step and at most 64 steps: Fail,
// Crash or Recover on an id from -1 to 6 (members 0–4 and ids no member
// has), a read or write at ONE, QUORUM or ALL, or virtual time passing.
// After every step nothing has panicked and every State agrees with a
// three-state model (live, failed, crashed; ErrNotMember exactly for
// the non-members). Once every node has recovered and the cluster is
// quiescent, every operation's callback has run exactly once, with a
// nil error or a typed store error. Membership changes stay out.
func FuzzFaults(f *testing.F) {
	const (
		opFail byte = iota
		opCrash
		opRecover
		opOther // arg%8: 0–2 read, 3–5 write (ONE, QUORUM, ALL), 6–7 run
	)
	id := func(n int) byte { return byte(n + 1) } // the arg decoding to id n
	f.Add([]byte{opFail, id(2), opCrash, id(2), opRecover, id(2)})
	f.Add([]byte{opCrash, id(2), opFail, id(2), opRecover, id(2)})
	f.Add([]byte{opRecover, id(1), opOther, 4})
	f.Add([]byte{opFail, id(5), opCrash, id(-1), opRecover, id(6)})
	f.Add([]byte{opOther, 3, opFail, id(0), opOther, 5, opOther, 0, opCrash, id(0),
		opOther, 14, opOther, 2, opOther, 15, opRecover, id(0), opOther, 1})
	levels := []kv.Level{kv.One, kv.Quorum, kv.All}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := quietConfig(1)
		cfg.WarmupDuration = 0
		cfg.Timeout = 100 * time.Millisecond
		cfg.DetectionDelay = 50 * time.Millisecond
		h := newHarness(netsim.SingleDC(5), cfg)
		model := []kv.NodeState{kv.StateLive, kv.StateLive, kv.StateLive, kv.StateLive, kv.StateLive}
		var calls []int
		track := func() func(error) {
			i := len(calls)
			calls = append(calls, 0)
			return func(err error) {
				if calls[i]++; calls[i] > 1 {
					t.Fatalf("operation %d completed twice", i)
				}
				if err != nil && !storeError(err) {
					t.Fatalf("operation %d failed with %v, not a store error", i, err)
				}
			}
		}
		fault := func(op byte, id netsim.NodeID) {
			member := id >= 0 && int(id) < len(model)
			verb := []faultVerb{failVerb, crashVerb, recoverVerb}[op]
			err := verb.do(h.cluster, id)
			if member && err != nil || !member && !errors.Is(err, kv.ErrNotMember) {
				t.Fatalf("%s(%d) = %v", verb.name, id, err)
			}
			if !member {
				return
			}
			switch {
			case op == opRecover:
				model[id] = kv.StateLive
			case op == opCrash:
				model[id] = kv.StateCrashed
			case model[id] == kv.StateLive:
				model[id] = kv.StateFailed
			}
		}
		for s := 0; s+1 < len(data) && s < 2*64; s += 2 {
			op, arg := data[s]%4, data[s+1]
			key := fmt.Sprintf("k%d", s%3)
			switch {
			case op != opOther:
				fault(op, netsim.NodeID(arg%8)-1)
			case arg%8 < 3:
				done := track()
				h.cluster.Read(key, levels[arg%8], func(r kv.ReadResult) { done(r.Err) })
			case arg%8 < 6:
				done := track()
				h.cluster.Write(key, []byte{arg}, levels[arg%8-3], func(r kv.WriteResult) { done(r.Err) })
			default:
				h.eng.RunFor(time.Duration(arg/8+1) * 10 * time.Millisecond)
			}
			for id := netsim.NodeID(-1); id <= 6; id++ {
				want := kv.StateNotMember
				if id >= 0 && int(id) < len(model) {
					want = model[id]
				}
				if got := h.cluster.State(id); got != want {
					t.Fatalf("step %d: State(%d) = %v, want %v", s/2, id, got, want)
				}
			}
		}
		for id := range model {
			fault(opRecover, netsim.NodeID(id))
		}
		h.eng.Run()
		for i, n := range calls {
			if n != 1 {
				t.Fatalf("operation %d completed %d times at quiescence", i, n)
			}
		}
	})
}

// TestWALBytesAreFileBytes: on LSM engines over file WALs, Usage.WALBytes
// is exactly the bytes the WAL files received. Every record syncs (one
// write at the watermark) and no memtable flushes (a flush rewinds the
// watermark, and later syncs overwrite), so each file's length is the
// bytes written to it.
func TestWALBytesAreFileBytes(t *testing.T) {
	const nodes = 4
	cfg := quietConfig(41)
	cfg.Engine = storage.LSM
	cfg.WALDir = t.TempDir()
	cfg.WALSyncBytes = 0
	cfg.FlushLimit = 0
	h := newHarness(netsim.SingleDC(nodes), cfg)
	t.Cleanup(func() {
		if err := h.cluster.Close(); err != nil {
			t.Error(err)
		}
	})
	for i := 0; i < 40; i++ {
		if w := h.write(key(i), []byte(strings.Repeat("v", i)), kv.All); w.Err != nil {
			t.Fatal(w.Err)
		}
	}
	done := false
	h.cluster.Delete(key(3), kv.All, func(kv.WriteResult) { done = true })
	h.eng.Run()
	if !done {
		t.Fatal("delete never completed")
	}

	var written int64
	for id := 0; id < nodes; id++ {
		fi, err := os.Stat(filepath.Join(cfg.WALDir, fmt.Sprintf("wal-%d.log", id)))
		if err != nil {
			t.Fatal(err)
		}
		written += fi.Size()
	}
	u := h.cluster.Usage()
	if u.FlushedBytes != 0 || u.WALSyncs == 0 {
		t.Fatalf("flushed %d bytes over %d syncs; the test needs syncs and no flush", u.FlushedBytes, u.WALSyncs)
	}
	if u.WALBytes != uint64(written) {
		t.Errorf("Usage.WALBytes = %d, the WAL files hold %d bytes", u.WALBytes, written)
	}
}
