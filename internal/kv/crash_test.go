package kv_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/netsim"
	"repro/internal/storage"
)

func key(i int) string { return fmt.Sprintf("crash%04d", i) }

// mustPanic asserts fn panics (the failure-injection contract checks).
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

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

	// Restart pairs with Crash: a node that never crashed must not be
	// restartable.
	mustPanic(t, "Restart without Crash", func() { h.cluster.Restart(victim) })

	// Process crash: the MemEngine node comes back empty.
	h.cluster.Crash(victim)
	h.eng.RunFor(2 * time.Second)
	// Recover pairs with Fail, not Crash: the crashed node would stay
	// deaf while the detector marks it up.
	mustPanic(t, "Recover after Crash", func() { h.cluster.Recover(victim) })
	mustPanic(t, "double Crash", func() { h.cluster.Crash(victim) })
	rs := h.cluster.Restart(victim)
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
	rs := h.cluster.Restart(victim)
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
			h.cluster.Restart(victim)
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
	h.cluster.Restart(0)
	h.eng.RunFor(2 * time.Second)
	if w := h.write("after", []byte("v2"), kv.Quorum); w.Err != nil {
		t.Fatalf("write after restart: %v", w.Err)
	}
}
