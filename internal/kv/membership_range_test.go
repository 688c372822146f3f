package kv_test

import (
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// TestRangeStreamReadsMovedFractionOnly is the PR10 acceptance pin: at
// N=8 members, a join's stream senders read cells proportional to the
// moved ~1/(N+1) fraction of the keyspace, not the store size. The
// full-walk baseline (what the per-key filter path read) is the total
// resident cell count across the eight peers at join time; the
// range-addressed path must read at least 5× fewer.
func TestRangeStreamReadsMovedFractionOnly(t *testing.T) {
	for _, engine := range []storage.Kind{storage.Mem, storage.LSM} {
		t.Run(engine.String(), func(t *testing.T) {
			cfg := quietConfig(31)
			cfg.Engine = engine
			cfg.InitialMembers = []netsim.NodeID{0, 1, 2, 3, 4, 5, 6, 7}
			cfg.WarmupDuration = 200 * time.Millisecond
			h := newHarness(netsim.SingleDC(9), cfg)

			const nKeys = 600
			for i := 0; i < nKeys; i++ {
				if w := h.write(mkey(i), []byte("range-stream-payload"), kv.All); w.Err != nil {
					t.Fatal(w.Err)
				}
			}
			h.eng.Run()

			fullWalk := 0
			for _, id := range h.cluster.Members() {
				fullWalk += h.cluster.Node(id).Engine().Len()
			}
			if fullWalk != nKeys*cfg.RF {
				t.Fatalf("baseline store holds %d cells, want %d (RF %d × %d keys)",
					fullWalk, nKeys*cfg.RF, cfg.RF, nKeys)
			}

			h.join(8)
			h.eng.RunFor(2 * time.Second)
			if s := h.cluster.State(8); s != kv.StateLive {
				t.Fatalf("joiner state = %v, want live", s)
			}

			u := h.cluster.Usage()
			if u.StreamSnapshotCells == 0 {
				t.Fatal("no snapshot cells metered; range stream did not run")
			}
			// Senders read exactly what they streamed: the single-source
			// rule means each moved cell is read by one peer.
			if u.StreamSnapshotCells != u.StreamedCells {
				t.Fatalf("snapshot reads %d != streamed cells %d", u.StreamSnapshotCells, u.StreamedCells)
			}
			if ratio := float64(fullWalk) / float64(u.StreamSnapshotCells); ratio < 5 {
				t.Fatalf("range stream read %d of %d cells (%.1fx reduction), want >= 5x",
					u.StreamSnapshotCells, fullWalk, ratio)
			}

			// The joiner converged: it holds every key it now owns.
			eng := h.cluster.Node(8).Engine()
			owned := 0
			for i := 0; i < nKeys; i++ {
				k := mkey(i)
				isReplica := false
				for _, r := range h.cluster.Strategy().Replicas(k) {
					if r == 8 {
						isReplica = true
					}
				}
				if !isReplica {
					continue
				}
				owned++
				if _, ok := eng.Peek(k); !ok {
					t.Fatalf("joiner missing owned key %s", k)
				}
			}
			if owned == 0 {
				t.Fatal("joiner owns no keys; rebalance did not move anything")
			}
			if int(u.StreamSnapshotCells) < owned {
				t.Fatalf("stream read %d cells but joiner owns %d", u.StreamSnapshotCells, owned)
			}
		})
	}
}

// TestJoinEmptyStoreNoopStream pins the empty-diff edge of the
// range-addressed path: joining an empty cluster streams zero cells
// (every peer's range snapshot is empty), yet the join handshake still
// completes and the placement flips.
func TestJoinEmptyStoreNoopStream(t *testing.T) {
	cfg := elasticConfig(17)
	h := newHarness(netsim.SingleDC(5), cfg)
	h.eng.Run()

	h.join(3)
	h.eng.RunFor(2 * time.Second)
	if s := h.cluster.State(3); s != kv.StateLive {
		t.Fatalf("joiner state = %v, want live", s)
	}
	u := h.cluster.Usage()
	if u.StreamSnapshotCells != 0 || u.StreamedCells != 0 || u.StreamChunks != 0 {
		t.Fatalf("empty join moved data: reads=%d cells=%d chunks=%d",
			u.StreamSnapshotCells, u.StreamedCells, u.StreamChunks)
	}
	if u.Joins != 1 {
		t.Fatalf("joins = %d, want 1", u.Joins)
	}
}
