package kv_test

import (
	"fmt"
	"testing"

	"repro/internal/kv"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/ycsb"
)

// BenchmarkSimulatedOps measures simulator throughput (virtual operations
// per wall second) for the full read/write path at level ONE.
func BenchmarkSimulatedOps(b *testing.B) {
	topo := netsim.G5KTwoSites(12)
	cfg := kv.DefaultConfig()
	cfg.Seed = 1
	h := newHarness(topo, cfg)
	w := ycsb.HeavyReadUpdate(1000)
	r, err := ycsb.NewRunner(kv.StaticSession{Cluster: h.cluster, ReadLevel: kv.One, WriteLevel: kv.One},
		w, h.tr, 1)
	if err != nil {
		b.Fatal(err)
	}
	r.OpCount = uint64(b.N)
	r.Threads = 64
	h.cluster.Preload(w.RecordCount, r.Keys, r.Value())
	b.ResetTimer()
	r.Start()
	for !r.Finished() && h.eng.Step() {
	}
	b.StopTimer()
	if !r.Finished() {
		b.Fatal("stalled")
	}
	b.ReportMetric(float64(h.eng.Events())/float64(b.N), "events/op")
}

// BenchmarkKVReadQuorum measures one QUORUM read through the full
// coordinator path (admission, replica fan-out, digest reads, ack
// folding, client reply) including the simulator events that carry it.
func BenchmarkKVReadQuorum(b *testing.B) {
	topo := netsim.SingleDC(6)
	cfg := kv.DefaultConfig()
	cfg.Seed = 1
	h := newHarness(topo, cfg)
	const records = 1024
	key := func(i uint64) string { return fmt.Sprintf("user%012d", i) }
	h.cluster.Preload(records, key, make([]byte, 128))
	keys := make([]string, records)
	for i := range keys {
		keys[i] = key(uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		h.cluster.Read(keys[i%records], kv.Quorum, func(kv.ReadResult) { done = true })
		for !done && h.eng.Step() {
		}
		if !done {
			b.Fatal("read stalled")
		}
	}
}

// BenchmarkPreload measures the load phase every replay starts with, at
// the node count and replication of the paper's Grid'5000 platform: one
// iteration builds the cluster and loads 30 000 records of 1 KiB.
func BenchmarkPreload(b *testing.B) {
	const records = 30_000
	keys := make([]string, records)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%012d", i)
	}
	value := make([]byte, 1024)
	for _, engine := range []storage.Kind{storage.Mem, storage.LSM} {
		b.Run(engine.String(), func(b *testing.B) {
			topo := netsim.G5KTwoSites(84)
			cfg := kv.DefaultConfig()
			cfg.Engine = engine
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := newHarness(topo, cfg)
				b.StartTimer()
				h.cluster.Preload(records, func(i uint64) string { return keys[i] }, value)
			}
		})
	}
}

// BenchmarkReplicaPlacement measures ring lookups.
func BenchmarkReplicaPlacement(b *testing.B) {
	topo := netsim.G5KTwoSites(84)
	cfg := kv.DefaultConfig()
	h := newHarness(topo, cfg)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%012d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.cluster.Strategy().Replicas(keys[i%len(keys)])
	}
}

// TestSimReadQuorumAllocs pins the allocation count of the simulated
// QUORUM read BenchmarkKVReadQuorum times (netsim deliveries and sim
// events included): the client-path merge must not put allocations back
// on the path every experiment replays. The benchmark itself reports two
// more, its own completion closure.
func TestSimReadQuorumAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	topo := netsim.SingleDC(6)
	cfg := kv.DefaultConfig()
	cfg.Seed = 1
	h := newHarness(topo, cfg)
	const records = 1024
	keys := make([]string, records)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%012d", i)
	}
	h.cluster.Preload(records, func(i uint64) string { return keys[i] }, make([]byte, 128))
	i, done := 0, false
	cb := func(kv.ReadResult) { done = true }
	read := func() {
		i++
		done = false
		h.cluster.Read(keys[i%records], kv.Quorum, cb)
		for !done && h.eng.Step() {
		}
	}
	for n := 0; n < 2000; n++ {
		read() // warm pools and slabs
	}
	if got := testing.AllocsPerRun(2000, read); got > 0 {
		t.Errorf("simulated QUORUM read: %.0f allocs/op, want 0", got)
	}
}
