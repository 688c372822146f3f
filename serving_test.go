package repro_test

import (
	"context"
	"fmt"
	"net"
	"testing"

	"repro"
	"repro/internal/testutil"
)

// reservePort grabs an ephemeral localhost port. The tiny window between
// closing the probe listener and the mesh binding it is acceptable in
// tests.
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// meshPair builds a 3-node cluster split across two serving engines
// meshed over localhost TCP — the multi-process deployment in miniature:
// side A serves node 0, side B nodes 1 and 2.
func meshPair(t *testing.T) (da, db *repro.Live) {
	t.Helper()
	topo := repro.SingleDC(3)
	cfg := repro.ServingDefaults(topo)
	addrA, addrB := reservePort(t), reservePort(t)

	type result struct {
		d   *repro.Live
		err error
	}
	// A's constructor blocks dialing side B, so it runs on its own
	// goroutine while B constructs here.
	aCh := make(chan result, 1)
	go func() {
		d, err := repro.NewServing(topo, cfg, repro.ServeConfig{
			Local:      []repro.NodeID{0},
			MeshListen: addrA,
			Peers:      map[repro.NodeID]string{1: addrB, 2: addrB},
		})
		aCh <- result{d, err}
	}()
	db, err := repro.NewServing(topo, cfg, repro.ServeConfig{
		Local:      []repro.NodeID{1, 2},
		MeshListen: addrB,
		Peers:      map[repro.NodeID]string{0: addrA},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Engine.Close() })
	ra := <-aCh
	if ra.err != nil {
		t.Fatal(ra.err)
	}
	t.Cleanup(func() { ra.d.Engine.Close() })
	return ra.d, db
}

// TestServingMeshTwoProcesses: writes coordinated on one side of the mesh
// must be readable on the other at QUORUM: the write quorum's remote ack
// and the read quorum's remote fetch both cross the mesh.
func TestServingMeshTwoProcesses(t *testing.T) {
	da, db := meshPair(t)
	ctx := context.Background()
	ca := da.StaticClient(repro.Quorum, repro.Quorum)
	cb := db.StaticClient(repro.Quorum, repro.Quorum)

	// Write through A (coordinator node 0 needs a remote ack), read
	// through B (coordinator 1 or 2 may need node 0's copy).
	if r := ca.Put(ctx, "mesh-key", []byte("v1")); r.Err != nil {
		t.Fatalf("Put via A: %v", r.Err)
	}
	if r := cb.Get(ctx, "mesh-key"); r.Err != nil || string(r.Value) != "v1" {
		t.Fatalf("Get via B: %+v", r)
	}
	// Overwrite through B, read back through A.
	if r := cb.Put(ctx, "mesh-key", []byte("v2")); r.Err != nil {
		t.Fatalf("Put via B: %v", r.Err)
	}
	if r := ca.Get(ctx, "mesh-key"); r.Err != nil || string(r.Value) != "v2" {
		t.Fatalf("Get via A: %+v", r)
	}

	// Batches cross the mesh too.
	puts := []repro.PutOp{
		{Key: "mk1", Value: []byte("b1")},
		{Key: "mk2", Value: []byte("b2")},
		{Key: "mk3", Value: []byte("b3")},
	}
	for i, r := range ca.BatchPut(ctx, puts) {
		if r.Err != nil {
			t.Fatalf("BatchPut op %d: %v", i, r.Err)
		}
	}
	got := cb.BatchGet(ctx, []string{"mk1", "mk2", "mk3"})
	for i, want := range []string{"b1", "b2", "b3"} {
		if got[i].Err != nil || string(got[i].Value) != want {
			t.Fatalf("BatchGet %d: %+v, want %q", i, got[i], want)
		}
	}

	// Deletes propagate as tombstones.
	if r := cb.Delete(ctx, "mesh-key"); r.Err != nil {
		t.Fatalf("Delete via B: %v", r.Err)
	}
	if r := ca.Get(ctx, "mesh-key"); r.Err != nil || r.Exists {
		t.Fatalf("Get after delete via A: %+v", r)
	}
}

// TestServingMeshLedgerDrains bounds the oracle's ledger of in-flight
// writes in a multi-process deployment. A process hears of an application
// on a replica it does not host only through that replica's
// acknowledgement; counted, every write leaves the ledger once its last
// replica has answered, where it used to stay for the life of the server.
func TestServingMeshLedgerDrains(t *testing.T) {
	da, db := meshPair(t)
	ctx := context.Background()
	ca := da.StaticClient(repro.Quorum, repro.Quorum)
	cb := db.StaticClient(repro.Quorum, repro.Quorum)
	key := func(i int) string { return fmt.Sprintf("ledger-%03d", i%500) }

	// 10 000 QUORUM writes through A, whose coordinator (node 0) hosts
	// one replica of three: singly and in batches, the third
	// acknowledgement of each arriving after the client was answered.
	for i := 0; i < 5000; i++ {
		if r := ca.Put(ctx, key(i), []byte("single")); r.Err != nil {
			t.Fatalf("Put %d: %v", i, r.Err)
		}
	}
	for b := 0; b < 50; b++ {
		puts := make([]repro.PutOp, 100)
		for i := range puts {
			puts[i] = repro.PutOp{Key: key(b*100 + i), Value: []byte("batched")}
		}
		for i, r := range ca.BatchPut(ctx, puts) {
			if r.Err != nil {
				t.Fatalf("BatchPut %d op %d: %v", b, i, r.Err)
			}
		}
	}
	// A few through B as well, then QUORUM reads of every key on both.
	for i := 0; i < 100; i++ {
		if r := cb.Put(ctx, key(i), []byte("via-b")); r.Err != nil {
			t.Fatalf("Put via B %d: %v", i, r.Err)
		}
	}
	for i := 0; i < 500; i++ {
		for _, c := range []repro.Client{ca, cb} {
			if r := c.Get(ctx, key(i)); r.Err != nil || !r.Exists {
				t.Fatalf("Get %s: %+v", key(i), r)
			}
		}
	}

	// Drain: the mesh is FIFO per peer, so once a write at ALL is
	// answered every earlier acknowledgement has been folded.
	for _, d := range []*repro.Live{da, db} {
		if r := d.StaticClient(repro.Quorum, repro.All).Put(ctx, "ledger-drain", []byte("x")); r.Err != nil {
			t.Fatalf("drain write: %v", r.Err)
		}
	}
	for name, d := range map[string]*repro.Live{"A": da, "B": db} {
		var inFlight int
		d.Engine.Do(func() { inFlight = d.Cluster.Oracle().InFlight() })
		if inFlight != 0 {
			t.Errorf("process %s: %d writes still in flight after the drain, want 0", name, inFlight)
		}
		if rate := d.StaleRate(); rate != 0 {
			t.Errorf("process %s: stale rate %g at QUORUM/QUORUM, want exactly 0", name, rate)
		}
	}
}

// TestServingSingleProcess pins the degenerate deployment: no mesh, all
// nodes local, operations complete synchronously on the direct run
// queue.
func TestServingSingleProcess(t *testing.T) {
	topo := repro.SingleDC(3)
	d, err := repro.NewServing(topo, repro.ServingDefaults(topo), repro.ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Engine.Close() })
	cli := d.StaticClient(repro.Quorum, repro.Quorum)
	ctx := context.Background()
	if r := cli.Put(ctx, "k", []byte("v")); r.Err != nil {
		t.Fatal(r.Err)
	}
	if r := cli.Get(ctx, "k"); r.Err != nil || string(r.Value) != "v" {
		t.Fatalf("Get: %+v", r)
	}
}

// TestServingRejectsGossipMesh pins the documented limitation: gossip
// membership dissemination is in-process only for now.
func TestServingRejectsGossipMesh(t *testing.T) {
	topo := repro.SingleDC(3)
	cfg := repro.ServingDefaults(topo)
	cfg.Gossip = true
	_, err := repro.NewServing(topo, cfg, repro.ServeConfig{
		Local:      []repro.NodeID{0},
		MeshListen: "127.0.0.1:0",
		Peers:      map[repro.NodeID]string{1: "127.0.0.1:1"},
	})
	if err == nil {
		t.Fatal("gossip + mesh accepted; want an error")
	}
}

// TestServingAllocBudget pins the allocation budget of a served
// operation so it cannot creep back: on a single-process serving
// deployment a QUORUM read or write issued through the session inside
// Engine.Do — exactly what the RESP server does per command — runs on
// pooled message boxes, slab client ops and value-carried stage work.
// What remains is the store keeping the data: nothing for a read, the
// oracle's ledger entry and the engines' cells for a write. The value
// copy a caller makes before handing the store a buffer is in the bound.
func TestServingAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	topo := repro.SingleDC(3)
	d, err := repro.NewServing(topo, repro.ServingDefaults(topo), repro.ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Engine.Close() })
	sess := d.StaticSession(repro.Quorum, repro.Quorum)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%012d", i)
	}
	d.Preload(uint64(len(keys)), func(i uint64) string { return keys[i] }, make([]byte, 64))

	var i, failed int
	onRead := func(r repro.ReadResult) {
		if r.Err != nil || !r.Exists {
			failed++
		}
	}
	onWrite := func(r repro.WriteResult) {
		if r.Err != nil {
			failed++
		}
	}
	src := make([]byte, 64)
	read := func() { i++; sess.Read(keys[i%len(keys)], onRead) }
	write := func() { i++; sess.Write(keys[i%len(keys)], append([]byte(nil), src...), onWrite) }

	// Warm the pools, the op slab and the time plane's slabs first.
	for n := 0; n < 2000; n++ {
		d.Engine.Do(read)
		d.Engine.Do(write)
	}
	if got := testing.AllocsPerRun(2000, func() { d.Engine.Do(read) }); got > 2 {
		t.Errorf("QUORUM read: %.0f allocs/op, budget 2", got)
	}
	if got := testing.AllocsPerRun(2000, func() { d.Engine.Do(write) }); got > 3 {
		t.Errorf("QUORUM write: %.0f allocs/op, budget 3", got)
	}
	if failed != 0 {
		t.Errorf("%d operations failed", failed)
	}
}
