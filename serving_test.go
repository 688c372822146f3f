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

// TestServingMeshTwoProcesses runs a 3-node cluster split across two
// serving engines meshed over localhost TCP — the multi-process
// deployment in miniature. Writes coordinated on one side must be
// readable on the other at QUORUM: the write quorum's remote ack and the
// read quorum's remote fetch both cross the mesh.
func TestServingMeshTwoProcesses(t *testing.T) {
	topo := repro.SingleDC(3)
	cfg := repro.ServingDefaults(topo)
	addrA, addrB := reservePort(t), reservePort(t)

	type result struct {
		d   *repro.Live
		err error
	}
	// Side A serves node 0. Its constructor blocks dialing side B, so it
	// runs on its own goroutine while B constructs here.
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
	da := ra.d
	t.Cleanup(func() { da.Engine.Close() })

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
