package live

import (
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// replicaReadFrame appends a peer frame carrying a replica read of key
// from node 0 to node 1 for coordinator coord (the field order of kv's
// replicaRead wire form, pinned by its golden frames). With truncated set
// the body stops after the request id: the frame is intact, its body
// does not decode.
func replicaReadFrame(buf []byte, id uint64, key string, coord int64, truncated bool) []byte {
	const kindReplicaRead = 1
	start := len(buf)
	buf = wire.BeginFrame(buf, kindReplicaRead)
	buf = wire.AppendVarint(buf, 0) // from
	buf = wire.AppendVarint(buf, 1) // to
	buf = wire.AppendUvarint(buf, id)
	if !truncated {
		buf = wire.AppendString(buf, key)
		buf = wire.AppendBool(buf, false) // digest
		buf = wire.AppendVarint(buf, coord)
		buf = wire.AppendUvarint(buf, 0) // ring seq
	}
	return wire.EndFrame(buf, start)
}

// TestMeshCorruptPeerFrame: the mesh decodes inbound frames under the
// engine lock, a read's worth at a time. A frame whose body does not
// decode drops its connection, and no frame of that read is delivered —
// not even the valid one ahead of it; another connection's frames still
// are. A CRC-valid frame naming a coordinator outside the topology does
// not decode either: delivered, the replica's reply to it panicked the
// reader's goroutine, and with it the process.
func TestMeshCorruptPeerFrame(t *testing.T) {
	topo := netsim.SingleDC(3)
	e, err := NewMesh(topo, 1, MeshConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	cfg := kv.DefaultConfig()
	cfg.ReadService = netsim.Constant(0) // a delivered read is served at once
	cfg.HintReplayInterval = 0
	var cl *kv.Cluster
	e.Do(func() { cl = kv.New(topo, e, cfg) })
	replicaReads := func() (n uint64) {
		e.Do(func() { n = cl.Usage().ReplicaReads })
		return n
	}

	bad, err := net.Dial("tcp", e.MeshAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	frames := replicaReadFrame(nil, 1, "k", 0, false)
	frames = replicaReadFrame(frames, 2, "", 0, true)
	if _, err := bad.Write(frames); err != nil {
		t.Fatal(err)
	}
	// The reader closes the connection only after deliverBatch returned.
	bad.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := bad.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("corrupt peer: read %d bytes, err %v; want the engine to close the connection", n, err)
	}
	if n := replicaReads(); n != 0 {
		t.Fatalf("%d replica reads served from a read with a corrupt frame, want 0", n)
	}

	foreign, err := net.Dial("tcp", e.MeshAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer foreign.Close()
	if _, err := foreign.Write(replicaReadFrame(nil, 4, "k", 1<<20, false)); err != nil {
		t.Fatal(err)
	}
	foreign.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := foreign.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("foreign coordinator: read %d bytes, err %v; want the engine to close the connection", n, err)
	}
	if n := replicaReads(); n != 0 {
		t.Fatalf("%d replica reads served for a coordinator outside the topology, want 0", n)
	}

	good, err := net.Dial("tcp", e.MeshAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if _, err := good.Write(replicaReadFrame(nil, 3, "k", 0, false)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); replicaReads() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("valid frame on a second connection: %d replica reads served, want 1", replicaReads())
		}
	}
}

// TestMeshSendPassesAdmit: a send to a node another process serves takes
// the transport's Admit like any other, so a partition in the sending
// process cuts it — counted, and nothing reaches the peer — until Heal;
// a send to a remote node the mesh has no route to is counted as dropped.
// The peer process is a bare loopback listener.
func TestMeshSendPassesAdmit(t *testing.T) {
	peer, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	topo := netsim.SingleDC(4)
	// Node 0 lives behind the peer; node 3 is remote with no route.
	e, err := NewMesh(topo, 1, MeshConfig{
		Local: []netsim.NodeID{1, 2},
		Peers: map[netsim.NodeID]string{0: peer.Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	conn, err := peer.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cfg := kv.DefaultConfig()
	cfg.ReadService = netsim.Constant(0)
	cfg.WriteService = netsim.Constant(0)
	cfg.CoordOverhead = netsim.Constant(0)
	cfg.HintReplayInterval = 0
	cfg.Coordinators = []netsim.NodeID{1, 2}
	var cl *kv.Cluster
	e.Do(func() { cl = kv.New(topo, e, cfg) })
	key, _ := keyWhere(t, e, cl, func(r []netsim.NodeID) bool {
		return slices.Contains(r, 0) && !slices.Contains(r, 3)
	})
	write := func() {
		e.Do(func() { cl.Write(key, []byte("v"), kv.One, func(kv.WriteResult) {}) })
	}
	frame := make([]byte, 1)

	e.Do(func() { e.Partition([]netsim.NodeID{1, 2}, []netsim.NodeID{0}) })
	write()
	if d := e.Meter().Dropped; d != 1 {
		t.Fatalf("dropped = %d across the partition, want the replica write to node 0", d)
	}
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if n, _ := conn.Read(frame); n != 0 {
		t.Fatal("a frame crossed the partition")
	}

	e.Do(func() { e.Heal() })
	write()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := conn.Read(frame); n == 0 {
		t.Fatalf("no frame reached the peer after Heal: %v", err)
	}

	e.Do(func() { e.Send(1, 3, "unrouted", 8) })
	if d := e.Meter().Dropped; d != 2 {
		t.Errorf("dropped = %d after a send with no route, want 2", d)
	}
}
