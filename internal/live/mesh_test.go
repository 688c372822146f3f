package live

import (
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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

	e.Do(func() { e.Send(1, 3, "unrouted") })
	if d := e.Meter().Dropped; d != 2 {
		t.Errorf("dropped = %d after a send with no route, want 2", d)
	}
}

// countingProxy forwards one peer connection's bytes to the process the
// mesh means to reach and counts them: the frame bytes a mesh writer put
// on the wire, read from the test's side of the socket.
type countingProxy struct {
	ln net.Listener
	n  atomic.Int64
	wg sync.WaitGroup
}

func newCountingProxy(t *testing.T) *countingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return &countingProxy{ln: ln}
}

// forward accepts the one connection the mesh dialled and copies it to
// target until either end closes.
func (p *countingProxy) forward(t *testing.T, target string) {
	t.Helper()
	src, err := p.ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	dst, err := net.Dial("tcp", target)
	if err != nil {
		src.Close()
		t.Fatal(err)
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer src.Close()
		defer dst.Close()
		buf := make([]byte, 32<<10)
		for {
			n, err := src.Read(buf)
			p.n.Add(int64(n))
			if n > 0 {
				if _, werr := dst.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()
}

// TestMeshMeterIsFrameBytes: the traffic meter prices a message at the
// length of the frame the mesh writes for it. Two processes each serve
// one site of a two-site topology, so every inter-site message crosses
// the mesh and nothing else is inter-site: after reads, writes, a delete
// and batches at ALL from both sides, the two meters' inter-DC bytes
// equal the bytes counted between the processes, exactly.
func TestMeshMeterIsFrameBytes(t *testing.T) {
	topo := netsim.G5KTwoSites(4) // nodes 0, 1 in one site; 2, 3 in the other
	sites := [2][]netsim.NodeID{{0, 1}, {2, 3}}
	var proxies [2]*countingProxy
	var engines [2]*Engine
	var clusters [2]*kv.Cluster
	for i := range proxies {
		proxies[i] = newCountingProxy(t)
	}
	defer func() { // engines first: closing them ends the proxies' copies
		for i, p := range proxies {
			if engines[i] != nil {
				engines[i].Close()
			}
			p.ln.Close()
		}
		for _, p := range proxies {
			p.wg.Wait()
		}
	}()
	for i, local := range sites {
		other := proxies[1-i].ln.Addr().String()
		peers := map[netsim.NodeID]string{}
		for _, id := range sites[1-i] {
			peers[id] = other
		}
		e, err := NewMesh(topo, 1, MeshConfig{Local: local, Listen: "127.0.0.1:0", Peers: peers})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	for i, p := range proxies {
		p.forward(t, engines[i].MeshAddr())
	}
	for i, e := range engines {
		cfg := kv.DefaultConfig()
		cfg.ReadService = netsim.Constant(0)
		cfg.WriteService = netsim.Constant(0)
		cfg.CoordOverhead = netsim.Constant(0)
		cfg.HintReplayInterval = 0
		cfg.AntiEntropyInterval = 0
		cfg.Coordinators = sites[i]
		e.Do(func() { clusters[i] = kv.New(topo, e, cfg) })
	}

	done := make(chan error, 2*8) // a slot per operation in flight: callbacks run under the engine lock and must not block
	check := func(err error) { done <- err }
	for round := 0; round < 2; round++ {
		for i, e := range engines {
			cl := clusters[i]
			key := func(j int) string { return fmt.Sprintf("site%d-%d", i, j) }
			e.Do(func() {
				for j := 0; j < 8; j++ {
					value := []byte(strings.Repeat("v", j*(round+1)))
					if round == 0 {
						cl.Write(key(j), value, kv.All, func(r kv.WriteResult) { check(r.Err) })
					} else {
						cl.Read(key(j), kv.All, func(r kv.ReadResult) { check(r.Err) })
					}
				}
			})
		}
		for range 2 * 8 {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, e := range engines {
		cl := clusters[i]
		e.Do(func() {
			cl.Delete(fmt.Sprintf("site%d-0", i), kv.All, func(r kv.WriteResult) { check(r.Err) })
			cl.WriteBatch([]kv.BatchOp{{Key: "b1", Value: []byte("x")}, {Key: "b2", Delete: true}}, kv.All,
				func(rs []kv.WriteResult) { check(rs[0].Err) })
			cl.ReadBatch([]string{"site0-1", "site1-1", "b1"}, kv.All, func(rs []kv.ReadResult) { check(rs[0].Err) })
		})
	}
	for range 2 * 3 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	metered := func() (n int64) {
		for _, e := range engines {
			m := e.Meter()
			n += int64(m.Bytes[netsim.InterDC] + m.Bytes[netsim.InterRegion])
		}
		return n
	}
	wrote := func() int64 { return proxies[0].n.Load() + proxies[1].n.Load() }
	// Late acks and digests may still be in flight; every metered frame
	// reaches the proxies, so wait for the two counts to meet.
	deadline := time.Now().Add(10 * time.Second)
	for metered() != wrote() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if m, w := metered(), wrote(); m == 0 || m != w {
		t.Fatalf("meters priced %d inter-site bytes, the mesh wrote %d", m, w)
	}
}
