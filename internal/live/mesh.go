package live

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/kv"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// The serving-mode engine: one OS process per subset of the ring,
// connected by a TCP mesh. Every process constructs the full cluster
// actor set (so ring placement, per-key routing and version ordering
// are computed identically everywhere), registers only its local nodes,
// and ships messages addressed to peer-owned nodes as wire frames:
// replica reads/writes, their acks, batches, anti-entropy exchanges and
// snapshot streams all cross process boundaries; client messages and
// self-messages never do (coordinator selection is pinned to local
// nodes via kv.Config.Coordinators).
//
// Delivery within a process uses the direct run queue rather than the
// time plane: the thread holding the engine lock drains the queue before
// releasing it, preserving the serialized handler contract at a fraction
// of the cost. Outbound frames accumulate per peer while the lock is
// held and are handed to a per-peer writer goroutine in one batch at
// drain end — one wakeup and typically one syscall per pipeline's worth
// of traffic.

// MeshConfig describes one process of a multi-process cluster.
type MeshConfig struct {
	// Local lists the topology nodes this process serves; nil serves
	// all of them (single-process serving).
	Local []netsim.NodeID
	// Listen is the peer-mesh listen address (host:port); empty when
	// the deployment has a single process.
	Listen string
	// Peers maps every remote node id to its owner process's mesh
	// listen address.
	Peers map[netsim.NodeID]string
	// DialTimeout bounds how long to wait for peer processes to come
	// up (default 30s).
	DialTimeout time.Duration
}

// NewMesh returns a serving-mode engine: direct in-process delivery,
// the time plane for real delays, and — when mc names peers — a TCP
// mesh to the processes serving the rest of the ring. The engine clock
// runs from the Unix epoch rather than process start, so coordinators
// in different processes issue comparable last-write-wins timestamps
// (skew is bounded by host clock sync at boot; ties break on the
// per-process sequence, the usual wall-clock LWW contract). The epoch
// offset is read once and time then advances on the monotonic clock, so
// a later step of the host's wall clock does not reach the store.
func NewMesh(topo *netsim.Topology, seed uint64, mc MeshConfig) (*Engine, error) {
	e := New(topo, seed)
	start := time.Now()
	epoch := time.Duration(start.UnixNano())
	e.clock = func() time.Duration { return epoch + time.Since(start) }
	e.direct = true
	if len(mc.Local) > 0 {
		e.localSet = make([]bool, topo.N())
		for _, id := range mc.Local {
			if id < 0 || int(id) >= topo.N() {
				return nil, fmt.Errorf("live: local node %d outside topology (N=%d)", id, topo.N())
			}
			e.localSet[id] = true
		}
	}
	if mc.Listen == "" && len(mc.Peers) == 0 {
		return e, nil
	}
	m := &mesh{e: e, route: make(map[netsim.NodeID]*meshPeer, len(mc.Peers))}
	if mc.Listen != "" {
		ln, err := net.Listen("tcp", mc.Listen)
		if err != nil {
			return nil, fmt.Errorf("live: mesh listen: %w", err)
		}
		m.ln = ln
		m.wg.Add(1)
		go m.acceptLoop()
	}
	timeout := mc.DialTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	byAddr := make(map[string]*meshPeer)
	for id, addr := range mc.Peers {
		p := byAddr[addr]
		if p == nil {
			conn, err := dialRetry(addr, timeout)
			if err != nil {
				m.shutdown()
				return nil, fmt.Errorf("live: mesh dial %s: %w", addr, err)
			}
			p = newMeshPeer(addr, conn)
			byAddr[addr] = p
			m.peers = append(m.peers, p)
			m.wg.Add(1)
			go p.writeLoop(m)
		}
		m.route[id] = p
	}
	e.mesh = m
	return e, nil
}

// MeshAddr reports the engine's peer-mesh listen address ("" without a
// mesh listener) — tests bind port 0 and read the address back.
func (e *Engine) MeshAddr() string {
	if e.mesh == nil || e.mesh.ln == nil {
		return ""
	}
	return e.mesh.ln.Addr().String()
}

// mesh is the TCP fabric between serving processes.
type mesh struct {
	e     *Engine
	ln    net.Listener
	peers []*meshPeer
	route map[netsim.NodeID]*meshPeer
	wg    sync.WaitGroup

	connMu sync.Mutex
	conns  []net.Conn
}

// meshPeer is one outbound connection. pend stages frames under the
// engine lock; flushLocked moves them to out under the peer lock, and
// the writer goroutine ping-pongs out against alt so a slow peer never
// blocks the engine.
type meshPeer struct {
	addr string
	conn net.Conn

	pend []byte // staged frames; engine lock held

	mu     sync.Mutex
	cond   *sync.Cond
	out    []byte
	alt    []byte
	closed bool
}

func newMeshPeer(addr string, conn net.Conn) *meshPeer {
	p := &meshPeer{addr: addr, conn: conn}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// dialRetry dials addr until it answers or timeout elapses — peer
// processes of a cluster start in arbitrary order.
func dialRetry(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// send stages one message for its owner process. Caller holds the
// engine lock. Messages without a wire form must never be addressed to
// a remote node — that is a routing bug, not an I/O condition.
func (m *mesh) send(from, to netsim.NodeID, payload any) {
	p := m.route[to]
	if p == nil {
		m.e.meter.Dropped++
		return
	}
	var ok bool
	p.pend, ok = kv.MarshalMessage(p.pend, from, to, payload)
	if !ok {
		panic(fmt.Sprintf("live: message %T to remote node %d has no wire form", payload, to))
	}
}

// flushLocked hands staged frames to the peer writers. Caller holds
// the engine lock; peer locks are only ever taken inside it, never the
// reverse, so the order is deadlock-free.
func (m *mesh) flushLocked() {
	for _, p := range m.peers {
		if len(p.pend) == 0 {
			continue
		}
		p.mu.Lock()
		p.out = append(p.out, p.pend...)
		p.mu.Unlock()
		p.cond.Signal()
		p.pend = p.pend[:0]
	}
}

// writeLoop ships batches to one peer.
func (p *meshPeer) writeLoop(m *mesh) {
	defer m.wg.Done()
	for {
		p.mu.Lock()
		for len(p.out) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.out) == 0 {
			p.mu.Unlock()
			return
		}
		buf := p.out
		p.out = p.alt[:0]
		p.alt = buf
		p.mu.Unlock()
		if _, err := p.conn.Write(buf); err != nil {
			p.mu.Lock()
			p.closed = true
			p.out = p.out[:0]
			p.mu.Unlock()
			return
		}
	}
}

// acceptLoop admits inbound peer connections; frames identify their
// destination themselves, so inbound connections are read-only.
func (m *mesh) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return
		}
		m.connMu.Lock()
		m.conns = append(m.conns, conn)
		m.connMu.Unlock()
		m.wg.Add(1)
		go m.readLoop(conn)
	}
}

// readLoop decodes inbound frames and delivers each read's worth in
// one engine-lock acquisition.
func (m *mesh) readLoop(conn net.Conn) {
	defer m.wg.Done()
	defer conn.Close()
	buf := make([]byte, 64<<10)
	have := 0
	var batch []queuedMsg
	for {
		off := 0
		for {
			kind, body, n, err := wire.ReadFrame(buf[off:have])
			if err != nil {
				return // corrupt peer stream: drop the connection
			}
			if n == 0 {
				break
			}
			from, to, payload, derr := kv.UnmarshalMessage(kind, body)
			if derr != nil {
				return
			}
			batch = append(batch, queuedMsg{to: to, from: from, payload: payload})
			off += n
		}
		if len(batch) > 0 {
			m.e.deliverBatch(batch)
			batch = batch[:0]
		}
		if off > 0 {
			copy(buf, buf[off:have])
			have -= off
		} else if have == len(buf) {
			grown := make([]byte, len(buf)*2)
			copy(grown, buf[:have])
			buf = grown
		}
		n, err := conn.Read(buf[have:])
		have += n
		if n == 0 && err != nil {
			return
		}
	}
}

// deliverBatch runs a batch of inbound peer messages through the run
// queue under one lock acquisition.
func (e *Engine) deliverBatch(batch []queuedMsg) {
	e.lock()
	defer e.mu.Unlock()
	e.runq = append(e.runq, batch...)
	e.drain()
}

// shutdown closes the mesh and joins its goroutines. The engine lock is
// not held: readers blocked on it must be able to acquire it, observe
// closed, and exit.
func (m *mesh) shutdown() {
	if m.ln != nil {
		m.ln.Close()
	}
	for _, p := range m.peers {
		p.mu.Lock()
		p.closed = true
		p.out = p.out[:0]
		p.mu.Unlock()
		p.cond.Broadcast()
		p.conn.Close()
	}
	m.connMu.Lock()
	for _, c := range m.conns {
		c.Close()
	}
	m.connMu.Unlock()
	m.wg.Wait()
}
