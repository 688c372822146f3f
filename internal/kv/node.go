package kv

import (
	"sort"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/storage"
)

// work is a unit of node CPU/disk work waiting for an execution slot.
// The per-operation units — serving a replica read, applying a replica
// write — carry their request by value (rr, rw); everything else (batch
// items, anti-entropy, streaming) sets fn.
type work struct {
	cost     time.Duration
	enqueued time.Duration
	kind     workKind
	rr       replicaRead
	rw       replicaWrite
	fn       func()
}

type workKind uint8

const (
	workFn workKind = iota
	workReplicaRead
	workReplicaWrite
)

// stage is one of the node's SEDA thread pools. Cassandra runs reads and
// mutations in separate stages; a replica whose mutation stage is backed
// up still answers reads promptly from its current (stale) state — the
// mechanism behind the high stale-read rates the paper observes under
// heavy load. shed, when positive, drops work that waited longer than the
// threshold (Cassandra's dropped-mutation load shedding). The queue is a
// head-indexed deque so dequeuing does not reslice away reusable
// capacity.
type stage struct {
	busy     int
	conc     int
	queue    []work
	head     int
	shed     time.Duration
	busyTime time.Duration
	done     uint64
	dropped  uint64
	peak     int
}

// qlen reports the number of queued (not yet running) work units.
func (st *stage) qlen() int { return len(st.queue) - st.head }

// reset drops all queued and running work (the node crashed; nothing in
// a thread pool survives a process kill). The cumulative meters
// (busyTime, done, dropped, peak) are experiment accounting and stay.
func (st *stage) reset() {
	for i := st.head; i < len(st.queue); i++ {
		st.queue[i] = work{} // release what the unit references
	}
	st.queue = st.queue[:0]
	st.head = 0
	st.busy = 0
}

// Node is one storage server: a message-driven actor owning a storage
// engine, a bounded-concurrency work queue (the thread-pool model that
// produces realistic saturation), coordinator state for the requests it
// coordinates, and a hint buffer for handoff. All methods run serialized —
// by the event loop in simulation, by the actor goroutine live.
type Node struct {
	id      netsim.NodeID
	cluster *Cluster
	engine  storage.Engine
	rng     *stats.Source

	// Failure-injection state machine: a node is live, failed (network
	// cut, state intact) or crashed — never both at once; Cluster.Fail/
	// Recover/Crash/Restart enforce the transitions. While crashed the
	// actor processes no messages; epoch stamps the node's self-messages
	// (work completions, admission continuations, background ticks) so
	// ones scheduled before a crash cannot resurrect pre-crash work
	// after a restart.
	failed  bool
	crashed bool
	epoch   uint32

	// Membership phase (orthogonal to the failure leg; see
	// membership.go) plus the snapshot-streaming state of an in-flight
	// Join (streamsIn/joinPending on the joiner) or Decommission
	// (decomPending on the leaver).
	phase        nodePhase
	streamsIn    map[netsim.NodeID]*streamIn
	joinPending  int
	decomPending int

	// Snapshot-streaming meters (both directions).
	streamChunksOut  uint64
	streamedOutCells uint64
	streamedOutBytes uint64
	streamChunksIn   uint64
	streamedInCells  uint64
	// streamSnapshotCells counts cells this node read out of engine
	// snapshots while serving streams — the sender-side work measure
	// range-addressed streaming shrinks to the moved fraction.
	streamSnapshotCells uint64

	// SEDA stages: reads and mutations contend for separate slots.
	readStage  stage
	writeStage stage

	// Service accounting for utilization, cost and power models.
	coordBusy   time.Duration
	repWrites   uint64
	repReads    uint64
	coordOps    uint64
	readRepairs uint64

	// Coordinator state: the contexts of the requests in flight, each
	// holding its armed request timeout; timeoutCb is timeoutFired bound
	// once, so arming one allocates nothing.
	reads       map[reqID]*readCtx
	writes      map[reqID]*writeCtx
	batchReads  map[reqID]*batchReadCtx
	batchWrites map[reqID]*batchWriteCtx
	timeoutCb   sim.Callback

	// Gossip membership agent (Config.Gossip only; nil otherwise). It
	// survives crashes — real systems persist their membership view and
	// re-seed the agent from it on restart — but its probe bookkeeping
	// is reset by restart().
	gs *gossipState

	// Coordinator-side hot-key read cache (Config.HotCache only; nil
	// otherwise). Entries are volatile: a crash drops them all.
	cache *readCache

	// Hinted handoff: writes buffered for down replicas.
	hints         map[netsim.NodeID][]hintEntry
	hintCount     int
	hintsDropped  uint64
	hintsReplayed uint64

	aeRounds uint64
	// aeSeen is the sample-dedup scratch of antiEntropyRound, reused
	// across rounds (the offered key/version slices themselves are owned
	// by the in-flight message and cannot be reused).
	aeSeen map[string]bool
}

type hintEntry struct {
	key  string
	cell storage.Cell
}

func newNode(id netsim.NodeID, c *Cluster) *Node {
	n := &Node{
		id:          id,
		cluster:     c,
		engine:      storage.New(c.cfg.Engine, c.engineOptions(id)),
		rng:         c.cfg.seedSource.StreamN("kv.node", int(id)),
		reads:       make(map[reqID]*readCtx),
		writes:      make(map[reqID]*writeCtx),
		batchReads:  make(map[reqID]*batchReadCtx),
		batchWrites: make(map[reqID]*batchWriteCtx),
		hints:       make(map[netsim.NodeID][]hintEntry),
	}
	n.timeoutCb = n.timeoutFired
	n.readStage.conc = c.cfg.Concurrency
	n.writeStage.conc = c.cfg.Concurrency
	n.writeStage.shed = c.cfg.MutationShed
	if c.cfg.HotCache {
		n.cache = newReadCache()
	}
	return n
}

// Engine exposes the node's storage engine (tests and anti-entropy).
func (n *Node) Engine() storage.Engine { return n.engine }

// crash kills the node process: the engine drops its volatile state, and
// every piece of actor state that lives in process memory — queued and
// running stage work, coordinator contexts, buffered hints — is lost.
// Dropped contexts are not returned to their pools (in-flight events may
// still reference them; the GC reclaims them), and their request
// timeouts are canceled with them.
func (n *Node) crash() {
	n.crashed = true
	n.epoch++
	n.engine.Crash()
	n.readStage.reset()
	n.writeStage.reset()
	// Stop consumes no engine sequence number and the callbacks never
	// run, so the map order these loops visit in reaches no result.
	for _, ctx := range n.reads {
		ctx.timer.Stop()
	}
	for _, ctx := range n.writes {
		ctx.timer.Stop()
	}
	for _, bctx := range n.batchReads {
		bctx.timer.Stop()
	}
	for _, bctx := range n.batchWrites {
		bctx.timer.Stop()
	}
	n.reads = make(map[reqID]*readCtx)
	n.writes = make(map[reqID]*writeCtx)
	n.batchReads = make(map[reqID]*batchReadCtx)
	n.batchWrites = make(map[reqID]*batchWriteCtx)
	n.hints = make(map[netsim.NodeID][]hintEntry)
	n.hintCount = 0
	if n.cache != nil {
		n.cache.dropAll() // cache entries are process memory; meters stay
	}
	// In-flight inbound streams die with the process; the senders' guard
	// timer (membership.go) keeps the membership change from wedging.
	n.streamsIn = nil
	// A crashed warming node is no longer converging; Restart re-arms
	// its own warming window. If that emptied the warming set, queued
	// membership changes may proceed.
	if n.phase == phaseWarming {
		n.phase = phaseLive
		delete(n.cluster.warming, n.id)
		n.cluster.drainMembershipQueue()
	}
}

// restart brings a crashed node back: the engine replays its durable
// state, and the background tick chains (anti-entropy, hint replay) are
// restarted under the new epoch — the pre-crash chains died with it.
func (n *Node) restart() storage.RecoverStats {
	n.crashed = false
	rs := n.engine.Recover()
	n.scheduleAE()
	n.scheduleHintTick()
	if n.gs != nil {
		// The pre-crash tick chain died with the old epoch; outstanding
		// probes are moot.
		n.gs.awaitSeq = 0
		n.cluster.net.SendLocal(n.id, gossipTick{epoch: n.epoch}, n.cluster.cfg.GossipInterval)
	}
	return rs
}

// ReleaseMessage returns an undelivered message's pooled box (a no-op for
// unpooled kinds): crashed nodes dispose of their self-messages through
// it so an outage does not leak boxes, and a closing live engine empties
// its queues through it.
func ReleaseMessage(payload any) {
	switch m := payload.(type) {
	case *workDone:
		workDones.take(m)
	case *coordExec:
		coordExecs.take(m)
	case *clientRead:
		clientReads.take(m)
	case *clientWrite:
		clientWrites.take(m)
	case *clientReadReply:
		clientReadReplies.take(m)
	case *clientWriteReply:
		clientWriteReplies.take(m)
	case *replicaWrite:
		replicaWrites.take(m)
	case *replicaWriteAck:
		replicaWriteAcks.take(m)
	case *replicaRead:
		replicaReads.take(m)
	case *replicaReadResp:
		replicaReadResps.take(m)
	}
}

// submitRead enqueues closure-carried read-stage work; submitWrite
// enqueues mutation-stage work.
func (n *Node) submitRead(cost time.Duration, fn func()) {
	n.submit(&n.readStage, work{cost: cost, fn: fn})
}

func (n *Node) submitWrite(cost time.Duration, fn func()) {
	n.submit(&n.writeStage, work{cost: cost, fn: fn})
}

func (n *Node) submit(st *stage, w work) {
	w.enqueued = n.cluster.net.Now()
	if st.busy >= st.conc {
		st.queue = append(st.queue, w)
		if q := st.qlen(); q > st.peak {
			st.peak = q
		}
		return
	}
	n.run(st, w)
}

func (n *Node) run(st *stage, w work) {
	st.busy++
	st.busyTime += w.cost
	st.done++
	n.cluster.net.SendLocal(n.id, workDones.put(workDone{st: st, w: w, epoch: n.epoch}), w.cost)
}

// workDone is the self-message marking completion of a work unit. epoch
// ties it to the node incarnation that scheduled it.
type workDone struct {
	st    *stage
	w     work
	epoch uint32
}

var workDones = newBox[workDone]()

// coordExec is the self-message completing coordinator admission work;
// kind says which of the four client requests it carries.
type coordExec struct {
	kind  execKind
	cr    clientRead
	cw    clientWrite
	br    clientBatchRead
	bw    clientBatchWrite
	epoch uint32
}

var coordExecs = newBox[coordExec]()

type execKind uint8

const (
	execRead execKind = iota
	execWrite
	execBatchRead
	execBatchWrite
)

// coordWork models the request-stage overhead of coordinating an
// operation: it delays the admission e carries by a sampled cost without
// contending for read/mutation slots (Cassandra's request stage is
// rarely the bottleneck).
func (n *Node) coordWork(e coordExec) {
	cost := n.cluster.cfg.CoordOverhead.Sample(n.rng)
	n.coordBusy += cost
	e.epoch = n.epoch
	n.cluster.net.SendLocal(n.id, coordExecs.put(e), cost)
}

func (n *Node) finishWork(st *stage, w *work) {
	switch w.kind {
	case workReplicaRead:
		n.serveReplicaRead(w.rr)
	case workReplicaWrite:
		n.applyReplicaWrite(w.rw)
	default:
		w.fn()
	}
	st.busy--
	// The freed slot keeps scanning past shed work: a burst of expired
	// items must not leave the slot idle until the next workDone — it
	// picks up the first non-expired item in the same event. Load
	// shedding drops work that sat in the queue beyond the shed threshold
	// instead of executing it (Cassandra's dropped mutations under
	// overload; repair and anti-entropy heal the divergence later).
	now := n.cluster.net.Now()
	for st.head < len(st.queue) && st.busy < st.conc {
		next := st.queue[st.head]
		st.queue[st.head] = work{} // release what the unit references
		st.head++
		if st.shed > 0 && now-next.enqueued > st.shed {
			st.dropped++
			continue
		}
		n.run(st, next)
	}
	// Reclaim the consumed prefix: reset when drained, compact when the
	// dead head outgrows the live tail.
	if st.head == len(st.queue) {
		st.queue = st.queue[:0]
		st.head = 0
	} else if st.head > 64 && st.head > len(st.queue)/2 {
		live := copy(st.queue, st.queue[st.head:])
		st.queue = st.queue[:live]
		st.head = 0
	}
}

// Utilization reports the fraction of elapsed time the node's stage slots
// were busy, given the elapsed duration of the measurement.
func (n *Node) Utilization(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	busy := n.readStage.busyTime + n.writeStage.busyTime
	return float64(busy) / (float64(elapsed) * float64(n.readStage.conc+n.writeStage.conc))
}

// BusyTime reports the cumulative service time executed by the node.
func (n *Node) BusyTime() time.Duration {
	return n.readStage.busyTime + n.writeStage.busyTime + n.coordBusy
}

// DroppedMutations reports mutations shed under overload.
func (n *Node) DroppedMutations() uint64 { return n.writeStage.dropped }

// CoordOps reports how many client operations this node coordinated.
func (n *Node) CoordOps() uint64 { return n.coordOps }

// Handle dispatches one message; it is the single entry point of the
// actor. Pooled message boxes are taken (copied out and recycled) before
// dispatch, so a box never outlives one delivery.
func (n *Node) Handle(from netsim.NodeID, payload any) {
	if n.crashed {
		// A dead process handles nothing. Only local self-messages get
		// here (the transport drops network traffic to down nodes);
		// their pooled boxes still need returning.
		ReleaseMessage(payload)
		return
	}
	switch m := payload.(type) {
	case *workDone:
		v := workDones.take(m)
		if v.epoch == n.epoch {
			n.finishWork(v.st, &v.w)
		}
	case *coordExec:
		v := coordExecs.take(m)
		if v.epoch != n.epoch {
			return
		}
		switch v.kind {
		case execRead:
			n.admitRead(v.cr)
		case execWrite:
			n.admitWrite(v.cw)
		case execBatchRead:
			n.admitBatchRead(v.br)
		case execBatchWrite:
			n.admitBatchWrite(v.bw)
		}

	case *clientRead:
		n.coordRead(clientReads.take(m))
	case *clientWrite:
		n.coordWrite(clientWrites.take(m))
	case clientBatchRead:
		n.coordBatchRead(m)
	case clientBatchWrite:
		n.coordBatchWrite(m)

	case *replicaWrite:
		n.onReplicaWrite(replicaWrites.take(m))
	case *replicaWriteAck:
		n.onWriteAck(replicaWriteAcks.take(m))
	case *replicaRead:
		n.onReplicaRead(replicaReads.take(m))
	case *replicaReadResp:
		n.onReadResp(replicaReadResps.take(m))
	case *replicaBatchWrite:
		n.onReplicaBatchWrite(*m)
	case *replicaBatchWriteAck:
		n.onBatchWriteAck(*m)
	case *replicaBatchRead:
		n.onReplicaBatchRead(*m)
	case *replicaBatchReadResp:
		n.onBatchReadResp(*m)

	case aeTick:
		if m.epoch != n.epoch {
			return // pre-crash tick chain; restart started a fresh one
		}
		if n.phase == phaseDecommissioned {
			return // off the ring: the chain ends; the actor only drains
		}
		n.antiEntropyRound()
		n.scheduleAE()
	case aeOffer:
		n.onAEOffer(m)
	case aeReply:
		n.onAEReply(m)
	case aePush:
		n.onAEPush(m)

	case hintTick:
		if m.epoch != n.epoch {
			return
		}
		if n.phase == phaseDecommissioned {
			return // same chain-termination as aeTick
		}
		n.replayHints()
		n.scheduleHintTick()

	case gossipTick:
		if m.epoch != n.epoch {
			return // pre-crash chain; restart started a fresh one
		}
		n.onGossipTick()
	case gossipPing:
		n.onGossipPing(m)
	case gossipAck:
		n.onGossipAck(m)
	case gossipEvents:
		n.onGossipEventsMsg(m)
	case gossipProbeTimeout:
		if m.epoch == n.epoch {
			n.onGossipProbeTimeout(m)
		}
	case gossipSuspicionTimeout:
		if m.epoch == n.epoch {
			n.onGossipSuspicionTimeout(m)
		}
	case gossipRetry:
		if m.epoch == n.epoch {
			n.onGossipRetry(m)
		}
	case notOwner:
		n.onNotOwner(m)

	case streamRequest:
		n.onStreamRequest(m)
	case streamChunk:
		n.onStreamChunk(m)
	case streamDone:
		n.onStreamDone(m)
	case streamAck:
		n.onStreamAck(m)
	}
}

// onReplicaWrite applies a cell after write service time and acks the
// coordinator unless the write is a repair. Under gossip, a coordinated
// write for a range this replica no longer owns (its ring strictly
// newer than the coordinator's) is refused; repair and hint traffic is
// convergence machinery and applies wherever it lands.
func (n *Node) onReplicaWrite(m replicaWrite) {
	if !m.Repair && !m.Hint && n.refusesKey(m.Key, m.RingSeq) {
		n.refuseWrite(m)
		return
	}
	cost := n.cluster.cfg.WriteService.Sample(n.rng)
	n.submit(&n.writeStage, work{cost: cost, kind: workReplicaWrite, rw: m})
}

// applyReplicaWrite is the mutation-stage work of onReplicaWrite.
func (n *Node) applyReplicaWrite(m replicaWrite) {
	n.repWrites++
	if n.engine.Apply(m.Key, m.Cell) {
		n.cluster.oracle.Applied(n.id, m.Cell.Version, n.cluster.net.Now())
	}
	n.cacheInvalidate(m.Key)
	if m.Repair {
		n.readRepairs++
		return
	}
	ack := replicaWriteAcks.put(replicaWriteAck{ID: m.ID, Key: m.Key, Version: m.Cell.Version, From: n.id})
	n.cluster.net.Send(n.id, m.Coord, ack, msgOverhead)
}

// onReplicaRead serves a read after read service time, unless this
// replica's strictly newer ring says the key is no longer ours (the
// ownership check is cheap and happens before any stage work).
func (n *Node) onReplicaRead(m replicaRead) {
	if n.refusesKey(m.Key, m.RingSeq) {
		n.refuseRead(m)
		return
	}
	cost := n.cluster.cfg.ReadService.Sample(n.rng)
	n.submit(&n.readStage, work{cost: cost, kind: workReplicaRead, rr: m})
}

// serveReplicaRead is the read-stage work of onReplicaRead.
func (n *Node) serveReplicaRead(m replicaRead) {
	n.repReads++
	cell, ok := n.engine.Get(m.Key)
	resp := replicaReadResps.put(replicaReadResp{
		ID: m.ID, Key: m.Key, Cell: cell, Exists: ok,
		Digest: m.Digest, From: n.id,
	})
	size := msgOverhead + digestSize
	if !m.Digest {
		size = msgOverhead + len(cell.Value)
		// Full data responses carry the value; digests only the
		// version. The coordinator re-fetches data when the digest
		// turns out newer.
	} else {
		resp.Cell.Value = nil
	}
	n.cluster.net.Send(n.id, m.Coord, resp, size)
}

// maxHintsPerNode bounds a node's hint buffer; hints past it are dropped
// and left to read repair and anti-entropy.
const maxHintsPerNode = 200_000

// storeHint buffers a write for a down replica, to be replayed when it
// recovers.
func (n *Node) storeHint(target netsim.NodeID, key string, cell storage.Cell) {
	if n.hintCount >= maxHintsPerNode {
		n.hintsDropped++
		return
	}
	n.hints[target] = append(n.hints[target], hintEntry{key: key, cell: cell})
	n.hintCount++
}

// replayHints pushes buffered hints to recovered targets. Targets are
// visited in sorted order so replay is deterministic (map iteration order
// is not).
func (n *Node) replayHints() {
	targets := make([]netsim.NodeID, 0, len(n.hints))
	for t := range n.hints {
		targets = append(targets, t)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	for _, target := range targets {
		entries := n.hints[target]
		if !n.cluster.IsMember(target) {
			// The target left the ring (decommissioned); its hints will
			// never be wanted again.
			n.hintsDropped += uint64(len(entries))
			n.hintCount -= len(entries)
			delete(n.hints, target)
			continue
		}
		if n.cluster.isDown(target) {
			continue
		}
		for _, h := range entries {
			msg := replicaWrites.put(replicaWrite{Key: h.key, Cell: h.cell, Coord: n.id, Repair: false, Hint: true})
			n.cluster.net.Send(n.id, target, msg, msgOverhead+len(h.key)+len(h.cell.Value))
			n.hintsReplayed++
		}
		n.hintCount -= len(entries)
		delete(n.hints, target)
	}
}

func (n *Node) scheduleHintTick() {
	if n.cluster.cfg.HintReplayInterval > 0 {
		n.cluster.net.SendLocal(n.id, hintTick{epoch: n.epoch}, n.cluster.cfg.HintReplayInterval)
	}
}

func (n *Node) scheduleAE() {
	if n.cluster.cfg.AntiEntropyInterval > 0 {
		// Jitter the period ±25% so rounds don't synchronize.
		base := n.cluster.cfg.AntiEntropyInterval
		jitter := time.Duration((n.rng.Float64() - 0.5) * 0.5 * float64(base))
		n.cluster.net.SendLocal(n.id, aeTick{epoch: n.epoch}, base+jitter)
	}
}
