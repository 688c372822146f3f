package kv

import (
	"fmt"
	"sort"

	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/storage"
)

// Elastic membership. The cluster's node set is mutable: Join adds a
// topology node to the ring, Decommission removes one, and both move
// only the ~1/N of key ownership the consistent-hash rebalance shifts.
// Data follows ownership through snapshot streaming (storage.Snapshot +
// the framed cell codec), modeled on Cassandra's bootstrap and
// decommission streaming:
//
//	Join(id):  the joiner asks every live member for the ranges it will
//	           own under the post-join placement; each key streams from
//	           a single source (its first live current replica). Only
//	           when every stream completed does the placement flip —
//	           reads and writes keep using the old owners until then —
//	           and the node enters warming: it takes writes but read
//	           coordinators deprioritize it until WarmupDuration
//	           elapses, covering the writes that landed between the
//	           snapshot point and the flip (anti-entropy and read
//	           repair close that gap).
//
//	Decommission(id): the leaver streams each key it owns to the nodes
//	           that newly own it under the post-removal placement, the
//	           targets acknowledge, and only then does the placement
//	           flip and the node leave the ring. Its actor stays
//	           registered so in-flight operations drain cleanly.
//
// One membership change runs at a time; a second Join/Decommission
// before the first flipped is refused. Failure of a stream peer mid-change
// cannot wedge the cluster: a guard timer forces the flip after
// 5×Timeout and the normal repair machinery converges the stragglers.

// nodePhase is the membership leg of the node state machine, orthogonal
// to the failed/crashed failure leg.
type nodePhase uint8

const (
	phaseLive nodePhase = iota
	// phaseBootstrapping: joining, receiving snapshot streams; not yet
	// in the placement, coordinates nothing.
	phaseBootstrapping
	// phaseWarming: in the placement and taking writes, but excluded
	// from read quorums whenever enough converged replicas are live.
	phaseWarming
	// phaseLeaving: decommission in progress, streaming ownership out;
	// still a full member until the flip.
	phaseLeaving
	// phaseDecommissioned: off the ring; the actor survives only to
	// drain in-flight messages and for accounting.
	phaseDecommissioned
)

// NodeState is the externally visible node status, combining the
// membership phase with the failure state machine.
type NodeState int

// Node states, from Cluster.State.
const (
	StateNotMember NodeState = iota
	StateLive
	StateFailed
	StateCrashed
	StateBootstrapping
	StateWarming
	StateLeaving
	StateDecommissioned
)

// String names the state for logs and tables.
func (s NodeState) String() string {
	switch s {
	case StateLive:
		return "live"
	case StateFailed:
		return "failed"
	case StateCrashed:
		return "crashed"
	case StateBootstrapping:
		return "bootstrapping"
	case StateWarming:
		return "warming"
	case StateLeaving:
		return "leaving"
	case StateDecommissioned:
		return "decommissioned"
	}
	return "not-member"
}

// membershipChange tracks the single in-flight Join or Decommission.
// gen distinguishes successive changes involving the same node, so a
// stale guard timer from a completed change cannot force-flip the next
// one mid-stream.
type membershipChange struct {
	join bool
	id   netsim.NodeID
	gen  uint64
	next ring.Strategy // post-change placement: streams route by it, the flip adopts it
}

// Members returns the current ring members in ascending id order.
func (c *Cluster) Members() []netsim.NodeID {
	return append([]netsim.NodeID(nil), c.order...)
}

// IsMember reports whether id is currently on the ring.
func (c *Cluster) IsMember(id netsim.NodeID) bool {
	n, ok := c.nodes[id]
	return ok && n.phase != phaseDecommissioned && n.phase != phaseBootstrapping
}

// State reports the node's combined membership/failure state.
func (c *Cluster) State(id netsim.NodeID) NodeState {
	n, ok := c.nodes[id]
	switch {
	case !ok:
		return StateNotMember
	case n.fault == faultCrashed:
		return StateCrashed
	case n.fault == faultFailed:
		return StateFailed
	case n.phase == phaseBootstrapping:
		return StateBootstrapping
	case n.phase == phaseWarming:
		return StateWarming
	case n.phase == phaseLeaving:
		return StateLeaving
	case n.phase == phaseDecommissioned:
		return StateDecommissioned
	}
	return StateLive
}

// Join adds topology node id to the cluster. The node starts
// bootstrapping: current owners stream it the ranges it will own under
// the post-join placement, and only when streaming completes does the
// placement flip and the node enter warming (see the package comment
// above). A node that was decommissioned earlier rejoins as a fresh
// empty machine. Joining a current member, a node outside the topology,
// or while another membership change is in flight returns an error and
// changes nothing.
func (c *Cluster) Join(id netsim.NodeID) error {
	if id < 0 || int(id) >= c.topo.N() {
		return fmt.Errorf("Join(%d) outside topology (N=%d)", id, c.topo.N())
	}
	if old, ok := c.nodes[id]; ok && old.phase != phaseDecommissioned {
		return fmt.Errorf("Join(%d): already a member (%v)", id, c.State(id))
	}
	if c.pending != nil {
		return fmt.Errorf("Join(%d): a membership change is in flight", id)
	}
	if old, ok := c.nodes[id]; ok {
		// The rejoin replaces the actor: bank the retiring incarnation's
		// meters so Usage keeps billing the work it did, and release its
		// WAL file, if any.
		accumulateNodeUsage(&c.retired, old)
		if err := old.engine.Close(); err != nil && c.closeErr == nil {
			// A failed WAL close on the retiring incarnation must not
			// vanish: Cluster.Close surfaces the first one.
			c.closeErr = err
		}
	}
	n := newNode(id, c)
	n.phase = phaseBootstrapping
	c.nodes[id] = n
	if !containsNode(c.allNodes, id) {
		c.allNodes = append(c.allNodes, id)
	}
	if !c.net.Remote(id) {
		c.net.Register(id, n.Handle)
	}

	c.membershipGen++
	c.pending = &membershipChange{
		join: true,
		id:   id,
		gen:  c.membershipGen,
		next: c.buildStrategy(append(c.Members(), id)),
	}
	c.armMembershipGuard(c.pending)

	if c.cfg.DisableJoinStream {
		// Ablation: no snapshot streaming — flip at once and let hinted
		// handoff, read repair and anti-entropy converge the empty node.
		c.finishJoin(id)
		return nil
	}
	var peers []netsim.NodeID
	for _, p := range c.order {
		if c.nodes[p].fault == faultNone {
			peers = append(peers, p)
		}
	}
	if len(peers) == 0 {
		c.finishJoin(id)
		return nil
	}
	// The arcs the joiner will own under the post-join placement: the
	// movements the membership change implies, filtered to ranges the
	// joiner enters. Every peer receives the same list and serves the
	// subset it sources, so stream work is proportional to the moved
	// ~1/N fraction, not the store size.
	var owned []ring.Range
	for _, mv := range ring.Diff(c.strategy, c.pending.next) {
		if containsNode(mv.New, id) {
			owned = append(owned, mv.Range)
		}
	}
	n.joinPending = len(peers)
	n.streamsIn = make(map[netsim.NodeID]*streamIn, len(peers))
	for _, p := range peers {
		c.net.Send(id, p, streamRequest{Joiner: id, Ranges: owned})
	}
	return nil
}

// Decommission removes member id from the cluster. The leaver first
// streams every key it owns to the nodes that newly own it under the
// post-removal placement; once the targets acknowledge, the placement
// flips and the node leaves the ring (its actor drains in-flight work
// but coordinates nothing new). Decommissioning below the replication
// factor, a non-live node, or during another membership change returns
// an error and changes nothing.
func (c *Cluster) Decommission(id netsim.NodeID) error {
	if err := c.validateDecommission(id); err != nil {
		return err
	}
	if c.pending != nil {
		return fmt.Errorf("Decommission(%d): a membership change is in flight", id)
	}
	n := c.nodes[id]
	rest := make([]netsim.NodeID, 0, len(c.order)-1)
	for _, m := range c.order {
		if m != id {
			rest = append(rest, m)
		}
	}
	// validateDecommission has checked that the survivors carry the
	// replication factor (total and per-DC), so buildStrategy cannot panic.
	c.membershipGen++
	c.pending = &membershipChange{join: false, id: id, gen: c.membershipGen, next: c.buildStrategy(rest)}
	n.phase = phaseLeaving
	c.armMembershipGuard(c.pending)
	n.startDecommissionStream()
	return nil
}

// validateDecommission reports why a Decommission cannot be issued, or
// nil: the node is not a settled live member, or the survivors could not
// carry the replication factor (buildStrategy would panic on that).
func (c *Cluster) validateDecommission(id netsim.NodeID) error {
	n, ok := c.nodes[id]
	switch {
	case !ok || n.phase == phaseDecommissioned || n.phase == phaseBootstrapping:
		return fmt.Errorf("Decommission(%d): not a member", id)
	case n.fault != faultNone:
		return fmt.Errorf("Decommission(%d): node is %v; Recover it first", id, c.State(id))
	case n.phase != phaseLive:
		return fmt.Errorf("Decommission(%d): node is %v; wait for it to settle", id, c.State(id))
	}
	if len(c.order)-1 < c.strategy.RF() {
		return fmt.Errorf("Decommission(%d): %d survivors cannot carry RF %d",
			id, len(c.order)-1, c.strategy.RF())
	}
	if len(c.cfg.PerDC) > 0 {
		dc := c.topo.DCOf(id)
		left := 0
		for _, m := range c.order {
			if m != id && c.topo.DCOf(m) == dc {
				left++
			}
		}
		if left < c.cfg.PerDC[dc] {
			return fmt.Errorf("Decommission(%d): DC %s would drop to %d members below its replication count %d",
				id, dc, left, c.cfg.PerDC[dc])
		}
	}
	return nil
}

// MembershipSettled reports whether the cluster is quiescent membership-
// wise: no Join/Decommission in flight and no node still inside its
// post-join/post-restart warming window. Controllers pace one change at
// a time on this.
func (c *Cluster) MembershipSettled() bool {
	return c.pending == nil && len(c.warming) == 0
}

// armMembershipGuard forces the flip if streaming wedges (a stream peer
// failed mid-change and its chunks died with it); the normal repair
// machinery then converges whatever the stream did not carry. The
// generation check pins the timer to exactly the change it was armed
// for: a later change involving the same node must not be force-flipped
// by a dead timer.
func (c *Cluster) armMembershipGuard(p *membershipChange) {
	c.net.Schedule(5*c.cfg.Timeout, func() {
		if c.pending == nil || c.pending.gen != p.gen {
			return
		}
		if p.join {
			c.finishJoin(p.id)
		} else {
			c.finishDecommission(p.id)
		}
	})
}

// finishJoin flips the placement: the cluster adopts the post-join
// strategy Join built, the node joins the coordinator rotation and
// its background chains start. With WarmupDuration set it warms first.
func (c *Cluster) finishJoin(id netsim.NodeID) {
	p := c.pending
	if p == nil || !p.join || p.id != id {
		return
	}
	c.pending = nil
	c.joins++
	c.strategy = p.next
	c.insertMember(id)
	n := c.nodes[id]
	n.streamsIn = nil
	n.joinPending = 0
	n.phase = phaseLive
	c.markWarming(id)
	n.scheduleAE()
	n.scheduleHintTick()
	if c.cfg.Gossip {
		// The flip becomes ring event len+1. Only the joiner (whose view
		// starts at the full prefix) and one live introducer learn it
		// here; everyone else hears it through gossip or a wrong-owner
		// refusal — joins become visible gradually.
		c.appendRingEvent(true, id)
		n.gs = newGossipState(n, uint64(len(c.ringEvents)))
		c.net.SendLocal(id, gossipTick{epoch: n.epoch}, c.cfg.GossipInterval)
		c.seedIntroducer(id)
	}
}

// finishDecommission flips the placement: the cluster adopts the
// post-removal strategy Decommission built, the leaver leaves the
// coordinator rotation, and its actor lingers only to drain.
func (c *Cluster) finishDecommission(id netsim.NodeID) {
	p := c.pending
	if p == nil || p.join || p.id != id {
		return
	}
	c.pending = nil
	c.decommissions++
	c.strategy = p.next
	c.removeMember(id)
	n := c.nodes[id]
	n.phase = phaseDecommissioned
	n.decomPending = 0
	delete(c.warming, id)
	if c.cfg.Gossip {
		c.appendRingEvent(false, id)
		// The leaver applies its own departure: while its actor drains,
		// its strictly newer ring refuses coordinated requests for the
		// ranges it handed off, teaching stale coordinators. A live
		// introducer starts the proactive spread (the leaver no longer
		// gossips).
		if n.gs != nil {
			n.applyRingEvents(c.eventsSince(n.gs.view.RingSeq()))
		}
		c.seedIntroducer(id)
	}
}

// seedIntroducer applies the ring-event log's fresh suffix to the first
// live member other than the node that just changed. Without gossip on
// at least one live view, a decommission's ring event could otherwise
// sit unknown until a refusal happens to surface it.
func (c *Cluster) seedIntroducer(changed netsim.NodeID) {
	for _, id := range c.order {
		if id == changed {
			continue
		}
		n := c.nodes[id]
		if n.gs == nil || n.fault != faultNone {
			continue
		}
		n.applyRingEvents(c.eventsSince(n.gs.view.RingSeq()))
		return
	}
}

// markWarming puts id into the warming window: it serves writes but read
// coordinators deprioritize it until the window elapses. A no-op when
// WarmupDuration is 0 (warming disabled) or when the node is not plainly
// live — in particular, a node whose decommission completed while it was
// crashed must stay decommissioned through Recover, not resurrect into
// the member states.
func (c *Cluster) markWarming(id netsim.NodeID) {
	if c.cfg.WarmupDuration <= 0 {
		return
	}
	n := c.nodes[id]
	if n.phase != phaseLive {
		return
	}
	n.phase = phaseWarming
	c.warming[id] = true
	epoch := n.epoch
	c.net.Schedule(c.cfg.WarmupDuration, func() {
		// A crash (epoch bump) or decommission during the window
		// invalidates this timer; the next restart re-arms its own.
		if n.epoch == epoch && n.phase == phaseWarming {
			delete(c.warming, id)
			n.phase = phaseLive
		}
	})
}

func (c *Cluster) insertMember(id netsim.NodeID) {
	i := sort.Search(len(c.order), func(i int) bool { return c.order[i] >= id })
	c.order = append(c.order, 0)
	copy(c.order[i+1:], c.order[i:])
	c.order[i] = id
	// A placement flip silently re-routes key ownership; cached entries
	// were filled under the old ring's invalidation contract.
	c.dropAllCaches()
}

func (c *Cluster) removeMember(id netsim.NodeID) {
	for i, m := range c.order {
		if m == id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			c.dropAllCaches()
			return
		}
	}
}

func containsNode(list []netsim.NodeID, id netsim.NodeID) bool {
	for _, n := range list {
		if n == id {
			return true
		}
	}
	return false
}

// streamIn tracks one inbound snapshot stream (from one peer).
type streamIn struct {
	chunks int
	done   bool
	expect int           // chunk count announced by streamDone
	ackTo  netsim.NodeID // send streamAck here when complete; -1 for join streams
}

// complete reports whether every announced chunk has been applied.
func (s *streamIn) complete() bool { return s.done && s.chunks >= s.expect }

// rangeSourceFor deterministically picks the single member that streams
// arc r to a joiner: the first current replica of the arc that can
// serve. A key's replica set is a function of its arc alone, so this is
// the per-range form of the old per-key rule; every peer evaluates it
// at the same event and exactly one of them ships each range.
func (c *Cluster) rangeSourceFor(r ring.Range) netsim.NodeID {
	for _, rep := range c.strategy.ReplicasAt(r.End) {
		if n, ok := c.nodes[rep]; ok && n.fault == faultNone && n.phase != phaseDecommissioned {
			return rep
		}
	}
	return -1
}

// onStreamRequest serves a joiner's range request: of the arcs the
// joiner will own, keep those this node sources (single-source rule
// above), walk a point-in-time snapshot of exactly those arcs, frame
// the cells into chunks, and ship each chunk through the read stage —
// streaming contends with foreground reads for service slots, exactly
// like Cassandra's bootstrap streaming competing for disk.
func (n *Node) onStreamRequest(m streamRequest) {
	c := n.cluster
	p := c.pending
	if p == nil || !p.join || p.id != m.Joiner {
		return // the join already flipped (guard timer) or was superseded
	}
	// Filtering preserves ring's sorted range order, so SnapshotRanges
	// yields the same sorted-key cell sequence the full walk produced.
	var mine []ring.Range
	for _, r := range m.Ranges {
		if c.rangeSourceFor(r) == n.id {
			mine = append(mine, r)
		}
	}
	out := chunker{budget: c.cfg.streamChunkBudget()}
	it := n.engine.SnapshotRanges(mine)
	for {
		k, cell, ok := it.Next()
		if !ok {
			break
		}
		n.streamSnapshotCells++
		out.add(k, cell)
	}
	n.sendStream(m.Joiner, &out, false)
}

// startDecommissionStream streams every key the leaver owns to the nodes
// that newly own it under the pending placement: the ring.Diff
// movements the leaver exits name the arcs and their new owners, so the
// leaver snapshots only those arcs instead of walking its whole store.
func (n *Node) startDecommissionStream() {
	c := n.cluster
	p := c.pending
	budget := c.cfg.streamChunkBudget()
	type rangeTargets struct {
		r       ring.Range
		targets []netsim.NodeID
	}
	var plan []rangeTargets
	var owned []ring.Range
	for _, mv := range ring.Diff(c.strategy, p.next) {
		if !containsNode(mv.Old, n.id) {
			continue // an arc this node never owned; its owners hand it off
		}
		var ts []netsim.NodeID
		for _, t := range mv.New {
			if containsNode(mv.Old, t) || c.isDown(t) {
				continue // already holds the range, or unreachable (AE heals later)
			}
			ts = append(ts, t)
		}
		if len(ts) == 0 {
			continue
		}
		plan = append(plan, rangeTargets{r: mv.Range, targets: ts})
		owned = append(owned, mv.Range)
	}
	// plan follows ring's range order (ascending by End, wrapping arc
	// first), so a binary search on End finds a key's arc.
	targetsFor := func(tok ring.Token) []netsim.NodeID {
		i := sort.Search(len(plan), func(i int) bool { return plan[i].r.End >= tok })
		if i < len(plan) && plan[i].r.Contains(tok) {
			return plan[i].targets
		}
		if len(plan) > 0 && plan[0].r.Wraps() && plan[0].r.Contains(tok) {
			return plan[0].targets
		}
		return nil
	}
	perTarget := make(map[netsim.NodeID]*chunker)
	var order []netsim.NodeID
	it := n.engine.SnapshotRanges(owned)
	for {
		k, cell, ok := it.Next()
		if !ok {
			break
		}
		n.streamSnapshotCells++
		for _, t := range targetsFor(ring.KeyToken(k)) {
			out := perTarget[t]
			if out == nil {
				out = &chunker{budget: budget}
				perTarget[t] = out
				order = append(order, t)
			}
			out.add(k, cell)
		}
	}
	if len(order) == 0 {
		c.finishDecommission(n.id)
		return
	}
	n.decomPending = len(order)
	for _, t := range order {
		n.sendStream(t, perTarget[t], true)
	}
}

// chunker frames one snapshot stream's cells (storage.EncodeCell
// records) into chunks of the stream chunk budget, for the join and the
// decommission streams alike.
type chunker struct {
	budget int
	chunks [][]byte
	counts []int // cells per chunk
	buf    []byte
	count  int
	cells  int
}

// add frames one cell, closing the chunk once it reaches the budget.
func (ch *chunker) add(key string, cell storage.Cell) {
	ch.buf = storage.EncodeCell(ch.buf, key, cell)
	ch.count++
	ch.cells++
	if len(ch.buf) >= ch.budget {
		ch.flush()
	}
}

// flush closes the open chunk, if it holds any cell.
func (ch *chunker) flush() {
	if ch.count > 0 {
		ch.chunks, ch.counts = append(ch.chunks, ch.buf), append(ch.counts, ch.count)
		ch.buf, ch.count = nil, 0
	}
}

// sendStream ships framed chunks plus the closing streamDone to one
// receiver, one read-stage work unit per chunk (paced by the node's
// service capacity). needAck marks decommission streams, whose receiver
// acknowledges completion back to the sender.
func (n *Node) sendStream(to netsim.NodeID, out *chunker, needAck bool) {
	c := n.cluster
	out.flush()
	total := 0
	for i := range out.chunks {
		data, cnt := out.chunks[i], out.counts[i]
		total += len(data)
		n.submitRead(c.cfg.ReadService.Sample(n.rng), func() {
			n.streamChunksOut++
			n.streamedOutCells += uint64(cnt)
			n.streamedOutBytes += uint64(len(data))
			c.net.Send(n.id, to, streamChunk{From: n.id, Data: data, Count: cnt})
		})
	}
	nChunks, cells := len(out.chunks), out.cells
	n.submitRead(c.cfg.CoordOverhead.Sample(n.rng), func() {
		c.net.Send(n.id, to, streamDone{
			From: n.id, Chunks: nChunks, Cells: cells, Bytes: total, NeedAck: needAck,
		})
	})
}

// inStream returns (creating if needed) the tracking entry for an
// inbound stream from peer.
func (n *Node) inStream(peer netsim.NodeID) *streamIn {
	if n.streamsIn == nil {
		n.streamsIn = make(map[netsim.NodeID]*streamIn)
	}
	st := n.streamsIn[peer]
	if st == nil {
		st = &streamIn{expect: -1, ackTo: -1}
		n.streamsIn[peer] = st
	}
	return st
}

// onStreamChunk applies one chunk of an inbound snapshot stream through
// the write stage and the normal last-write-wins path — a streamed cell
// can never clobber a newer resident version, so streams overlap hints
// and anti-entropy safely.
func (n *Node) onStreamChunk(m streamChunk) {
	cost := n.cluster.cfg.WriteService.Sample(n.rng)
	n.submitWrite(cost, func() {
		n.streamChunksIn++
		off := 0
		for off < len(m.Data) {
			key, cell, size, err := storage.DecodeCell(m.Data, off)
			if err != nil {
				break // torn/corrupt tail: keep the consistent prefix, AE heals the rest
			}
			if n.engine.Apply(key, cell) {
				n.streamedInCells++
				n.cluster.oracle.Applied(n.id, key, cell.Version, n.cluster.net.Now())
			}
			n.cacheInvalidate(key)
			off += size
		}
		st := n.inStream(m.From)
		st.chunks++
		n.streamProgress(m.From, st)
	})
}

// onStreamDone records a stream's announced totals; completion may
// already hold (all chunks applied) or arrive with a later chunk.
func (n *Node) onStreamDone(m streamDone) {
	st := n.inStream(m.From)
	st.done = true
	st.expect = m.Chunks
	if m.NeedAck {
		st.ackTo = m.From
	}
	n.streamProgress(m.From, st)
}

// streamProgress advances the join/decommission handshake when the
// stream from peer has fully applied.
func (n *Node) streamProgress(peer netsim.NodeID, st *streamIn) {
	if !st.complete() {
		return
	}
	delete(n.streamsIn, peer)
	if st.ackTo >= 0 {
		// Decommission handoff: tell the leaver this range landed.
		n.cluster.net.Send(n.id, st.ackTo, streamAck{From: n.id})
		return
	}
	// Join bootstrap: one source down, flip when the last completes.
	if n.phase == phaseBootstrapping && n.joinPending > 0 {
		n.joinPending--
		if n.joinPending == 0 {
			n.cluster.finishJoin(n.id)
		}
	}
}

// onStreamAck counts a decommission target's completion; the last ack
// flips the placement.
func (n *Node) onStreamAck(m streamAck) {
	if n.phase != phaseLeaving || n.decomPending == 0 {
		return
	}
	n.decomPending--
	if n.decomPending == 0 {
		n.cluster.finishDecommission(n.id)
	}
}
