package kv

import (
	"time"

	"repro/internal/gossip"
	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/stats"
)

// Gossip membership (Config.Gossip). Each node runs a SWIM agent over
// the deterministic scheduler: a gossipTick every GossipInterval probes
// one peer (round-robin over a shuffled cycle) with piggybacked
// liveness rumors; an unanswered probe after half the interval raises a
// suspicion, and a suspicion that ages past gossipSuspicionIntervals
// probe periods unrefuted becomes a death verdict. Ring knowledge — the
// prefix of the global membership-flip log a node has applied — rides
// the same messages: pings and acks carry the sender's ring sequence,
// and whichever side is fresher ships the missing suffix.
//
// Routing consequences: coordinators plan reads and writes on their
// LOCAL ring (possibly stale), and a replica contacted for a range it
// no longer owns under its strictly NEWER ring refuses with notOwner,
// carrying the ring events the coordinator is missing. The coordinator
// merges them, re-plans against the advanced ring and retries after a
// doubling backoff, at most GossipRetryBudget times, all inside the
// operation's original timeout. Refusal requires the replica to be
// strictly ahead: equal prefixes are identical rings, so every refusal
// advances the coordinator's ring by at least one event — the retry
// loop terminates even without the budget.
//
// A replica BEHIND the coordinator serves anyway: writes apply
// correctly anywhere (last-write-wins), and a stale read target is
// exactly the quorum-overlap risk the staleness oracle measures.

// gossipUpdateSize approximates one piggybacked rumor or ring event on
// the wire in bytes.
const gossipUpdateSize = 16

// Protocol parameters no deployment, experiment or test ever varied.
const (
	// gossipPiggyback caps the rumors piggybacked per message; each
	// rumor rides at most gossipPiggyback messages.
	gossipPiggyback = 6
	// gossipSuspicionIntervals is how many GossipIntervals a suspicion
	// may age before the suspector declares the target dead; a
	// refutation from the target in that window cancels it.
	gossipSuspicionIntervals = 4
	// gossipRetryBackoff is the base backoff before a wrong-owner retry,
	// doubling per retry.
	gossipRetryBackoff = 10 * time.Millisecond
)

// gossipState is a node's membership agent: its view, the placement
// strategy derived from its ring prefix, the probe bookkeeping and the
// dissemination meters.
type gossipState struct {
	view     *gossip.View
	strategy ring.Strategy
	rng      *stats.Source

	probeSeq    uint64
	awaitSeq    uint64 // outstanding probe; 0 = none
	awaitTarget netsim.NodeID

	rounds            uint64
	suspicions        uint64
	deadDeclared      uint64
	eventsApplied     uint64
	notOwnerReplies   uint64
	wrongOwnerRetries uint64
	warmViolations    uint64
}

// newGossipState builds a node's agent over the given ring member set,
// anchored at ring-event prefix seq.
func newGossipState(n *Node, members []netsim.NodeID, seq uint64) *gossipState {
	c := n.cluster
	return &gossipState{
		view:     gossip.NewView(n.id, members, gossipPiggyback, seq),
		strategy: c.buildStrategy(members),
		rng:      c.cfg.seedSource.StreamN("kv.gossip", int(n.id)),
	}
}

// rewind resets the agent's view and ring to prefix seq, keeping the
// meters (the ResetGossipView hook).
func (gs *gossipState) rewind(n *Node, members []netsim.NodeID, seq uint64) {
	c := n.cluster
	gs.view = gossip.NewView(n.id, members, gossipPiggyback, seq)
	gs.strategy = c.buildStrategy(members)
	gs.awaitSeq = 0
}

// gossipRetry is the epoch-stamped self-message that re-plans an
// operation after a wrong-owner refusal (the backoff timer).
type gossipRetry struct {
	ID    reqID
	Write bool
	Batch bool
	Idxs  []int // refused batch items to re-plan (Batch only)
	epoch uint32
}

// ringSeq reports this node's ring knowledge (0 without gossip: the
// atomic path has exactly one ring and nothing compares sequences).
func (n *Node) ringSeq() uint64 {
	if n.gs != nil {
		return n.gs.view.RingSeq()
	}
	return 0
}

// routeReplicas plans placement for key on this node's LOCAL ring
// under gossip, or on the cluster's atomic strategy without it.
func (n *Node) routeReplicas(key string) []netsim.NodeID {
	if n.gs != nil {
		return n.gs.strategy.Replicas(key)
	}
	return n.cluster.strategy.Replicas(key)
}

// routeDown reports whether this node would avoid sending a coordinated
// request to id: under gossip the node's own view decides (anything not
// Alive — suspects get hints, like Cassandra's per-node failure
// detector), otherwise the cluster-wide detector.
func (n *Node) routeDown(id netsim.NodeID) bool {
	if n.gs != nil {
		return n.gs.view.StatusOf(id) != gossip.Alive
	}
	return n.cluster.isDown(id)
}

// routeReachable is levelReachable against this node's local liveness
// view (the gossip-mode admission check).
func (n *Node) routeReachable(replicas []netsim.NodeID, req requirement) bool {
	if n.gs == nil {
		return n.cluster.levelReachable(replicas, req)
	}
	if req.perDC == nil {
		alive := 0
		for _, r := range replicas {
			if !n.routeDown(r) {
				alive++
			}
		}
		return alive >= req.total
	}
	alive := make(map[string]int, len(req.perDC))
	for _, r := range replicas {
		if !n.routeDown(r) {
			alive[n.cluster.topo.DCOf(r)]++
		}
	}
	return req.satisfiedCounts(0, alive)
}

// refusesKey implements the replica-side ownership check: refuse only
// when this replica's ring is STRICTLY newer than the coordinator's and
// the key is not ours under it. Repair and hint writes never hit this
// (they are convergence traffic, applied wherever they land).
func (n *Node) refusesKey(key string, coordSeq uint64) bool {
	gs := n.gs
	if gs == nil || gs.view.RingSeq() <= coordSeq {
		return false
	}
	return !containsNode(gs.strategy.Replicas(key), n.id)
}

// eventsForCoord returns the ring-event suffix a coordinator at prefix
// `from` is missing, bounded by what this replica itself has applied —
// a refusal never teaches more than the refuser knows.
func (n *Node) eventsForCoord(from uint64) []gossip.RingEvent {
	own := n.gs.view.RingSeq()
	if from >= own {
		return nil
	}
	return n.cluster.ringEvents[from:own]
}

// applyRingEvents merges a ring-event suffix into this node's view and
// placement. Events already applied (the sender's suffix started behind
// us) are skipped by the view's dense-sequence gate.
func (n *Node) applyRingEvents(events []gossip.RingEvent) {
	gs := n.gs
	for _, ev := range events {
		if !gs.view.ApplyRingEvent(ev) {
			continue
		}
		gs.eventsApplied++
		if ev.Join {
			gs.strategy.AddNode(ev.Node)
		} else {
			gs.strategy.RemoveNode(ev.Node)
		}
	}
}

// onGossipTick runs one probe round and re-arms the tick chain.
func (n *Node) onGossipTick() {
	gs := n.gs
	if gs == nil || n.phase == phaseDecommissioned || n.phase == phaseBootstrapping {
		return // chain ends; finishJoin/restart arm a fresh one
	}
	c := n.cluster
	gs.rounds++
	if peer := gs.view.NextPeer(gs.rng); peer >= 0 {
		gs.probeSeq++
		ping := gossipPing{
			From:         n.id,
			FromInc:      gs.view.Incarnation(n.id),
			Seq:          gs.probeSeq,
			RingSeq:      gs.view.RingSeq(),
			TargetStatus: gs.view.StatusOf(peer),
			TargetInc:    gs.view.Incarnation(peer),
			Updates:      gs.view.Updates(gossipPiggyback),
		}
		c.net.Send(n.id, peer, ping, msgOverhead+gossipUpdateSize*len(ping.Updates))
		gs.awaitSeq, gs.awaitTarget = gs.probeSeq, peer
		c.net.SendLocal(n.id, gossipProbeTimeout{Seq: gs.probeSeq, Target: peer, epoch: n.epoch},
			c.cfg.GossipInterval/2)
	}
	c.net.SendLocal(n.id, gossipTick{epoch: n.epoch}, c.cfg.GossipInterval)
}

// onGossipPing answers a probe: fold the prober's rumors in, refute a
// suspicion or death claim about ourselves, and ack with our own
// rumors plus the ring-event suffix the prober is missing.
func (n *Node) onGossipPing(m gossipPing) {
	gs := n.gs
	if gs == nil {
		return
	}
	c := n.cluster
	// The prober's claim about us: anything but alive triggers the SWIM
	// refutation (incarnation bump past the claim, full-budget rumor).
	if m.TargetStatus != gossip.Alive {
		gs.view.Apply(gossip.Update{Node: n.id, Status: m.TargetStatus, Incarnation: m.TargetInc})
	}
	// The ping itself is proof of the sender's life at its incarnation.
	gs.view.Apply(gossip.Update{Node: m.From, Status: gossip.Alive, Incarnation: m.FromInc})
	for _, u := range m.Updates {
		gs.view.Apply(u)
	}
	var events []gossip.RingEvent
	if m.RingSeq < gs.view.RingSeq() {
		events = n.eventsForCoord(m.RingSeq)
	}
	ack := gossipAck{
		From:         n.id,
		FromInc:      gs.view.Incarnation(n.id),
		Seq:          m.Seq,
		RingSeq:      gs.view.RingSeq(),
		TargetStatus: gs.view.StatusOf(m.From),
		TargetInc:    gs.view.Incarnation(m.From),
		Updates:      gs.view.Updates(gossipPiggyback),
		Events:       events,
	}
	c.net.Send(n.id, m.From, ack, msgOverhead+gossipUpdateSize*(len(ack.Updates)+len(ack.Events)))
}

// onGossipAck completes a probe round on the prober.
func (n *Node) onGossipAck(m gossipAck) {
	gs := n.gs
	if gs == nil {
		return
	}
	if m.Seq == gs.awaitSeq && m.From == gs.awaitTarget {
		gs.awaitSeq = 0 // answered in time; no suspicion
	}
	// Responder's claim about us (it may have held us dead): refute.
	if m.TargetStatus != gossip.Alive {
		gs.view.Apply(gossip.Update{Node: n.id, Status: m.TargetStatus, Incarnation: m.TargetInc})
	}
	// The ack is proof of the responder's life.
	gs.view.Apply(gossip.Update{Node: m.From, Status: gossip.Alive, Incarnation: m.FromInc})
	n.applyRingEvents(m.Events)
	for _, u := range m.Updates {
		gs.view.Apply(u)
	}
	// The responder is behind on ring events: bridge it forward.
	if m.RingSeq < gs.view.RingSeq() {
		ev := n.eventsForCoord(m.RingSeq)
		n.cluster.net.Send(n.id, m.From, gossipEvents{From: n.id, Events: ev},
			msgOverhead+gossipUpdateSize*len(ev))
	}
}

// onGossipEventsMsg folds a bridged ring-event suffix in.
func (n *Node) onGossipEventsMsg(m gossipEvents) {
	if n.gs == nil {
		return
	}
	n.applyRingEvents(m.Events)
}

// onGossipProbeTimeout raises a suspicion when the probe it guards is
// still unanswered, and arms the death timer for it.
func (n *Node) onGossipProbeTimeout(m gossipProbeTimeout) {
	gs := n.gs
	if gs == nil || gs.awaitSeq != m.Seq || gs.awaitTarget != m.Target {
		return // acked in time, or superseded
	}
	gs.awaitSeq = 0
	if upd, ok := gs.view.Suspect(m.Target); ok {
		gs.suspicions++
		n.cluster.net.SendLocal(n.id,
			gossipSuspicionTimeout{Target: m.Target, Inc: upd.Incarnation, epoch: n.epoch},
			gossipSuspicionIntervals*n.cluster.cfg.GossipInterval)
	}
}

// onGossipSuspicionTimeout declares the target dead when the exact
// suspicion that armed it still stands (no refutation arrived).
func (n *Node) onGossipSuspicionTimeout(m gossipSuspicionTimeout) {
	gs := n.gs
	if gs == nil {
		return
	}
	if _, ok := gs.view.Confirm(m.Target, m.Inc); ok {
		gs.deadDeclared++
	}
}

// refuseRead answers a single-key read for a range we no longer own.
func (n *Node) refuseRead(m replicaRead) {
	gs := n.gs
	gs.notOwnerReplies++
	ev := n.eventsForCoord(m.RingSeq)
	n.cluster.net.Send(n.id, m.Coord, notOwner{
		ID: m.ID, From: n.id, Key: m.Key, Events: ev,
	}, msgOverhead+len(m.Key)+gossipUpdateSize*len(ev))
}

// refuseWrite is the write counterpart of refuseRead.
func (n *Node) refuseWrite(m replicaWrite) {
	gs := n.gs
	gs.notOwnerReplies++
	ev := n.eventsForCoord(m.RingSeq)
	n.cluster.net.Send(n.id, m.Coord, notOwner{
		ID: m.ID, From: n.id, Write: true, Key: m.Key, Events: ev,
	}, msgOverhead+len(m.Key)+gossipUpdateSize*len(ev))
}

// refuseBatch refuses the listed items of a batched request.
func (n *Node) refuseBatch(id reqID, coord netsim.NodeID, write bool, coordSeq uint64, idxs []int, keys []string) {
	gs := n.gs
	gs.notOwnerReplies++
	ev := n.eventsForCoord(coordSeq)
	size := msgOverhead + gossipUpdateSize*len(ev)
	for _, k := range keys {
		size += len(k)
	}
	n.cluster.net.Send(n.id, coord, notOwner{
		ID: id, From: n.id, Write: write, Batch: true, Idxs: idxs, Keys: keys, Events: ev,
	}, size)
}

// onNotOwner merges a refusal's ring events into the coordinator's view
// and schedules a re-plan after the doubling backoff, within each
// item's retry budget. Items over budget simply ride to the timeout —
// the loud-failure backstop.
func (n *Node) onNotOwner(m notOwner) {
	gs := n.gs
	if gs == nil {
		return
	}
	c := n.cluster
	n.applyRingEvents(m.Events)

	retry := gossipRetry{ID: m.ID, Write: m.Write, Batch: m.Batch, epoch: n.epoch}
	var minRetries int
	switch {
	case m.Batch && m.Write:
		bctx, ok := n.batchWrites[m.ID]
		if !ok {
			return
		}
		for _, i := range m.Idxs {
			ctx := bctx.items[i]
			if ctx == nil || ctx.retries >= c.cfg.GossipRetryBudget {
				continue
			}
			ctx.retries++
			if len(retry.Idxs) == 0 || ctx.retries < minRetries {
				minRetries = ctx.retries
			}
			retry.Idxs = append(retry.Idxs, i)
		}
		if len(retry.Idxs) == 0 {
			return
		}
	case m.Batch:
		bctx, ok := n.batchReads[m.ID]
		if !ok {
			return
		}
		for _, i := range m.Idxs {
			ctx := bctx.items[i]
			if ctx == nil || ctx.delivered || ctx.retries >= c.cfg.GossipRetryBudget {
				continue
			}
			ctx.retries++
			ctx.dropTarget(m.From) // the refuser will never respond
			if len(retry.Idxs) == 0 || ctx.retries < minRetries {
				minRetries = ctx.retries
			}
			retry.Idxs = append(retry.Idxs, i)
		}
		if len(retry.Idxs) == 0 {
			return
		}
	case m.Write:
		ctx, ok := n.writes[m.ID]
		if !ok || ctx.retries >= c.cfg.GossipRetryBudget {
			return
		}
		ctx.retries++
		minRetries = ctx.retries
	default:
		ctx, ok := n.reads[m.ID]
		if !ok || ctx.delivered || ctx.retries >= c.cfg.GossipRetryBudget {
			return
		}
		ctx.retries++
		ctx.dropTarget(m.From)
		minRetries = ctx.retries
	}
	gs.wrongOwnerRetries++
	backoff := gossipRetryBackoff << (minRetries - 1)
	c.net.SendLocal(n.id, retry, backoff)
}

// onGossipRetry re-plans an operation against the coordinator's
// advanced ring: reads contact the owners the original plan missed,
// writes ship the cell to replicas not yet sent to (or hint them).
func (n *Node) onGossipRetry(m gossipRetry) {
	switch {
	case m.Batch && m.Write:
		n.retryBatchWrite(m)
	case m.Batch:
		n.retryBatchRead(m)
	case m.Write:
		n.retryWrite(m)
	default:
		n.retryRead(m)
	}
}

func (n *Node) retryRead(m gossipRetry) {
	ctx, ok := n.reads[m.ID]
	if !ok || ctx.delivered {
		return
	}
	n.sendReadRetry(ctx)
}

// sendReadRetry re-picks read targets under the local ring and contacts
// the ones not already in the plan (full data reads — the retry path
// never digest-fetches).
func (n *Node) sendReadRetry(ctx *readCtx) {
	replicas := n.routeReplicas(ctx.key)
	desired, ok := n.pickTargets(replicas, ctx.req, nil)
	if !ok {
		return // still unreachable under the new ring; the timeout speaks
	}
	for _, t := range desired {
		if containsNode(ctx.targets, t) {
			continue
		}
		ctx.targets = append(ctx.targets, t)
		rr := replicaReads.put(replicaRead{
			ID: ctx.id, Key: ctx.key, Coord: n.id, RingSeq: n.ringSeq(),
		})
		n.cluster.net.Send(n.id, t, rr, msgOverhead+len(ctx.key))
	}
}

func (n *Node) retryWrite(m gossipRetry) {
	ctx, ok := n.writes[m.ID]
	if !ok {
		return
	}
	n.sendWriteRetry(ctx)
}

// sendWriteRetry ships the cell to the owners the advanced ring added;
// replicas already sent to (including the refuser) are skipped, down
// ones get a hint.
func (n *Node) sendWriteRetry(ctx *writeCtx) {
	for _, r := range n.routeReplicas(ctx.key) {
		if containsNode(ctx.sent, r) {
			continue
		}
		ctx.sent = append(ctx.sent, r)
		if n.routeDown(r) {
			n.storeHint(r, ctx.key, ctx.cell)
			continue
		}
		w := replicaWrites.put(replicaWrite{
			ID: ctx.id, Key: ctx.key, Cell: ctx.cell, Coord: n.id, RingSeq: n.ringSeq(),
		})
		n.cluster.net.Send(n.id, r, w, msgOverhead+len(ctx.key)+len(ctx.cell.Value))
		ctx.shipped++
	}
}

func (n *Node) retryBatchRead(m gossipRetry) {
	bctx, ok := n.batchReads[m.ID]
	if !ok {
		return
	}
	var order []netsim.NodeID
	perReplica := make(map[netsim.NodeID]*replicaBatchRead)
	for _, i := range m.Idxs {
		ctx := bctx.items[i]
		if ctx == nil || ctx.delivered {
			continue
		}
		desired, ok := n.pickTargets(n.routeReplicas(ctx.key), ctx.req, nil)
		if !ok {
			continue
		}
		for _, t := range desired {
			if containsNode(ctx.targets, t) {
				continue
			}
			ctx.targets = append(ctx.targets, t)
			rb := perReplica[t]
			if rb == nil {
				rb = &replicaBatchRead{ID: m.ID, Coord: n.id, RingSeq: n.ringSeq()}
				perReplica[t] = rb
				order = append(order, t)
			}
			rb.Idxs = append(rb.Idxs, i)
			rb.Keys = append(rb.Keys, ctx.key)
		}
	}
	for _, t := range order {
		rb := perReplica[t]
		size := msgOverhead
		for _, k := range rb.Keys {
			size += len(k)
		}
		n.cluster.net.Send(n.id, t, rb, size)
	}
}

func (n *Node) retryBatchWrite(m gossipRetry) {
	bctx, ok := n.batchWrites[m.ID]
	if !ok {
		return
	}
	var order []netsim.NodeID
	perReplica := make(map[netsim.NodeID]*replicaBatchWrite)
	for _, i := range m.Idxs {
		ctx := bctx.items[i]
		if ctx == nil {
			continue
		}
		for _, r := range n.routeReplicas(ctx.key) {
			if containsNode(ctx.sent, r) {
				continue
			}
			ctx.sent = append(ctx.sent, r)
			if n.routeDown(r) {
				n.storeHint(r, ctx.key, ctx.cell)
				continue
			}
			rb := perReplica[r]
			if rb == nil {
				rb = &replicaBatchWrite{ID: m.ID, Coord: n.id, RingSeq: n.ringSeq()}
				perReplica[r] = rb
				order = append(order, r)
			}
			rb.Idxs = append(rb.Idxs, i)
			rb.Keys = append(rb.Keys, ctx.key)
			rb.Cells = append(rb.Cells, ctx.cell)
			ctx.shipped++
		}
	}
	for _, r := range order {
		rb := perReplica[r]
		size := msgOverhead
		for j := range rb.Keys {
			size += len(rb.Keys[j]) + len(rb.Cells[j].Value)
		}
		n.cluster.net.Send(n.id, r, rb, size)
	}
}
