package kv

import (
	"time"

	"repro/internal/gossip"
	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/stats"
	"repro/internal/storage"
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
// strategy its ring prefix names (shared with every view at that
// prefix), the probe bookkeeping and the dissemination meters.
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

// newGossipState builds a node's agent anchored at ring-event prefix
// seq.
func newGossipState(n *Node, seq uint64) *gossipState {
	gs := &gossipState{rng: n.cluster.cfg.seedSource.StreamN("kv.gossip", int(n.id))}
	gs.rewind(n, seq)
	return gs
}

// rewind resets the agent's view and ring to prefix seq, keeping the
// meters (the ResetGossipView hook).
func (gs *gossipState) rewind(n *Node, seq uint64) {
	p := n.cluster.rings[seq]
	gs.view = gossip.NewView(n.id, p.members, gossipPiggyback, seq)
	gs.strategy = p.strategy
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

// routeReachable reports whether enough replicas are routable — not
// routeDown — to possibly satisfy req: the admission check of a write.
// The per-DC tally is only built for per-DC requirements.
func (n *Node) routeReachable(replicas []netsim.NodeID, req requirement) bool {
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
// routes on the placement of the prefix it reaches. Events already
// applied (the sender's suffix started behind us) are skipped by the
// view's dense-sequence gate.
func (n *Node) applyRingEvents(events []gossip.RingEvent) {
	gs := n.gs
	for _, ev := range events {
		if gs.view.ApplyRingEvent(ev) {
			gs.eventsApplied++
		}
	}
	gs.strategy = n.cluster.rings[gs.view.RingSeq()].strategy
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
		c.net.Send(n.id, peer, ping)
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
	c.net.Send(n.id, m.From, ack)
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
		n.cluster.net.Send(n.id, m.From, gossipEvents{From: n.id, Events: ev})
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

// refuse sends a coordinator the notOwner m — single-key (Key set) or
// batched (Batch, Idxs and Keys set) — stamped with this replica's id
// and the ring events a coordinator at prefix coordSeq is missing.
func (n *Node) refuse(m notOwner, coord netsim.NodeID, coordSeq uint64) {
	n.gs.notOwnerReplies++
	m.From = n.id
	m.Events = n.eventsForCoord(coordSeq)
	n.cluster.net.Send(n.id, coord, m)
}

// refuseForeign is the replica-side split of a batched request, made
// before any stage work: under gossip, when this replica's ring is
// strictly newer than the coordinator's, the items for ranges it no
// longer owns are refused in one notOwner and the rest compacted to the
// front of idxs, keys and (writes only) cells. It returns how many items
// remain to serve.
func (n *Node) refuseForeign(id reqID, coord netsim.NodeID, write bool, coordSeq uint64,
	idxs []int, keys []string, cells []storage.Cell) int {
	if n.gs == nil || n.gs.view.RingSeq() <= coordSeq {
		return len(idxs)
	}
	var refIdxs []int
	var refKeys []string
	kept := 0
	for j, key := range keys {
		if n.refusesKey(key, coordSeq) {
			refIdxs = append(refIdxs, idxs[j])
			refKeys = append(refKeys, key)
			continue
		}
		idxs[kept], keys[kept] = idxs[j], key
		if cells != nil {
			cells[kept] = cells[j]
		}
		kept++
	}
	if len(refIdxs) > 0 {
		n.refuse(notOwner{ID: id, Write: write, Batch: true, Idxs: refIdxs, Keys: refKeys}, coord, coordSeq)
	}
	return kept
}

// spendRetry charges one wrong-owner re-plan to a read, unless its
// budget is spent or its client already has the answer. The refuser
// will never respond, so it leaves the plan.
func (ctx *readCtx) spendRetry(budget int, refuser netsim.NodeID) bool {
	if ctx.delivered || ctx.retries >= budget {
		return false
	}
	ctx.retries++
	ctx.dropTarget(refuser)
	return true
}

// spendRetry charges one wrong-owner re-plan to a write, unless its
// budget is spent.
func (ctx *writeCtx) spendRetry(budget int) bool {
	if ctx.retries >= budget {
		return false
	}
	ctx.retries++
	return true
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

	budget := c.cfg.GossipRetryBudget
	retry := gossipRetry{ID: m.ID, Write: m.Write, Batch: m.Batch, epoch: n.epoch}
	minRetries := budget + 1 // the fewest retries a re-planned item has spent; none yet
	switch {
	case m.Batch && m.Write:
		if bctx, ok := n.batchWrites[m.ID]; ok {
			for _, i := range m.Idxs {
				if ctx := bctx.items[i]; ctx != nil && ctx.spendRetry(budget) {
					minRetries = min(minRetries, ctx.retries)
					retry.Idxs = append(retry.Idxs, i)
				}
			}
		}
	case m.Batch:
		if bctx, ok := n.batchReads[m.ID]; ok {
			for _, i := range m.Idxs {
				if ctx := bctx.items[i]; ctx != nil && ctx.spendRetry(budget, m.From) {
					minRetries = min(minRetries, ctx.retries)
					retry.Idxs = append(retry.Idxs, i)
				}
			}
		}
	case m.Write:
		if ctx, ok := n.writes[m.ID]; ok && ctx.spendRetry(budget) {
			minRetries = min(minRetries, ctx.retries)
		}
	default:
		if ctx, ok := n.reads[m.ID]; ok && ctx.spendRetry(budget, m.From) {
			minRetries = min(minRetries, ctx.retries)
		}
	}
	if minRetries > budget {
		return // nothing left to re-plan
	}
	gs.wrongOwnerRetries++
	backoff := gossipRetryBackoff << (minRetries - 1)
	c.net.SendLocal(n.id, retry, backoff)
}

// onGossipRetry re-plans an operation against the coordinator's
// advanced ring: reads contact the owners the original plan missed,
// writes ship the cell to replicas not yet sent to (or hint them). A
// batch's re-planned items share one message per replica.
func (n *Node) onGossipRetry(m gossipRetry) {
	switch {
	case m.Batch && m.Write:
		bctx, ok := n.batchWrites[m.ID]
		if !ok {
			return
		}
		reqs := make([]replicaReq, 0, 8)
		for _, i := range m.Idxs {
			if ctx := bctx.items[i]; ctx != nil {
				reqs = n.shipWrite(ctx, n.routeReplicas(ctx.key), reqs)
			}
		}
		n.sendReqs(reqs)
	case m.Batch:
		bctx, ok := n.batchReads[m.ID]
		if !ok {
			return
		}
		reqs := make([]replicaReq, 0, 8)
		for _, i := range m.Idxs {
			if ctx := bctx.items[i]; ctx != nil && !ctx.delivered {
				reqs = n.replanRead(ctx, reqs)
			}
		}
		n.sendReqs(reqs)
	case m.Write:
		if ctx, ok := n.writes[m.ID]; ok {
			n.shipWrite(ctx, n.routeReplicas(ctx.key), nil)
		}
	default:
		if ctx, ok := n.reads[m.ID]; ok && !ctx.delivered {
			n.replanRead(ctx, nil)
		}
	}
}
