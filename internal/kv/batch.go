package kv

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/storage"
)

// Batched multi-key coordination. A batch pays one coordinator admission
// and sends at most one request message per replica — the per-item
// machinery (level requirements, ack folding, read repair, staleness
// judgment, monitor hooks) is shared with the single-key path through
// readCtx/writeCtx.

// ReadBatch issues a multi-key read as one coordinated batch instead of
// len(keys) independent operations. Results arrive together, in key
// order; cb runs once. The same client-side timeout guarantee as Read
// applies to the batch as a whole.
func (c *Cluster) ReadBatch(keys []string, lvl Level, cb func([]ReadResult)) {
	if len(keys) == 0 {
		cb(nil)
		return
	}
	id := c.nextReqID()
	coord := c.pickCoordinator()
	if coord < 0 {
		cb(failedReads(keys, lvl, ErrUnavailable, 0))
		return
	}
	rt, op := c.newOp(lvl)
	op.keys, op.brcb = keys, cb
	size := msgOverhead
	for _, k := range keys {
		size += len(k)
	}
	c.net.Send(netsim.ClientID, coord, clientBatchRead{ID: id, Keys: keys, Level: lvl, rt: rt}, size)
	c.armOp(rt)
}

// WriteBatch issues a multi-key mutation batch (puts and tombstones
// mixed) as one coordinated batch. Results arrive together, in op
// order; cb runs once.
func (c *Cluster) WriteBatch(ops []BatchOp, lvl Level, cb func([]WriteResult)) {
	if len(ops) == 0 {
		cb(nil)
		return
	}
	id := c.nextReqID()
	coord := c.pickCoordinator()
	if coord < 0 {
		cb(failedWrites(ops, lvl, ErrUnavailable, 0))
		return
	}
	rt, op := c.newOp(lvl)
	op.bops, op.bwcb = ops, cb
	size := msgOverhead
	for _, o := range ops {
		size += len(o.Key) + len(o.Value)
	}
	c.net.Send(netsim.ClientID, coord, clientBatchWrite{ID: id, Ops: ops, Level: lvl, rt: rt}, size)
	c.armOp(rt)
}

func failedReads(keys []string, lvl Level, err error, lat time.Duration) []ReadResult {
	out := make([]ReadResult, len(keys))
	for i, k := range keys {
		out[i] = ReadResult{Err: err, Key: k, Level: lvl, Latency: lat}
	}
	return out
}

func failedWrites(ops []BatchOp, lvl Level, err error, lat time.Duration) []WriteResult {
	out := make([]WriteResult, len(ops))
	for i, op := range ops {
		out[i] = WriteResult{Err: err, Key: op.Key, Level: lvl, Latency: lat}
	}
	return out
}

// coordBatchRead admits a whole multi-key read with a single admission
// cost, then fans out at most one request message per replica.
func (n *Node) coordBatchRead(m clientBatchRead) {
	n.coordWork(coordExec{kind: execBatchRead, br: m})
}

// admitBatchRead plans and fans out a batch whose admission work is done.
func (n *Node) admitBatchRead(m clientBatchRead) {
	now := n.cluster.net.Now()
	n.coordOps++ // one admission for the whole batch
	n.cluster.hooks.batchStarted(now, len(m.Keys), 0)

	bctx := &batchReadCtx{
		id: m.ID, rt: m.rt,
		items:   make([]*readCtx, len(m.Keys)),
		results: make([]ReadResult, len(m.Keys)),
		pending: len(m.Keys),
	}

	var order []netsim.NodeID
	perReplica := make(map[netsim.NodeID]*replicaBatchRead)
	for i, key := range m.Keys {
		n.cluster.hooks.readStarted(now, key)
		if t := n.cluster.hot; t != nil {
			t.observeRead(key, now)
		}
		replicas := n.routeReplicas(key)
		req := m.Level.resolve(replicas, n.cluster.topo, n.cluster.topo.DCOf(n.id))
		ctx := getReadCtx()
		targets, ok := n.pickTargets(replicas, req, ctx.targets)
		ctx.targets = targets
		if !ok {
			putReadCtx(ctx)
			// Like the single-read path: unavailable admissions do
			// not fire readCompleted, only the oracle failure count.
			n.cluster.oracle.ReadFailed()
			n.batchReadDone(bctx, i, ReadResult{Err: ErrUnavailable, Key: key, Level: m.Level})
			continue
		}
		ctx.id, ctx.key, ctx.level, ctx.req = m.ID, key, m.Level, req
		ctx.start = now
		ctx.batch, ctx.item = bctx, i
		ctx.visibleAtStart, ctx.issuedAtStart = n.cluster.oracle.Latest(key)
		if req.perDC != nil {
			ctx.ackDC = make(map[string]int, len(req.perDC))
		}
		bctx.items[i] = ctx
		for _, t := range targets {
			rb := perReplica[t]
			if rb == nil {
				rb = &replicaBatchRead{ID: m.ID, Coord: n.id, RingSeq: n.ringSeq()}
				perReplica[t] = rb
				order = append(order, t)
			}
			rb.Idxs = append(rb.Idxs, i)
			rb.Keys = append(rb.Keys, key)
		}
	}
	if bctx.pending == 0 {
		return // every item failed at admission; reply already sent
	}
	n.batchReads[m.ID] = bctx
	for _, t := range order {
		rb := perReplica[t]
		size := msgOverhead
		for _, k := range rb.Keys {
			size += len(k)
		}
		n.cluster.net.Send(n.id, t, rb, size)
	}
	bctx.timer = n.armTimeout(m.ID, false)
}

// batchReadDone records one item's client-visible result and ships the
// batch's reply once every item has one.
func (n *Node) batchReadDone(bctx *batchReadCtx, i int, res ReadResult) {
	bctx.results[i] = res
	bctx.pending--
	if bctx.pending == 0 && !bctx.delivered {
		bctx.delivered = true
		n.replyBatchRead(bctx.rt, bctx.results)
	}
}

// onBatchReadResp folds one replica's batched response into every item
// it answers for.
func (n *Node) onBatchReadResp(m replicaBatchReadResp) {
	bctx, ok := n.batchReads[m.ID]
	if !ok {
		return
	}
	for _, it := range m.Items {
		ctx := bctx.items[it.Idx]
		if ctx == nil {
			continue // failed at admission or already finalized
		}
		if ctx.findResp(m.From) >= 0 {
			continue
		}
		resp := replicaReadResp{
			ID: m.ID, Key: ctx.key, Cell: it.Cell, Exists: it.Exists, From: m.From,
		}
		ctx.responses = append(ctx.responses, resp)
		ctx.ackTotal++
		if ctx.ackDC != nil {
			ctx.ackDC[n.cluster.topo.DCOf(m.From)]++
		}
		if resp.Exists {
			if !ctx.haveBest || resp.Cell.Version.After(ctx.best.Cell.Version) {
				ctx.best = resp
				ctx.haveBest = true
			}
			if !ctx.haveData || resp.Cell.Version.After(ctx.bestData.Cell.Version) {
				ctx.bestData = resp
				ctx.haveData = true
			}
		}
		// Batched responses always carry data, so completion never waits
		// on a digest refetch.
		if !ctx.completed && ctx.req.satisfiedCounts(ctx.ackTotal, ctx.ackDC) {
			n.tryCompleteRead(ctx)
		}
		if len(ctx.responses) >= len(ctx.targets) && ctx.delivered {
			bctx.items[it.Idx] = nil
			n.finalizeRead(ctx)
			putReadCtx(ctx)
		}
	}
	for _, ctx := range bctx.items {
		if ctx != nil {
			return
		}
	}
	delete(n.batchReads, m.ID) // every item finalized before the timeout
	bctx.timer.Stop()
}

// replyBatchRead ships a whole batch's results to the client endpoint in
// one message.
func (n *Node) replyBatchRead(rt opRoute, res []ReadResult) {
	size := msgOverhead
	for _, r := range res {
		size += len(r.Value)
	}
	n.cluster.net.Send(n.id, netsim.ClientID, clientBatchReadReply{rt: rt, res: res}, size)
}

// coordBatchWrite admits a whole multi-key mutation batch with a single
// admission cost, then sends each replica one message carrying every
// cell it owns.
func (n *Node) coordBatchWrite(m clientBatchWrite) {
	n.coordWork(coordExec{kind: execBatchWrite, bw: m})
}

// admitBatchWrite versions and fans out a batch whose admission work is
// done.
func (n *Node) admitBatchWrite(m clientBatchWrite) {
	now := n.cluster.net.Now()
	n.coordOps++ // one admission for the whole batch
	n.cluster.hooks.batchStarted(now, 0, len(m.Ops))

	bctx := &batchWriteCtx{
		id: m.ID, rt: m.rt,
		items:   make([]*writeCtx, len(m.Ops)),
		results: make([]WriteResult, len(m.Ops)),
		pending: len(m.Ops),
	}

	var order []netsim.NodeID
	perReplica := make(map[netsim.NodeID]*replicaBatchWrite)
	for i, op := range m.Ops {
		replicas := n.routeReplicas(op.Key)
		req := m.Level.resolve(replicas, n.cluster.topo, n.cluster.topo.DCOf(n.id))
		if !n.routeReachable(replicas, req) {
			n.batchWriteDone(bctx, i, WriteResult{Err: ErrUnavailable, Key: op.Key, Level: m.Level})
			continue
		}
		version := storage.Version{Timestamp: now, Seq: n.cluster.nextSeq()}
		cell := storage.Cell{Version: version, Value: op.Value, Tombstone: op.Delete}
		n.cluster.oracle.WriteStarted(op.Key, version, len(replicas), now)
		n.cluster.hooks.writeStarted(now, op.Key, version, len(replicas))
		if t := n.cluster.hot; t != nil {
			t.observeWrite(op.Key, now)
		}
		n.cacheInvalidate(op.Key)
		ctx := getWriteCtx()
		ctx.id, ctx.key, ctx.level, ctx.req = m.ID, op.Key, m.Level, req
		ctx.start = now
		ctx.batch, ctx.item = bctx, i
		ctx.version = version
		ctx.replicas = len(replicas)
		if req.perDC != nil {
			ctx.ackDC = make(map[string]int, len(req.perDC))
		}
		bctx.items[i] = ctx
		bctx.open++
		if n.gs != nil {
			ctx.cell = cell
			ctx.sent = append(ctx.sent[:0], replicas...)
		}
		for _, r := range replicas {
			if n.routeDown(r) {
				n.storeHint(r, op.Key, cell)
				continue
			}
			rb := perReplica[r]
			if rb == nil {
				rb = &replicaBatchWrite{ID: m.ID, Coord: n.id, RingSeq: n.ringSeq()}
				perReplica[r] = rb
				order = append(order, r)
			}
			rb.Idxs = append(rb.Idxs, i)
			rb.Keys = append(rb.Keys, op.Key)
			rb.Cells = append(rb.Cells, cell)
			ctx.shipped++
		}
	}
	// The batch context outlives the client reply: late replica acks are
	// the monitor's propagation signal, exactly as for single writes. It
	// retires with its last item (onBatchWriteAck) or at the timeout.
	n.batchWrites[m.ID] = bctx
	for _, r := range order {
		rb := perReplica[r]
		size := msgOverhead
		for j := range rb.Keys {
			size += len(rb.Keys[j]) + len(rb.Cells[j].Value)
		}
		n.cluster.net.Send(n.id, r, rb, size)
	}
	bctx.timer = n.armTimeout(m.ID, true)
}

// batchWriteDone is the write counterpart of batchReadDone.
func (n *Node) batchWriteDone(bctx *batchWriteCtx, i int, res WriteResult) {
	bctx.results[i] = res
	bctx.pending--
	if bctx.pending == 0 && !bctx.delivered {
		bctx.delivered = true
		n.replyBatchWrite(bctx.rt, bctx.results)
	}
}

// onBatchWriteAck folds one replica's batched acknowledgement into every
// item it covers, retiring the items it settles and the batch with its
// last one (an item settles only once answered, so the reply is out).
func (n *Node) onBatchWriteAck(m replicaBatchWriteAck) {
	bctx, ok := n.batchWrites[m.ID]
	if !ok {
		return
	}
	for _, idx := range m.Idxs {
		ctx := bctx.items[idx]
		if ctx == nil {
			continue
		}
		n.foldWriteAck(ctx, m.From)
		if ctx.settled() {
			bctx.items[idx] = nil
			bctx.open--
			putWriteCtx(ctx)
		}
	}
	if bctx.open == 0 {
		delete(n.batchWrites, m.ID)
		bctx.timer.Stop()
	}
}

// replyBatchWrite ships a whole batch's results to the client endpoint
// in one message.
func (n *Node) replyBatchWrite(rt opRoute, res []WriteResult) {
	n.cluster.net.Send(n.id, netsim.ClientID, clientBatchWriteReply{rt: rt, res: res}, msgOverhead)
}

// onReplicaBatchRead serves every item of a batched read in one work
// unit (summed service time) and answers with one message. Under gossip
// it first splits off items for ranges this replica's strictly newer
// ring no longer assigns to it and refuses them in one notOwner.
func (n *Node) onReplicaBatchRead(m replicaBatchRead) {
	if n.gs != nil && n.gs.view.RingSeq() > m.RingSeq {
		var refIdxs []int
		var refKeys []string
		kept := 0
		for j, key := range m.Keys {
			if !containsNode(n.gs.strategy.Replicas(key), n.id) {
				refIdxs = append(refIdxs, m.Idxs[j])
				refKeys = append(refKeys, key)
				continue
			}
			m.Idxs[kept], m.Keys[kept] = m.Idxs[j], key
			kept++
		}
		if len(refIdxs) > 0 {
			n.refuseBatch(m.ID, m.Coord, false, m.RingSeq, refIdxs, refKeys)
		}
		if kept == 0 {
			return
		}
		m.Idxs, m.Keys = m.Idxs[:kept], m.Keys[:kept]
	}
	var cost time.Duration
	for range m.Idxs {
		cost += n.cluster.cfg.ReadService.Sample(n.rng)
	}
	n.submitRead(cost, func() {
		items := make([]batchReadItem, len(m.Idxs))
		size := msgOverhead
		for j, idx := range m.Idxs {
			n.repReads++
			cell, ok := n.engine.Get(m.Keys[j])
			items[j] = batchReadItem{Idx: idx, Cell: cell, Exists: ok}
			size += len(cell.Value)
		}
		n.cluster.net.Send(n.id, m.Coord,
			&replicaBatchReadResp{ID: m.ID, Items: items, From: n.id}, size)
	})
}

// onReplicaBatchWrite applies every cell of a batched mutation in one
// work unit and acknowledges them with one message, refusing items this
// replica's strictly newer ring assigns elsewhere (same split as
// onReplicaBatchRead).
func (n *Node) onReplicaBatchWrite(m replicaBatchWrite) {
	if n.gs != nil && n.gs.view.RingSeq() > m.RingSeq {
		var refIdxs []int
		var refKeys []string
		kept := 0
		for j, key := range m.Keys {
			if !containsNode(n.gs.strategy.Replicas(key), n.id) {
				refIdxs = append(refIdxs, m.Idxs[j])
				refKeys = append(refKeys, key)
				continue
			}
			m.Idxs[kept], m.Keys[kept], m.Cells[kept] = m.Idxs[j], key, m.Cells[j]
			kept++
		}
		if len(refIdxs) > 0 {
			n.refuseBatch(m.ID, m.Coord, true, m.RingSeq, refIdxs, refKeys)
		}
		if kept == 0 {
			return
		}
		m.Idxs, m.Keys, m.Cells = m.Idxs[:kept], m.Keys[:kept], m.Cells[:kept]
	}
	var cost time.Duration
	for range m.Idxs {
		cost += n.cluster.cfg.WriteService.Sample(n.rng)
	}
	n.submitWrite(cost, func() {
		for j := range m.Idxs {
			n.repWrites++
			if n.engine.Apply(m.Keys[j], m.Cells[j]) {
				n.cluster.oracle.Applied(n.id, m.Cells[j].Version, n.cluster.net.Now())
			}
			n.cacheInvalidate(m.Keys[j])
		}
		ack := &replicaBatchWriteAck{ID: m.ID, Idxs: m.Idxs, From: n.id}
		n.cluster.net.Send(n.id, m.Coord, ack, msgOverhead+8*len(m.Idxs))
	})
}
