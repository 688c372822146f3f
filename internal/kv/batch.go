package kv

import (
	"time"

	"repro/internal/netsim"
)

// Batched multi-key coordination. A batch pays one coordinator admission
// and sends at most one request message per replica. Every item is a
// readCtx/writeCtx, and everything per item is the single-key path's own
// code: openRead/openWrite admit it, askReplicas/shipWrite address it
// (into the batch's per-replica grouping, reqFor, instead of one message
// per replica each), foldRead and foldWriteAck fold the answers, and
// the wrong-owner retry re-plans it through replanRead/shipWrite. What is
// the batch's own is the collector: one admission, one timeout, one
// reply.

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

// admitBatchRead plans and fans out a batch whose admission work is done:
// one admission for the whole batch, then at most one request message
// per replica.
func (n *Node) admitBatchRead(m clientBatchRead) {
	now := n.cluster.net.Now()
	n.coordOps++

	bctx := &batchReadCtx{
		id: m.ID, rt: m.rt,
		items:   make([]*readCtx, len(m.Keys)),
		results: make([]ReadResult, len(m.Keys)),
		pending: len(m.Keys),
	}
	reqs := make([]replicaReq, 0, 8)
	for i, key := range m.Keys {
		ctx := n.cluster.getReadCtx()
		ctx.id, ctx.key, ctx.level, ctx.batch, ctx.item = m.ID, key, m.Level, bctx, i
		if !n.openRead(ctx, now) {
			continue
		}
		bctx.items[i] = ctx
		reqs = n.askReplicas(ctx, ctx.targets, false, reqs)
	}
	if bctx.pending == 0 {
		return // every item failed at admission; reply already sent
	}
	n.batchReads[m.ID] = bctx
	n.sendReqs(reqs)
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
// it answers for. Batched responses always carry data, so completion
// never waits on a digest refetch.
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
		resp := replicaReadResp{ID: m.ID, Key: ctx.key, Cell: it.Cell, Exists: it.Exists, From: m.From}
		if n.foldRead(ctx, resp) && ctx.finished() {
			bctx.items[it.Idx] = nil
			n.finalizeRead(ctx)
			n.cluster.putReadCtx(ctx)
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

// admitBatchWrite versions and fans out a batch whose admission work is
// done: one admission, then each replica gets one message carrying every
// cell it owns.
func (n *Node) admitBatchWrite(m clientBatchWrite) {
	now := n.cluster.net.Now()
	n.coordOps++

	bctx := &batchWriteCtx{
		id: m.ID, rt: m.rt,
		items:   make([]*writeCtx, len(m.Ops)),
		results: make([]WriteResult, len(m.Ops)),
		pending: len(m.Ops),
	}
	reqs := make([]replicaReq, 0, 8)
	for i, op := range m.Ops {
		ctx := n.cluster.getWriteCtx()
		ctx.id, ctx.key, ctx.level, ctx.batch, ctx.item = m.ID, op.Key, m.Level, bctx, i
		replicas, ok := n.openWrite(ctx, op.Value, op.Delete, now)
		if !ok {
			continue
		}
		bctx.items[i] = ctx
		bctx.open++
		reqs = n.shipWrite(ctx, replicas, reqs)
	}
	if bctx.open == 0 {
		return // every item failed at admission; reply already sent
	}
	// The batch context outlives the client reply: late replica acks are
	// the monitor's propagation signal, exactly as for single writes. It
	// retires with its last item (onBatchWriteAck) or at the timeout.
	n.batchWrites[m.ID] = bctx
	n.sendReqs(reqs)
	bctx.timer = n.armTimeout(m.ID, true)
}

// replicaReq is one replica's share of a batch: the one request message
// that carries every item the replica serves.
type replicaReq struct {
	to    netsim.NodeID
	read  *replicaBatchRead
	write *replicaBatchWrite
}

// reqFor returns reqs with the request to replica to, created on first
// use: a batch's replica requests in first-use order, one per replica. A
// replica-sized scan needs no map, and a slice returned rather than
// stored stays on the stack of the admission or retry that builds it.
func (n *Node) reqFor(reqs []replicaReq, to netsim.NodeID, id reqID, write bool) ([]replicaReq, *replicaReq) {
	for i := range reqs {
		if reqs[i].to == to {
			return reqs, &reqs[i]
		}
	}
	r := replicaReq{to: to}
	if write {
		r.write = &replicaBatchWrite{ID: id, Coord: n.id, RingSeq: n.ringSeq()}
	} else {
		r.read = &replicaBatchRead{ID: id, Coord: n.id, RingSeq: n.ringSeq()}
	}
	reqs = append(reqs, r)
	return reqs, &reqs[len(reqs)-1]
}

// sendReqs sends a batch's grouped replica requests in first-use order.
func (n *Node) sendReqs(reqs []replicaReq) {
	for _, r := range reqs {
		size := msgOverhead
		if w := r.write; w != nil {
			for j := range w.Keys {
				size += len(w.Keys[j]) + len(w.Cells[j].Value)
			}
			n.cluster.net.Send(n.id, r.to, w, size)
			continue
		}
		for _, k := range r.read.Keys {
			size += len(k)
		}
		n.cluster.net.Send(n.id, r.to, r.read, size)
	}
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
			n.cluster.putWriteCtx(ctx)
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
// unit (summed service time) and answers with one message, after
// refuseForeign split off the items this replica no longer owns.
func (n *Node) onReplicaBatchRead(m replicaBatchRead) {
	kept := n.refuseForeign(m.ID, m.Coord, false, m.RingSeq, m.Idxs, m.Keys, nil)
	if kept == 0 {
		return
	}
	m.Idxs, m.Keys = m.Idxs[:kept], m.Keys[:kept]
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
// work unit and acknowledges them with one message, after the same
// split as onReplicaBatchRead.
func (n *Node) onReplicaBatchWrite(m replicaBatchWrite) {
	kept := n.refuseForeign(m.ID, m.Coord, true, m.RingSeq, m.Idxs, m.Keys, m.Cells)
	if kept == 0 {
		return
	}
	m.Idxs, m.Keys, m.Cells = m.Idxs[:kept], m.Keys[:kept], m.Cells[:kept]
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
