package kv

import (
	"sort"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/storage"
)

// readCtx tracks one coordinated read until every contacted replica
// responded (or the timeout fired), so that read repair can compare all
// versions even after the client reply went out. Contexts are pooled and
// keep their slice capacity across lives; ack tallies are a plain counter
// with a per-DC map only for multi-DC requirements.
type readCtx struct {
	id             reqID
	key            string
	level          Level
	req            requirement
	start          time.Duration
	rt             opRoute       // the issuing client op (single reads)
	batch          *batchReadCtx // the collector this item reports to (batched reads)
	item           int           // position in batch
	timer          sim.Timer     // the request timeout (single reads; a batch holds its own)
	visibleAtStart storage.Version
	issuedAtStart  storage.Version

	targets   []netsim.NodeID
	responses []readAnswer // one per distinct responder, arrival order
	ackTotal  int
	ackDC     map[string]int // per-DC tallies; nil unless req.perDC is set

	best      readAnswer // freshest version seen (data or digest)
	bestData  readAnswer // freshest answer carrying the value
	haveBest  bool
	haveData  bool
	completed bool // the consistency level was satisfied
	delivered bool // the client received a reply
	awaitData bool
	retries   int // wrong-owner re-plans consumed (gossip mode)
}

// readAnswer is what a read context keeps of one replica's answer, single
// read or batch item alike: who answered, with which cell (only its
// version for a digest), and whether the replica holds the key at all.
type readAnswer struct {
	From   netsim.NodeID
	Cell   storage.Cell
	Exists bool
	Digest bool
}

// findResp returns the index of from's response, or -1.
func (ctx *readCtx) findResp(from netsim.NodeID) int {
	for i := range ctx.responses {
		if ctx.responses[i].From == from {
			return i
		}
	}
	return -1
}

// dropResp removes from's response (the digest-refetch path re-admits the
// replica's second answer).
func (ctx *readCtx) dropResp(from netsim.NodeID) {
	if i := ctx.findResp(from); i >= 0 {
		last := len(ctx.responses) - 1
		ctx.responses[i] = ctx.responses[last]
		ctx.responses[last] = readAnswer{}
		ctx.responses = ctx.responses[:last]
	}
}

// dropTarget removes a target that will never respond — it refused the
// request as notOwner — so the all-responses finalization still fires.
func (ctx *readCtx) dropTarget(from netsim.NodeID) {
	for i, t := range ctx.targets {
		if t == from {
			ctx.targets = append(ctx.targets[:i], ctx.targets[i+1:]...)
			return
		}
	}
}

// writeCtx tracks one coordinated write. It outlives the client reply so
// that post-completion replica acks are still observed (they are the
// monitor's propagation-time signal) and retires at the last one: once
// the client has been answered and every mutation actually shipped has
// been acknowledged, nothing can reach the context any more. A mutation
// that is shed, lost or refused as notOwner never acks, so its context
// stays until the timeout fires.
type writeCtx struct {
	id        reqID
	key       string
	level     Level
	req       requirement
	start     time.Duration
	rt        opRoute        // the issuing client op (single writes)
	batch     *batchWriteCtx // the collector this item reports to (batched writes)
	item      int            // position in batch
	timer     sim.Timer      // the request timeout (single writes; a batch holds its own)
	version   storage.Version
	ledger    int // the key's oracle ledger id
	shipped   int // mutations sent to live replicas (hinted ones never ack)
	ackCount  int
	ackDC     map[string]int // per-DC tallies; nil unless req.perDC is set
	completed bool

	// What shipWrite works from, at admission and at every wrong-owner
	// retry alike: the cell being written and the replicas it was already
	// sent or hinted to. retries counts the re-plans consumed.
	cell    storage.Cell
	sent    []netsim.NodeID
	retries int
}

// Context free lists (boxes, messages.go): one read and one write context
// per operation was the largest remaining steady-state allocation of the
// coordinator path. Contexts are returned once they can no longer be
// referenced — when they leave the coordinator's tracking maps at the
// last response, the last ack or the timeout — reset but keeping their
// slices' capacity.

func (b *boxes) getReadCtx() *readCtx {
	n := len(b.readCtxs) - 1
	if n < 0 {
		return new(readCtx)
	}
	ctx := b.readCtxs[n]
	b.readCtxs = b.readCtxs[:n]
	return ctx
}

func (b *boxes) putReadCtx(ctx *readCtx) {
	for i := range ctx.responses {
		ctx.responses[i] = readAnswer{}
	}
	*ctx = readCtx{targets: ctx.targets[:0], responses: ctx.responses[:0]}
	b.readCtxs = append(b.readCtxs, ctx)
}

func (b *boxes) getWriteCtx() *writeCtx {
	n := len(b.writeCtxs) - 1
	if n < 0 {
		return new(writeCtx)
	}
	ctx := b.writeCtxs[n]
	b.writeCtxs = b.writeCtxs[:n]
	return ctx
}

func (b *boxes) putWriteCtx(ctx *writeCtx) {
	*ctx = writeCtx{sent: ctx.sent[:0]}
	b.writeCtxs = append(b.writeCtxs, ctx)
}

// batchReadCtx tracks one coordinated multi-key read: per-item readCtx
// sub-contexts sharing a single admission, request fan-out and timeout.
type batchReadCtx struct {
	id        reqID
	rt        opRoute
	timer     sim.Timer
	items     []*readCtx // nil for items that failed at admission
	results   []ReadResult
	pending   int // items whose client-visible result is still outstanding
	delivered bool
}

// batchWriteCtx is the write counterpart of batchReadCtx. Like writeCtx
// it outlives the client reply so late replica acks still feed the
// monitor's propagation signal; an item retires at its last ack and the
// batch with its last item.
type batchWriteCtx struct {
	id        reqID
	rt        opRoute
	timer     sim.Timer
	items     []*writeCtx // nil for items that failed at admission or retired
	results   []WriteResult
	pending   int
	open      int // items not yet retired
	delivered bool
}

// coordRead admits a client read on this coordinator. A cache hit
// (hotcache.go) completes here without the admission draw or any
// replica messages — the hot-key fast path.
func (n *Node) coordRead(m clientRead) {
	if n.cacheServe(m) {
		return
	}
	n.coordWork(&coordExec{kind: execRead, cr: m})
}

// admitRead plans and fans out a read whose admission work is done.
func (n *Node) admitRead(m clientRead) {
	now := n.cluster.net.Now()
	n.coordOps++
	ctx := n.cluster.getReadCtx()
	ctx.id, ctx.key, ctx.level, ctx.rt = m.ID, m.Key, m.Level, m.rt
	if !n.openRead(ctx, now) {
		return
	}
	n.reads[m.ID] = ctx
	n.askReplicas(ctx, ctx.targets, n.cluster.cfg.DigestReads, nil)
	ctx.timer = n.armTimeout(m.ID, false)
}

// openRead admits one read, single or a batch item: hooks, hot-set
// observation, placement, the level's requirement, the target pick and
// the oracle's snapshot of the key. ctx arrives with its identity and
// route set. An item whose level is unreachable is answered
// ErrUnavailable — without readCompleted, only the oracle's failure
// count — and its context released; openRead then reports false.
func (n *Node) openRead(ctx *readCtx, now time.Duration) bool {
	n.cluster.hooks.readStarted(now, ctx.key)
	if t := n.cluster.hot; t != nil {
		t.observeRead(ctx.key, now)
	}
	replicas := n.routeReplicas(ctx.key)
	ctx.req = ctx.level.resolve(replicas, n.cluster.topo, n.cluster.topo.DCOf(n.id))
	targets, ok := n.pickTargets(replicas, ctx.req, ctx.targets)
	ctx.targets = targets
	if !ok {
		n.readDone(ctx, &ReadResult{Err: ErrUnavailable, Key: ctx.key, Level: ctx.level})
		n.cluster.oracle.ReadFailed()
		n.cluster.putReadCtx(ctx)
		return false
	}
	ctx.start = now
	ctx.visibleAtStart, ctx.issuedAtStart = n.cluster.oracle.Latest(ctx.key)
	if ctx.req.perDC != nil {
		ctx.ackDC = make(map[string]int, len(ctx.req.perDC))
	}
	return true
}

// askReplicas sends ctx's read to each replica in to: a single read as
// one replicaRead per replica (a digest past the first when digest is
// set), a batch item into reqs, its batch's per-replica grouping.
func (n *Node) askReplicas(ctx *readCtx, to []netsim.NodeID, digest bool, reqs []replicaReq) []replicaReq {
	for i, t := range to {
		if ctx.batch != nil {
			var r *replicaReq
			reqs, r = n.reqFor(reqs, t, ctx.id, false)
			r.read.Idxs = append(r.read.Idxs, ctx.item)
			r.read.Keys = append(r.read.Keys, ctx.key)
			continue
		}
		rr := n.cluster.replicaReads.put()
		rr.ID, rr.Key, rr.Digest, rr.Coord, rr.RingSeq = ctx.id, ctx.key, digest && i > 0, n.id, n.ringSeq()
		n.cluster.net.Send(n.id, t, rr)
	}
	return reqs
}

// replanRead re-picks ctx's targets on this node's advanced ring (a
// wrong-owner retry) and contacts the ones the plan lacked, with full
// data reads: the retry path never digest-fetches.
func (n *Node) replanRead(ctx *readCtx, reqs []replicaReq) []replicaReq {
	desired, ok := n.pickTargets(n.routeReplicas(ctx.key), ctx.req, nil)
	if !ok {
		return reqs // still unreachable under the new ring; the timeout speaks
	}
	planned := len(ctx.targets)
	for _, t := range desired {
		if !containsNode(ctx.targets, t) {
			ctx.targets = append(ctx.targets, t)
		}
	}
	return n.askReplicas(ctx, ctx.targets[planned:], false, reqs)
}

// onReadResp folds one replica response, copied out of its box, into the
// read context.
func (n *Node) onReadResp(m *replicaReadResp) {
	ctx, ok := n.reads[m.ID]
	if !ok {
		return
	}
	a := readAnswer{From: m.From, Cell: m.Cell, Exists: m.Exists, Digest: m.Digest}
	if !n.foldRead(ctx, &a) {
		return
	}
	if ctx.finished() {
		delete(n.reads, ctx.id)
		ctx.timer.Stop()
		n.finalizeRead(ctx)
		n.cluster.putReadCtx(ctx)
	}
}

// foldRead folds one replica's answer into ctx — single read or batch
// item — and completes the client-visible read once the level is
// satisfied. It reports false for a replica that already answered.
func (n *Node) foldRead(ctx *readCtx, m *readAnswer) bool {
	if ctx.findResp(m.From) >= 0 {
		return false
	}
	ctx.responses = append(ctx.responses, *m)
	ctx.ackTotal++
	if ctx.ackDC != nil {
		ctx.ackDC[n.cluster.topo.DCOf(m.From)]++
	}

	if m.Exists {
		if !ctx.haveBest || m.Cell.Version.After(ctx.best.Cell.Version) {
			ctx.best = *m
			ctx.haveBest = true
		}
		if !m.Digest && (!ctx.haveData || m.Cell.Version.After(ctx.bestData.Cell.Version)) {
			ctx.bestData = *m
			ctx.haveData = true
		}
	}

	if !ctx.completed && ctx.req.satisfiedCounts(ctx.ackTotal, ctx.ackDC) {
		n.tryCompleteRead(ctx)
	} else if ctx.completed && ctx.awaitData && ctx.haveData &&
		!ctx.best.Cell.Version.After(ctx.bestData.Cell.Version) {
		// The data fetch for a newer digest arrived.
		ctx.awaitData = false
		n.deliverRead(ctx)
	}
	return true
}

// finished reports that ctx can retire: every target answered, no data
// refetch is outstanding and the client has its result.
func (ctx *readCtx) finished() bool {
	return len(ctx.responses) >= len(ctx.targets) && !ctx.awaitData && ctx.delivered
}

// tryCompleteRead completes the client-visible read once the level is
// satisfied, fetching full data when only a digest of the freshest
// version is at hand (the digest-mismatch path).
func (n *Node) tryCompleteRead(ctx *readCtx) {
	ctx.completed = true
	if ctx.haveBest && (!ctx.haveData || ctx.best.Cell.Version.After(ctx.bestData.Cell.Version)) {
		if ctx.best.Digest {
			// Freshest version known only by digest: fetch its data.
			ctx.awaitData = true
			rr := n.cluster.replicaReads.put()
			rr.ID, rr.Key, rr.Coord, rr.RingSeq = ctx.id, ctx.key, n.id, n.ringSeq()
			ctx.dropResp(ctx.best.From) // allow the refetch response in
			ctx.ackTotal--
			if ctx.ackDC != nil {
				ctx.ackDC[n.cluster.topo.DCOf(ctx.best.From)]--
			}
			n.cluster.net.Send(n.id, ctx.best.From, rr)
			return
		}
		ctx.bestData = ctx.best
		ctx.haveData = true
	}
	n.deliverRead(ctx)
}

// deliverRead sends the final result to the client.
func (n *Node) deliverRead(ctx *readCtx) {
	if ctx.delivered {
		return
	}
	ctx.delivered = true
	now := n.cluster.net.Now()
	res := ReadResult{
		Key:      ctx.key,
		Level:    ctx.level,
		Latency:  now - ctx.start,
		Replicas: len(ctx.targets),
	}
	if ctx.haveData && !ctx.bestData.Cell.Tombstone {
		res.Exists = true
		res.Value = ctx.bestData.Cell.Value
		res.Version = ctx.bestData.Cell.Version
	}
	// Judge staleness by the freshest version observed, tombstones
	// included: a read that sees the latest deletion is fresh even
	// though it reports no value.
	judged := res.Version
	if ctx.haveData {
		judged = ctx.bestData.Cell.Version
	}
	res.Stale = n.cluster.oracle.Judge(ctx.visibleAtStart, ctx.issuedAtStart, judged)
	if ctx.haveData {
		n.cacheFill(ctx.key, ctx.bestData.Cell)
	}
	n.cluster.hooks.readCompleted(now, &res)
	n.readDone(ctx, &res)
}

// finalizeRead performs read repair; callers discard the context.
func (n *Node) finalizeRead(ctx *readCtx) {
	if !n.cluster.cfg.ReadRepair || !ctx.haveData {
		return
	}
	best := ctx.bestData.Cell
	// Repair contacted replicas that answered with an older version, in
	// node order (insertion sort in place; the context is being retired).
	rs := ctx.responses
	for i := 1; i < len(rs); i++ {
		r := rs[i]
		j := i - 1
		for j >= 0 && rs[j].From > r.From {
			rs[j+1] = rs[j]
			j--
		}
		rs[j+1] = r
	}
	for i := range rs {
		r := &rs[i]
		if r.From == ctx.bestData.From {
			continue
		}
		if !r.Exists || best.Version.After(r.Cell.Version) {
			n.sendRepair(r.From, ctx.key, best)
		}
	}
	// With the configured probability, extend repair to the replicas
	// that were not contacted (Cassandra's global read_repair_chance).
	if p := n.cluster.cfg.GlobalRepairChance; p > 0 && n.rng.Float64() < p {
		for _, rep := range n.routeReplicas(ctx.key) {
			contacted := false
			for _, t := range ctx.targets {
				if t == rep {
					contacted = true
					break
				}
			}
			if !contacted && !n.routeDown(rep) {
				n.sendRepair(rep, ctx.key, best)
			}
		}
	}
}

func (n *Node) sendRepair(to netsim.NodeID, key string, cell storage.Cell) {
	msg := n.cluster.replicaWrites.put()
	msg.Key, msg.Cell, msg.Coord, msg.Repair = key, cell, n.id, true
	n.cluster.net.Send(n.id, to, msg)
}

// admitWrite versions and fans out a write whose admission work is done.
func (n *Node) admitWrite(m clientWrite) {
	now := n.cluster.net.Now()
	n.coordOps++
	ctx := n.cluster.getWriteCtx()
	ctx.id, ctx.key, ctx.level, ctx.rt = m.ID, m.Key, m.Level, m.rt
	replicas, ok := n.openWrite(ctx, m.Value, m.tombstone, now)
	if !ok {
		return
	}
	n.writes[m.ID] = ctx
	n.shipWrite(ctx, replicas, nil)
	ctx.timer = n.armTimeout(m.ID, true)
}

// openWrite admits one write, single or a batch item: placement, the
// level's requirement and its reachability, versioning, the oracle's
// ledger, hooks, hot-set observation and cache invalidation. ctx arrives
// with its identity and route set. It returns the key's replicas, or
// answers an unreachable item ErrUnavailable, releases its context and
// reports false.
func (n *Node) openWrite(ctx *writeCtx, value []byte, tombstone bool, now time.Duration) ([]netsim.NodeID, bool) {
	replicas := n.routeReplicas(ctx.key)
	ctx.req = ctx.level.resolve(replicas, n.cluster.topo, n.cluster.topo.DCOf(n.id))
	if !n.routeReachable(replicas, ctx.req) {
		n.writeDone(ctx, &WriteResult{Err: ErrUnavailable, Key: ctx.key, Level: ctx.level})
		n.cluster.putWriteCtx(ctx)
		return nil, false
	}

	version := storage.Version{Timestamp: now, Seq: n.cluster.nextSeq()}
	ctx.ledger = n.cluster.oracle.WriteStarted(ctx.key, version, len(replicas), now)
	n.cluster.hooks.writeStarted(now, ctx.key, version, len(replicas))
	if t := n.cluster.hot; t != nil {
		t.observeWrite(ctx.key, now)
	}
	n.cacheInvalidate(ctx.key)

	ctx.start = now
	ctx.version = version
	ctx.cell = storage.Cell{Version: version, Value: value, Tombstone: tombstone}
	if ctx.req.perDC != nil {
		ctx.ackDC = make(map[string]int, len(ctx.req.perDC))
	}
	return replicas, true
}

// shipWrite sends ctx's cell to every replica in replicas not yet in
// ctx.sent and hints the ones that are down: the coordinator always
// sends the mutation to every replica, and the level only controls how
// many acknowledgements it blocks for. Admission ships to the key's
// replicas, a wrong-owner retry to the owners the advanced ring added.
// A single write sends one replicaWrite per replica, a batch item's
// mutations join reqs, its batch's per-replica grouping.
func (n *Node) shipWrite(ctx *writeCtx, replicas []netsim.NodeID, reqs []replicaReq) []replicaReq {
	for _, r := range replicas {
		if containsNode(ctx.sent, r) {
			continue
		}
		ctx.sent = append(ctx.sent, r)
		if n.routeDown(r) {
			n.storeHint(r, ctx.key, ctx.cell)
			continue
		}
		ctx.shipped++
		if ctx.batch != nil {
			var q *replicaReq
			reqs, q = n.reqFor(reqs, r, ctx.id, true)
			q.write.Idxs = append(q.write.Idxs, ctx.item)
			q.write.Keys = append(q.write.Keys, ctx.key)
			q.write.Cells = append(q.write.Cells, ctx.cell)
			continue
		}
		w := n.cluster.replicaWrites.put()
		w.ID, w.Key, w.Cell, w.Coord, w.RingSeq = ctx.id, ctx.key, ctx.cell, n.id, n.ringSeq()
		n.cluster.net.Send(n.id, r, w)
	}
	return reqs
}

// onWriteAck folds one replica acknowledgement into the write context.
func (n *Node) onWriteAck(m replicaWriteAck) {
	ctx, ok := n.writes[m.ID]
	if !ok {
		return
	}
	n.foldWriteAck(ctx, m.From)
	if ctx.settled() {
		delete(n.writes, m.ID)
		ctx.timer.Stop()
		n.cluster.putWriteCtx(ctx)
	}
}

// settled reports that nothing can reach the context any more: the
// client has its answer and every shipped mutation was acknowledged.
func (ctx *writeCtx) settled() bool {
	return ctx.completed && ctx.ackCount == ctx.shipped
}

// foldWriteAck counts one replica acknowledgement toward ctx and
// completes the client-visible write once the level is satisfied.
func (n *Node) foldWriteAck(ctx *writeCtx, from netsim.NodeID) {
	now := n.cluster.net.Now()
	ctx.ackCount++
	if ctx.ackDC != nil {
		ctx.ackDC[n.cluster.topo.DCOf(from)]++
	}
	n.cluster.hooks.writeAck(now, ctx.key, ctx.ackCount, now-ctx.start)
	if n.cluster.net.Remote(from) {
		// A replica another process serves applies out of this oracle's
		// sight; its acknowledgement is the only sign here that it did.
		n.cluster.oracle.appliedAt(ctx.ledger, from, ctx.version, now)
	}

	if !ctx.completed && ctx.req.satisfiedCounts(ctx.ackCount, ctx.ackDC) {
		ctx.completed = true
		n.cluster.oracle.WriteVisible(ctx.ledger, ctx.version)
		res := WriteResult{
			Key: ctx.key, Version: ctx.version, Level: ctx.level,
			Latency: now - ctx.start, Acked: ctx.ackCount,
		}
		n.cluster.hooks.writeCompleted(now, &res)
		n.writeDone(ctx, &res)
	}
}

// armTimeout starts the request timeout of a coordinated request: one
// cancelable timer whose argument packs the request and its direction.
// Whoever retires the context first stops it.
func (n *Node) armTimeout(id reqID, write bool) sim.Timer {
	arg := uint64(id) << 1
	if write {
		arg |= 1
	}
	return n.cluster.net.ScheduleStopCall(n.cluster.cfg.Timeout, n.timeoutCb, arg)
}

// timeoutFired is the pre-bound timeout callback, for both reads and
// writes, single and batched: contexts still incomplete fail with
// ErrTimeout, completed ones are finalized. A context still in its map
// when the timer fires has no other reference left, so it returns to
// its free list here.
func (n *Node) timeoutFired(arg uint64, _ any) {
	if n.fault == faultCrashed {
		return // a dead process handles nothing
	}
	id, write := reqID(arg>>1), arg&1 != 0
	if write {
		if bctx, ok := n.batchWrites[id]; ok {
			delete(n.batchWrites, id)
			for _, ctx := range bctx.items {
				if ctx != nil {
					n.expireWrite(ctx)
					n.cluster.putWriteCtx(ctx)
				}
			}
			return
		}
		ctx, ok := n.writes[id]
		if !ok {
			return
		}
		delete(n.writes, id)
		n.expireWrite(ctx)
		n.cluster.putWriteCtx(ctx)
		return
	}
	if bctx, ok := n.batchReads[id]; ok {
		delete(n.batchReads, id)
		for _, ctx := range bctx.items {
			if ctx != nil {
				n.expireRead(ctx)
				n.cluster.putReadCtx(ctx)
			}
		}
		return
	}
	ctx, ok := n.reads[id]
	if !ok {
		return
	}
	delete(n.reads, id)
	n.expireRead(ctx)
	n.cluster.putReadCtx(ctx)
}

// expireWrite fails a still-incomplete write context with ErrTimeout.
func (n *Node) expireWrite(ctx *writeCtx) {
	if ctx.completed {
		return
	}
	ctx.completed = true
	res := WriteResult{
		Err: ErrTimeout, Key: ctx.key, Level: ctx.level,
		Latency: n.cluster.cfg.Timeout, Acked: ctx.ackCount,
	}
	n.cluster.hooks.writeCompleted(n.cluster.net.Now(), &res)
	n.writeDone(ctx, &res)
}

// expireRead fails a still-undelivered read context with ErrTimeout and
// runs read repair on whatever responses did arrive.
func (n *Node) expireRead(ctx *readCtx) {
	if !ctx.delivered {
		ctx.completed = true
		ctx.delivered = true
		res := ReadResult{
			Err: ErrTimeout, Key: ctx.key, Level: ctx.level,
			Latency: n.cluster.cfg.Timeout, Replicas: len(ctx.targets),
		}
		n.cluster.oracle.ReadFailed()
		n.cluster.hooks.readCompleted(n.cluster.net.Now(), &res)
		n.readDone(ctx, &res)
	}
	ctx.awaitData = false
	n.finalizeRead(ctx)
}

// readDone routes a context's client-visible result: into its batch's
// collector, or back to the client.
func (n *Node) readDone(ctx *readCtx, res *ReadResult) {
	if ctx.batch != nil {
		n.batchReadDone(ctx.batch, ctx.item, res)
		return
	}
	n.replyRead(ctx.rt, res)
}

func (n *Node) writeDone(ctx *writeCtx, res *WriteResult) {
	if ctx.batch != nil {
		n.batchWriteDone(ctx.batch, ctx.item, res)
		return
	}
	n.replyWrite(ctx.rt, res)
}

// replyRead ships the result back to the client endpoint over the
// network, so client-visible latency includes the return hop.
func (n *Node) replyRead(rt opRoute, res *ReadResult) {
	m := n.cluster.clientReadReplies.put()
	m.rt, m.res = rt, *res
	n.cluster.net.Send(n.id, netsim.ClientID, m)
}

func (n *Node) replyWrite(rt opRoute, res *WriteResult) {
	m := n.cluster.clientWriteReplies.put()
	m.rt, m.res = rt, *res
	n.cluster.net.Send(n.id, netsim.ClientID, m)
}

// pickTargets selects which replicas a read contacts: enough to satisfy
// req, chosen among live replicas by the configured target policy, with
// warming replicas (freshly joined or restarted, still converging)
// deprioritized — they are only contacted when the level cannot be
// satisfied from converged replicas alone. The live set is built in buf
// (the context's recycled targets array); it reports ok=false when the
// level is unreachable.
func (n *Node) pickTargets(replicas []netsim.NodeID, req requirement, buf []netsim.NodeID) ([]netsim.NodeID, bool) {
	alive := buf[:0]
	for _, r := range replicas {
		if !n.routeDown(r) {
			alive = append(alive, r)
		}
	}
	n.orderByPolicy(alive)
	if warming := n.cluster.warming; len(warming) > 0 {
		// Stable-partition converged replicas ahead of warming ones,
		// preserving the policy order inside each group: the prefix
		// truncation below then excludes warming replicas from the read
		// quorum whenever enough converged replicas are live.
		k := 0
		for i := 0; i < len(alive); i++ {
			if !warming[alive[i]] {
				x := alive[i]
				copy(alive[k+1:i+1], alive[k:i])
				alive[k] = x
				k++
			}
		}
	}

	if req.perDC == nil {
		if len(alive) < req.total {
			return alive, false
		}
		if gs := n.gs; gs != nil && len(n.cluster.warming) > 0 {
			// Invariant meter: the stable partition above must keep
			// warming replicas out of the quorum whenever enough
			// converged ones are live. A violation here means a stale
			// coordinator read from an un-warmed replica it had a
			// converged alternative for.
			warming := n.cluster.warming
			converged := 0
			for _, r := range alive {
				if !warming[r] {
					converged++
				}
			}
			if converged >= req.total {
				for _, r := range alive[:req.total] {
					if warming[r] {
						gs.warmViolations++
					}
				}
			}
		}
		return alive[:req.total], true
	}

	byDC := make(map[string][]netsim.NodeID)
	for _, r := range alive {
		dc := n.cluster.topo.DCOf(r)
		byDC[dc] = append(byDC[dc], r)
	}
	dcs := make([]string, 0, len(req.perDC))
	for dc := range req.perDC {
		dcs = append(dcs, dc)
	}
	sort.Strings(dcs)
	targets := make([]netsim.NodeID, 0, req.needed())
	for _, dc := range dcs {
		need := req.perDC[dc]
		if len(byDC[dc]) < need {
			return alive, false
		}
		targets = append(targets, byDC[dc][:need]...)
	}
	return targets, true
}

// orderByPolicy orders candidate replicas either by proximity to this
// coordinator (deterministic) or uniformly at random (spreads read load,
// and matches the uniform-choice assumption of the Harmony estimator).
// The candidate sets are replica-sized, so insertion sorts beat the
// allocation and indirection of sort.Slice.
func (n *Node) orderByPolicy(nodes []netsim.NodeID) {
	switch n.cluster.cfg.ReadTargets {
	case TargetClosest:
		topo := n.cluster.topo
		for i := 1; i < len(nodes); i++ {
			x := nodes[i]
			cx := topo.Class(n.id, x)
			j := i - 1
			for j >= 0 {
				cj := topo.Class(n.id, nodes[j])
				if cj < cx || (cj == cx && nodes[j] < x) {
					break
				}
				nodes[j+1] = nodes[j]
				j--
			}
			nodes[j+1] = x
		}
	default: // TargetRandom
		for i := 1; i < len(nodes); i++ {
			x := nodes[i]
			j := i - 1
			for j >= 0 && nodes[j] > x {
				nodes[j+1] = nodes[j]
				j--
			}
			nodes[j+1] = x
		}
		n.rng.Shuffle(len(nodes), func(i, j int) {
			nodes[i], nodes[j] = nodes[j], nodes[i]
		})
	}
}
