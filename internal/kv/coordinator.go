package kv

import (
	"sort"
	"sync"
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
	responses []replicaReadResp // one per distinct responder, arrival order
	ackTotal  int
	ackDC     map[string]int // per-DC tallies; nil unless req.perDC is set

	best      replicaReadResp // freshest version seen (data or digest)
	bestData  replicaReadResp // freshest response carrying the value
	haveBest  bool
	haveData  bool
	completed bool // the consistency level was satisfied
	delivered bool // the client received a reply
	awaitData bool
	retries   int // wrong-owner re-plans consumed (gossip mode)
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
		ctx.responses[last] = replicaReadResp{}
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
	replicas  int
	shipped   int // mutations sent to live replicas (hinted ones never ack)
	ackCount  int
	ackDC     map[string]int // per-DC tallies; nil unless req.perDC is set
	completed bool

	// Gossip-mode retry state: the cell being written, the replicas (or
	// hint targets) already shipped to, and the re-plans consumed.
	cell    storage.Cell
	sent    []netsim.NodeID
	retries int
}

// Context pools: one read and one write context per operation was the
// largest remaining steady-state allocation of the coordinator path.
// Contexts are returned once they can no longer be referenced — when they
// leave the coordinator's tracking maps at the last response, the last
// ack or the timeout.
var (
	readCtxPool  = sync.Pool{New: func() any { return new(readCtx) }}
	writeCtxPool = sync.Pool{New: func() any { return new(writeCtx) }}
)

func getReadCtx() *readCtx { return readCtxPool.Get().(*readCtx) }

func putReadCtx(ctx *readCtx) {
	for i := range ctx.responses {
		ctx.responses[i] = replicaReadResp{}
	}
	*ctx = readCtx{targets: ctx.targets[:0], responses: ctx.responses[:0]}
	readCtxPool.Put(ctx)
}

func getWriteCtx() *writeCtx { return writeCtxPool.Get().(*writeCtx) }

func putWriteCtx(ctx *writeCtx) {
	*ctx = writeCtx{sent: ctx.sent[:0]}
	writeCtxPool.Put(ctx)
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
	n.coordWork(coordExec{kind: execRead, cr: m})
}

// admitRead plans and fans out a read whose admission work is done.
func (n *Node) admitRead(m clientRead) {
	now := n.cluster.net.Now()
	n.coordOps++
	n.cluster.hooks.readStarted(now, m.Key)
	if t := n.cluster.hot; t != nil {
		t.observeRead(m.Key, now)
	}

	replicas := n.routeReplicas(m.Key)
	req := m.Level.resolve(replicas, n.cluster.topo, n.cluster.topo.DCOf(n.id))
	ctx := getReadCtx()
	targets, ok := n.pickTargets(replicas, req, ctx.targets)
	ctx.targets = targets
	if !ok {
		putReadCtx(ctx)
		n.replyRead(m.rt, ReadResult{
			Err: ErrUnavailable, Key: m.Key, Level: m.Level,
			Latency: 0,
		})
		n.cluster.oracle.ReadFailed()
		return
	}

	ctx.id, ctx.key, ctx.level, ctx.req = m.ID, m.Key, m.Level, req
	ctx.start = now
	ctx.rt = m.rt
	ctx.visibleAtStart, ctx.issuedAtStart = n.cluster.oracle.Latest(m.Key)
	if req.perDC != nil {
		ctx.ackDC = make(map[string]int, len(req.perDC))
	}
	n.reads[m.ID] = ctx

	for i, t := range targets {
		digest := n.cluster.cfg.DigestReads && i > 0
		rr := replicaReads.put(replicaRead{ID: m.ID, Key: m.Key, Digest: digest, Coord: n.id, RingSeq: n.ringSeq()})
		n.cluster.net.Send(n.id, t, rr, msgOverhead+len(m.Key))
	}
	ctx.timer = n.armTimeout(m.ID, false)
}

// onReadResp folds one replica response into the read context.
func (n *Node) onReadResp(m replicaReadResp) {
	ctx, ok := n.reads[m.ID]
	if !ok {
		return
	}
	if ctx.findResp(m.From) >= 0 {
		return
	}
	ctx.responses = append(ctx.responses, m)
	ctx.ackTotal++
	if ctx.ackDC != nil {
		ctx.ackDC[n.cluster.topo.DCOf(m.From)]++
	}

	if m.Exists {
		if !ctx.haveBest || m.Cell.Version.After(ctx.best.Cell.Version) {
			ctx.best = m
			ctx.haveBest = true
		}
		if !m.Digest && (!ctx.haveData || m.Cell.Version.After(ctx.bestData.Cell.Version)) {
			ctx.bestData = m
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

	if len(ctx.responses) >= len(ctx.targets) && !ctx.awaitData && ctx.delivered {
		delete(n.reads, ctx.id)
		ctx.timer.Stop()
		n.finalizeRead(ctx)
		putReadCtx(ctx)
	}
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
			rr := replicaReads.put(replicaRead{ID: ctx.id, Key: ctx.key, Digest: false, Coord: n.id, RingSeq: n.ringSeq()})
			ctx.dropResp(ctx.best.From) // allow the refetch response in
			ctx.ackTotal--
			if ctx.ackDC != nil {
				ctx.ackDC[n.cluster.topo.DCOf(ctx.best.From)]--
			}
			n.cluster.net.Send(n.id, ctx.best.From, rr, msgOverhead+len(ctx.key))
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
	n.cluster.hooks.readCompleted(now, res)
	n.readDone(ctx, res)
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
	msg := replicaWrites.put(replicaWrite{Key: key, Cell: cell, Coord: n.id, Repair: true})
	n.cluster.net.Send(n.id, to, msg, msgOverhead+len(key)+len(cell.Value))
}

// coordWrite admits a client write on this coordinator.
func (n *Node) coordWrite(m clientWrite) {
	n.coordWork(coordExec{kind: execWrite, cw: m})
}

// admitWrite versions and fans out a write whose admission work is done.
func (n *Node) admitWrite(m clientWrite) {
	now := n.cluster.net.Now()
	n.coordOps++

	replicas := n.routeReplicas(m.Key)
	req := m.Level.resolve(replicas, n.cluster.topo, n.cluster.topo.DCOf(n.id))
	if !n.routeReachable(replicas, req) {
		n.replyWrite(m.rt, WriteResult{Err: ErrUnavailable, Key: m.Key, Level: m.Level})
		return
	}

	version := storage.Version{Timestamp: now, Seq: n.cluster.nextSeq()}
	cell := storage.Cell{Version: version, Value: m.Value, Tombstone: m.tombstone}
	n.cluster.oracle.WriteStarted(m.Key, version, len(replicas), now)
	n.cluster.hooks.writeStarted(now, m.Key, version, len(replicas))
	if t := n.cluster.hot; t != nil {
		t.observeWrite(m.Key, now)
	}
	n.cacheInvalidate(m.Key)

	ctx := getWriteCtx()
	ctx.id, ctx.key, ctx.level, ctx.req = m.ID, m.Key, m.Level, req
	ctx.start = now
	ctx.rt = m.rt
	ctx.version = version
	ctx.replicas = len(replicas)
	if req.perDC != nil {
		ctx.ackDC = make(map[string]int, len(req.perDC))
	}
	n.writes[m.ID] = ctx

	// The coordinator always sends the mutation to every replica;
	// the level only controls how many acknowledgements it blocks
	// for. Down replicas get a hint instead.
	if n.gs != nil {
		// Retry state for wrong-owner re-plans: the cell to re-ship
		// and the replicas already handled (sent or hinted).
		ctx.cell = cell
		ctx.sent = append(ctx.sent[:0], replicas...)
	}
	for _, r := range replicas {
		if n.routeDown(r) {
			n.storeHint(r, m.Key, cell)
			continue
		}
		w := replicaWrites.put(replicaWrite{ID: m.ID, Key: m.Key, Cell: cell, Coord: n.id, RingSeq: n.ringSeq()})
		n.cluster.net.Send(n.id, r, w, msgOverhead+len(m.Key)+len(m.Value))
		ctx.shipped++
	}
	ctx.timer = n.armTimeout(m.ID, true)
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
		putWriteCtx(ctx)
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
	if n.cluster.remote != nil && n.cluster.remote[from] {
		// A replica another process serves applies out of this oracle's
		// sight; its acknowledgement is the only sign here that it did.
		n.cluster.oracle.Applied(from, ctx.version, now)
	}

	if !ctx.completed && ctx.req.satisfiedCounts(ctx.ackCount, ctx.ackDC) {
		ctx.completed = true
		n.cluster.oracle.WriteVisible(ctx.key, ctx.version)
		res := WriteResult{
			Key: ctx.key, Version: ctx.version, Level: ctx.level,
			Latency: now - ctx.start, Acked: ctx.ackCount,
		}
		n.cluster.hooks.writeCompleted(now, res)
		n.writeDone(ctx, res)
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
// its pool here.
func (n *Node) timeoutFired(arg uint64, _ any) {
	if n.crashed {
		return // a dead process handles nothing
	}
	id, write := reqID(arg>>1), arg&1 != 0
	if write {
		if bctx, ok := n.batchWrites[id]; ok {
			delete(n.batchWrites, id)
			for _, ctx := range bctx.items {
				if ctx != nil {
					n.expireWrite(ctx)
					putWriteCtx(ctx)
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
		putWriteCtx(ctx)
		return
	}
	if bctx, ok := n.batchReads[id]; ok {
		delete(n.batchReads, id)
		for _, ctx := range bctx.items {
			if ctx != nil {
				n.expireRead(ctx)
				putReadCtx(ctx)
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
	putReadCtx(ctx)
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
	n.cluster.hooks.writeCompleted(n.cluster.net.Now(), res)
	n.writeDone(ctx, res)
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
		n.cluster.hooks.readCompleted(n.cluster.net.Now(), res)
		n.readDone(ctx, res)
	}
	ctx.awaitData = false
	n.finalizeRead(ctx)
}

// readDone routes a context's client-visible result: into its batch's
// collector, or back to the client.
func (n *Node) readDone(ctx *readCtx, res ReadResult) {
	if ctx.batch != nil {
		n.batchReadDone(ctx.batch, ctx.item, res)
		return
	}
	n.replyRead(ctx.rt, res)
}

func (n *Node) writeDone(ctx *writeCtx, res WriteResult) {
	if ctx.batch != nil {
		n.batchWriteDone(ctx.batch, ctx.item, res)
		return
	}
	n.replyWrite(ctx.rt, res)
}

// replyRead ships the result back to the client endpoint over the
// network, so client-visible latency includes the return hop.
func (n *Node) replyRead(rt opRoute, res ReadResult) {
	n.cluster.net.Send(n.id, netsim.ClientID, clientReadReplies.put(clientReadReply{rt: rt, res: res}),
		msgOverhead+len(res.Value))
}

func (n *Node) replyWrite(rt opRoute, res WriteResult) {
	n.cluster.net.Send(n.id, netsim.ClientID, clientWriteReplies.put(clientWriteReply{rt: rt, res: res}), msgOverhead)
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
