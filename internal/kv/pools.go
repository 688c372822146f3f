package kv

import "sync"

// Message pools for the high-volume per-replica fan-out types. Every
// Network.Send boxes its payload into an interface; for the messages that
// travel once per replica per operation (reads, writes, their acks) and
// the per-work-unit self-messages, that boxing dominated simulator
// allocations. Senders take a box from the pool, receivers copy the value
// out in Handle and return the box before dispatching — so the box never
// outlives one delivery and the steady-state message path allocates
// nothing. sync.Pool keeps this safe for the live engine too, where
// handlers run on timer goroutines.
var (
	clientReadPool      = sync.Pool{New: func() any { return new(clientRead) }}
	clientWritePool     = sync.Pool{New: func() any { return new(clientWrite) }}
	clientReadReplyPool = sync.Pool{New: func() any { return new(clientReadReply) }}
	clientWriteRplPool  = sync.Pool{New: func() any { return new(clientWriteReply) }}
	replicaReadPool     = sync.Pool{New: func() any { return new(replicaRead) }}
	replicaReadRespPool = sync.Pool{New: func() any { return new(replicaReadResp) }}
	replicaWritePool    = sync.Pool{New: func() any { return new(replicaWrite) }}
	replicaWriteAckPool = sync.Pool{New: func() any { return new(replicaWriteAck) }}
	workDonePool        = sync.Pool{New: func() any { return new(workDone) }}
	coordExecPool       = sync.Pool{New: func() any { return new(coordExec) }}
	coordTimeoutPool    = sync.Pool{New: func() any { return new(coordTimeout) }}
	streamRequestPool   = sync.Pool{New: func() any { return new(streamRequest) }}
	streamChunkPool     = sync.Pool{New: func() any { return new(streamChunk) }}
	streamDonePool      = sync.Pool{New: func() any { return new(streamDone) }}
	streamAckPool       = sync.Pool{New: func() any { return new(streamAck) }}
)

func newClientRead(m clientRead) *clientRead {
	p := clientReadPool.Get().(*clientRead)
	*p = m
	return p
}

func newClientWrite(m clientWrite) *clientWrite {
	p := clientWritePool.Get().(*clientWrite)
	*p = m
	return p
}

func newClientReadReply(m clientReadReply) *clientReadReply {
	p := clientReadReplyPool.Get().(*clientReadReply)
	*p = m
	return p
}

func newClientWriteReply(m clientWriteReply) *clientWriteReply {
	p := clientWriteRplPool.Get().(*clientWriteReply)
	*p = m
	return p
}

func newReplicaRead(m replicaRead) *replicaRead {
	p := replicaReadPool.Get().(*replicaRead)
	*p = m
	return p
}

func newReplicaReadResp(m replicaReadResp) *replicaReadResp {
	p := replicaReadRespPool.Get().(*replicaReadResp)
	*p = m
	return p
}

func newReplicaWrite(m replicaWrite) *replicaWrite {
	p := replicaWritePool.Get().(*replicaWrite)
	*p = m
	return p
}

func newReplicaWriteAck(m replicaWriteAck) *replicaWriteAck {
	p := replicaWriteAckPool.Get().(*replicaWriteAck)
	*p = m
	return p
}

func newWorkDone(st *stage, w work, epoch uint32) *workDone {
	p := workDonePool.Get().(*workDone)
	p.st, p.w, p.epoch = st, w, epoch
	return p
}

func newCoordExec(kind execKind) *coordExec {
	p := coordExecPool.Get().(*coordExec)
	p.kind = kind
	return p
}

func newCoordTimeout(id reqID, write bool) *coordTimeout {
	p := coordTimeoutPool.Get().(*coordTimeout)
	p.ID, p.Write = id, write
	return p
}

func newStreamRequest(m streamRequest) *streamRequest {
	p := streamRequestPool.Get().(*streamRequest)
	*p = m
	return p
}

func newStreamChunk(m streamChunk) *streamChunk {
	p := streamChunkPool.Get().(*streamChunk)
	*p = m
	return p
}

func newStreamDone(m streamDone) *streamDone {
	p := streamDonePool.Get().(*streamDone)
	*p = m
	return p
}

func newStreamAck(m streamAck) *streamAck {
	p := streamAckPool.Get().(*streamAck)
	*p = m
	return p
}
