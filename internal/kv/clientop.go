package kv

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// This file is the client path: every operation a client issues —
// single-key or batch, under the simulator or the live engine — lives in
// a slot of a slab on the Cluster until its reply or its guard ends it.
// Messages carry the slot's index + generation (opRoute) instead of a
// callback, and the guard timer is armed through the transport's
// pre-bound-callback surface, so the steady-state client path allocates
// nothing beyond the pooled message boxes.

const noOp = int32(-1)

// clientOp is one in-flight client operation: the result callback (the
// non-nil one of the four says what kind of operation it is), the guard
// timer, and enough of the request to synthesize a timeout result. gen
// is bumped when the slot is recycled so a reply that lost the race
// against the guard is dropped instead of completing a stranger's op.
type clientOp struct {
	gen      uint32
	lvl      Level
	key      string    // Read, Write, Delete
	keys     []string  // ReadBatch
	bops     []BatchOp // WriteBatch
	rcb      func(ReadResult)
	wcb      func(WriteResult)
	brcb     func([]ReadResult)
	bwcb     func([]WriteResult)
	guard    sim.Timer
	nextFree int32
}

// newOp takes a slot from the free list or grows the slab. The returned
// pointer is good until the next newOp.
func (c *Cluster) newOp(lvl Level) (opRoute, *clientOp) {
	idx := c.opFree
	if idx != noOp {
		c.opFree = c.ops[idx].nextFree
	} else {
		c.ops = append(c.ops, clientOp{})
		idx = int32(len(c.ops) - 1)
	}
	op := &c.ops[idx]
	op.lvl = lvl
	return opRoute{op: uint32(idx), gen: op.gen}, op
}

// armOp starts the client-side no-later-than timer of a sent operation:
// twice the request timeout, so the callback fires even when the chosen
// coordinator silently dies with the request.
func (c *Cluster) armOp(rt opRoute) {
	c.ops[rt.op].guard = c.net.ScheduleStopCall(2*c.cfg.Timeout, c.guardCb, uint64(rt.op))
}

// takeOp ends the operation rt refers to: cancel the guard, recycle the
// slot, hand back its contents. The slot is released before the caller
// runs the callback, which may immediately issue a new op into it.
// ok=false means the guard already timed the op out.
func (c *Cluster) takeOp(rt opRoute) (op clientOp, ok bool) {
	slot := &c.ops[rt.op]
	if slot.gen != rt.gen {
		return op, false
	}
	slot.guard.Stop()
	op = *slot
	*slot = clientOp{gen: op.gen + 1, nextFree: c.opFree}
	c.opFree = int32(rt.op)
	return op, true
}

// guardFired is the pre-bound guard callback: completion always cancels
// the guard first, so firing means the op is still in flight — fail it
// with the client-side timeout.
func (c *Cluster) guardFired(idx uint64, _ any) {
	op, _ := c.takeOp(opRoute{op: uint32(idx), gen: c.ops[idx].gen})
	lat := 2 * c.cfg.Timeout
	switch {
	case op.rcb != nil:
		op.rcb(ReadResult{Err: ErrTimeout, Key: op.key, Level: op.lvl, Latency: lat})
	case op.wcb != nil:
		op.wcb(WriteResult{Err: ErrTimeout, Key: op.key, Level: op.lvl, Latency: lat})
	case op.brcb != nil:
		op.brcb(failedReads(op.keys, op.lvl, ErrTimeout, lat))
	default:
		op.bwcb(failedWrites(op.bops, op.lvl, ErrTimeout, lat))
	}
}

// handleClientReply completes operations when replies reach the client
// endpoint. Pooled reply boxes are returned before the callback runs.
func (c *Cluster) handleClientReply(_ netsim.NodeID, payload any) {
	switch m := payload.(type) {
	case *clientReadReply:
		v := clientReadReplies.take(m)
		if op, ok := c.takeOp(v.rt); ok {
			op.rcb(v.res)
		}
	case *clientWriteReply:
		v := clientWriteReplies.take(m)
		if op, ok := c.takeOp(v.rt); ok {
			op.wcb(v.res)
		}
	case clientBatchReadReply:
		if op, ok := c.takeOp(m.rt); ok {
			op.brcb(m.res)
		}
	case clientBatchWriteReply:
		if op, ok := c.takeOp(m.rt); ok {
			op.bwcb(m.res)
		}
	}
}

// Read issues an asynchronous read at the given consistency level; cb
// runs when the client-side reply arrives, or with ErrTimeout when the
// guard (armOp) fires first.
func (c *Cluster) Read(key string, lvl Level, cb func(ReadResult)) {
	id := c.nextReqID()
	coord := c.pickCoordinator()
	if coord < 0 {
		cb(ReadResult{Err: ErrUnavailable, Key: key, Level: lvl})
		return
	}
	rt, op := c.newOp(lvl)
	op.key, op.rcb = key, cb
	c.net.Send(netsim.ClientID, coord, clientReads.put(clientRead{ID: id, Key: key, Level: lvl, rt: rt}),
		msgOverhead+len(key))
	c.armOp(rt)
}

// Write issues an asynchronous write at the given consistency level; the
// same client-side timeout guarantee as Read applies.
func (c *Cluster) Write(key string, value []byte, lvl Level, cb func(WriteResult)) {
	c.write(key, value, lvl, false, cb)
}

// Delete issues a tombstone write at the given consistency level:
// Cassandra-style deletion, reconciled by last-write-wins like any other
// mutation (so late replicas converge on the deletion too).
func (c *Cluster) Delete(key string, lvl Level, cb func(WriteResult)) {
	c.write(key, nil, lvl, true, cb)
}

func (c *Cluster) write(key string, value []byte, lvl Level, tombstone bool, cb func(WriteResult)) {
	id := c.nextReqID()
	coord := c.pickCoordinator()
	if coord < 0 {
		cb(WriteResult{Err: ErrUnavailable, Key: key, Level: lvl})
		return
	}
	rt, op := c.newOp(lvl)
	op.key, op.wcb = key, cb
	c.net.Send(netsim.ClientID, coord,
		clientWrites.put(clientWrite{ID: id, Key: key, Value: value, Level: lvl, tombstone: tombstone, rt: rt}),
		msgOverhead+len(key)+len(value))
	c.armOp(rt)
}
