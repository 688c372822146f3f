package kv

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/ring"
)

// White-box probes for the black-box tests of package kv_test.

// CoordContexts reports how many coordinator contexts the node tracks:
// the requests it has admitted and not yet retired.
func (n *Node) CoordContexts() int {
	return len(n.reads) + len(n.writes) + len(n.batchReads) + len(n.batchWrites)
}

// OccupyWriteStage runs d of filler work on the node's mutation stage.
func (n *Node) OccupyWriteStage(d time.Duration) { n.submitWrite(d, func() {}) }

// HintCount reports the hints the node buffers for down replicas.
func (n *Node) HintCount() int { return n.hintCount }

// RouteStrategy reports the placement the node routes on: its gossip
// view's under Config.Gossip, the cluster's otherwise.
func (n *Node) RouteStrategy() ring.Strategy {
	if n.gs != nil {
		return n.gs.strategy
	}
	return n.cluster.strategy
}

// ResetGossipView rewinds node id's membership view to ring-event
// prefix seq, as if the node had been partitioned from all gossip since
// that flip, to manufacture stale coordinators deterministically
// (Config.Gossip only).
func (c *Cluster) ResetGossipView(id netsim.NodeID, seq uint64) {
	if !c.cfg.Gossip {
		panic("kv: ResetGossipView without Config.Gossip")
	}
	if seq > uint64(len(c.ringEvents)) {
		panic(fmt.Sprintf("kv: ResetGossipView(%d, %d) beyond the event log (%d)", id, seq, len(c.ringEvents)))
	}
	n := c.nodes[id]
	if n == nil || n.gs == nil {
		panic(fmt.Sprintf("kv: ResetGossipView(%d) on a node without gossip state", id))
	}
	// rewind (not a fresh state) keeps the dissemination meters — a
	// bench that rewinds views every iteration still accumulates its
	// retry counts.
	n.gs.rewind(n, seq)
}
