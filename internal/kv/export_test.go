package kv

import (
	"time"

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
