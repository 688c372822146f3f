package kv

import "time"

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
