// Package netsim models the cluster substrate the replicated store runs
// on: nodes grouped into datacenters and regions, link latency laws per
// link class, a message transport with partitions, loss and failures, and
// a traffic meter that feeds the cost model.
package netsim

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/stats"
)

// NodeID identifies a node within a topology; ids are dense from 0.
type NodeID int

// ClientID is the pseudo-node id used as the source of client traffic
// entering the cluster from outside.
const ClientID NodeID = -1

// NodeInfo describes one machine.
type NodeInfo struct {
	ID     NodeID
	Name   string
	DC     string // datacenter / availability zone
	Region string // geographic region or site group
}

// LinkClass classifies a (from, to) pair by locality; latency and price
// depend on the class.
type LinkClass int

// Link classes from most to least local.
const (
	Loopback    LinkClass = iota // same node
	IntraDC                      // same datacenter
	InterDC                      // different DC, same region (inter-AZ)
	InterRegion                  // different region (WAN)
)

// String returns the class name.
func (c LinkClass) String() string {
	switch c {
	case Loopback:
		return "loopback"
	case IntraDC:
		return "intra-dc"
	case InterDC:
		return "inter-dc"
	case InterRegion:
		return "inter-region"
	}
	return fmt.Sprintf("LinkClass(%d)", int(c))
}

// Law is a sampleable latency distribution.
type Law interface {
	Sample(src *stats.Source) time.Duration
	Mean() time.Duration
}

// Constant is a degenerate Law that always returns the same duration.
type Constant time.Duration

// Sample implements Law.
func (c Constant) Sample(*stats.Source) time.Duration { return time.Duration(c) }

// Mean implements Law.
func (c Constant) Mean() time.Duration { return time.Duration(c) }

// LatencyModel gives one latency law per link class.
type LatencyModel struct {
	Loopback    Law
	IntraDC     Law
	InterDC     Law
	InterRegion Law
}

// Law returns the law for a class.
func (m LatencyModel) Law(c LinkClass) Law {
	switch c {
	case Loopback:
		return m.Loopback
	case IntraDC:
		return m.IntraDC
	case InterDC:
		return m.InterDC
	default:
		return m.InterRegion
	}
}

// DefaultLatencies is a cloud-flavoured model: sub-millisecond LAN,
// single-digit-millisecond inter-AZ, tens-of-milliseconds WAN, with
// lognormal tails.
func DefaultLatencies() LatencyModel {
	return LatencyModel{
		Loopback:    Constant(50 * time.Microsecond),
		IntraDC:     stats.NewLogNormal(500*time.Microsecond, 0.30),
		InterDC:     stats.NewLogNormal(2*time.Millisecond, 0.35),
		InterRegion: stats.NewLogNormal(40*time.Millisecond, 0.25),
	}
}

// Topology is a static description of the cluster machines and the
// latency model between them.
type Topology struct {
	nodes   []NodeInfo
	locs    []nodeLoc // per node, what Class compares
	byDC    map[string][]NodeID
	dcOrder []string // DC names in first-seen order
	regions []string // region names in first-seen order
	Latency LatencyModel
}

// nodeLoc is a node's DC and region as indexes into dcOrder and regions.
type nodeLoc struct{ dc, region int32 }

// NewTopology returns an empty topology with the default latency model.
func NewTopology() *Topology {
	return &Topology{
		byDC:    make(map[string][]NodeID),
		Latency: DefaultLatencies(),
	}
}

// AddNode appends a node in the given datacenter and region and returns
// its id.
func (t *Topology) AddNode(name, dc, region string) NodeID {
	id := NodeID(len(t.nodes))
	t.nodes = append(t.nodes, NodeInfo{ID: id, Name: name, DC: dc, Region: region})
	if _, seen := t.byDC[dc]; !seen {
		t.dcOrder = append(t.dcOrder, dc)
	}
	t.byDC[dc] = append(t.byDC[dc], id)
	if !slices.Contains(t.regions, region) {
		t.regions = append(t.regions, region)
	}
	t.locs = append(t.locs, nodeLoc{
		dc:     int32(slices.Index(t.dcOrder, dc)),
		region: int32(slices.Index(t.regions, region)),
	})
	return id
}

// AddDC adds n nodes named prefix-0..n-1 in one datacenter.
func (t *Topology) AddDC(dc, region string, n int) []NodeID {
	ids := make([]NodeID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, t.AddNode(fmt.Sprintf("%s-%d", dc, i), dc, region))
	}
	return ids
}

// N reports the number of nodes.
func (t *Topology) N() int { return len(t.nodes) }

// Node returns the description of id.
func (t *Topology) Node(id NodeID) NodeInfo { return t.nodes[id] }

// Nodes returns all node ids in id order.
func (t *Topology) Nodes() []NodeID {
	ids := make([]NodeID, len(t.nodes))
	for i := range t.nodes {
		ids[i] = NodeID(i)
	}
	return ids
}

// DCs returns the datacenter names in first-seen order. (This used to
// iterate a region-keyed map, so the order was deterministic only for
// single-region topologies; repolint's determinism analyzer caught it.)
func (t *Topology) DCs() []string {
	out := make([]string, len(t.dcOrder))
	copy(out, t.dcOrder)
	return out
}

// NodesInDC returns the ids in a datacenter.
func (t *Topology) NodesInDC(dc string) []NodeID { return t.byDC[dc] }

// DCOf returns the datacenter of a node; clients live outside any DC.
func (t *Topology) DCOf(id NodeID) string {
	if id == ClientID {
		return ""
	}
	return t.nodes[id].DC
}

// Class classifies the link between two endpoints. Client traffic is
// classified relative to the destination's locality as IntraDC: the
// paper's clients (YCSB machines) ran inside the platform next to the
// storage nodes.
func (t *Topology) Class(from, to NodeID) LinkClass {
	if from == to {
		return Loopback
	}
	if from == ClientID || to == ClientID {
		return IntraDC
	}
	a, b := t.locs[from], t.locs[to]
	switch {
	case a.dc == b.dc:
		return IntraDC
	case a.region == b.region:
		return InterDC
	default:
		return InterRegion
	}
}

// MeanLatency reports the mean one-way latency between two endpoints
// under the topology's model; tuners may use it as prior knowledge of the
// deployment, exactly as an operator would configure static distances.
func (t *Topology) MeanLatency(from, to NodeID) time.Duration {
	return t.Latency.Law(t.Class(from, to)).Mean()
}
