package experiments

import (
	"time"

	"repro/internal/cost"
	"repro/internal/kv"
	"repro/internal/netsim"
	"repro/internal/stats"
)

// Platform bundles a paper evaluation platform: topology, node
// performance profile, client pressure and workload sizing. Scale factors
// shrink operation and record counts so benches finish quickly while the
// topology, mixes and pressure stay paper-shaped; scale 1 is the paper's.
type Platform struct {
	Name  string
	Build func() *netsim.Topology

	Nodes       int
	RF          int
	PerDC       map[string]int
	Threads     int
	Records     uint64
	Ops         uint64
	ValueBytes  int
	DatasetGB   float64 // paper-scale logical dataset, for billing
	CrossDCFrac float64
	// Tolerances are the stale-read rates the paper has Harmony tolerate
	// on this platform (§IV-A); set on the Harmony presets only.
	Tolerances []float64

	ReadService   netsim.Law
	WriteService  netsim.Law
	CoordOverhead netsim.Law
	Concurrency   int
}

// Config assembles the store configuration of the platform.
func (p Platform) Config(seed uint64) kv.Config {
	cfg := kv.DefaultConfig()
	cfg.RF = p.RF
	cfg.PerDC = p.PerDC
	cfg.ReadService = p.ReadService
	cfg.WriteService = p.WriteService
	cfg.CoordOverhead = p.CoordOverhead
	cfg.Concurrency = p.Concurrency
	cfg.Seed = seed
	return cfg
}

// Scaled returns a copy with operation and record counts multiplied by
// scale (topology and pressure untouched).
func (p Platform) Scaled(scale float64) Platform {
	if scale <= 0 || scale >= 1 {
		return p
	}
	q := p
	q.Ops = uint64(float64(p.Ops) * scale)
	q.Records = uint64(float64(p.Records) * scale)
	// Keep enough operations per client thread that the closed loop and
	// the control loop both run long enough to be meaningful.
	if minOps := uint64(p.Threads) * 60; q.Ops < minOps {
		q.Ops = minOps
	}
	if q.Ops < 2000 {
		q.Ops = 2000
	}
	if q.Records < 500 {
		q.Records = 500
	}
	return q
}

// EC2 node profile: 2013-era virtualized m1.large-class machines — two
// work slots, EBS-backed storage, heavy-tailed service times from
// multi-tenant jitter. Client pressure keeps these nodes near saturation,
// which is what made propagation slow (and staleness high) in the paper's
// EC2 runs despite the small inter-AZ latency.
func ec2Profile(p *Platform) {
	p.ReadService = stats.NewLogNormal(8*time.Millisecond, 0.9)
	p.WriteService = stats.NewLogNormal(6*time.Millisecond, 0.9)
	p.CoordOverhead = stats.NewLogNormal(300*time.Microsecond, 0.4)
	p.Concurrency = 2
}

// Grid'5000 node profile: 2013-era bare-metal nodes — eight work slots,
// spinning disks behind a page cache, thin-tailed service times.
func g5kProfile(p *Platform) {
	p.ReadService = stats.NewLogNormal(5*time.Millisecond, 0.5)
	p.WriteService = stats.NewLogNormal(4*time.Millisecond, 0.6)
	p.CoordOverhead = stats.NewLogNormal(150*time.Microsecond, 0.3)
	p.Concurrency = 8
}

// EC2Harmony is §IV-A's EC2 deployment: Cassandra on 20 VMs across two
// availability zones, 23.85 GB dataset, 5 million operations of the heavy
// read-update workload.
func EC2Harmony() Platform {
	p := Platform{
		Name:        "ec2-20vm",
		Build:       func() *netsim.Topology { return netsim.EC2TwoAZ(20) },
		Nodes:       20,
		RF:          3,
		Threads:     220,
		Records:     5_000_000,
		Ops:         5_000_000,
		ValueBytes:  1024,
		DatasetGB:   23.85,
		CrossDCFrac: 0.5,
		Tolerances:  []float64{0.40, 0.60},
	}
	ec2Profile(&p)
	return p
}

// G5KHarmony is §IV-A's Grid'5000 deployment: 84 nodes over two clusters,
// 14.3 GB dataset, 3 million operations.
func G5KHarmony() Platform {
	p := Platform{
		Name:        "g5k-84node",
		Build:       func() *netsim.Topology { return netsim.G5KTwoSites(84) },
		Nodes:       84,
		RF:          3,
		Threads:     1600,
		Records:     3_000_000,
		Ops:         3_000_000,
		ValueBytes:  1024,
		DatasetGB:   14.3,
		CrossDCFrac: 0.5,
		Tolerances:  []float64{0.20, 0.40},
	}
	g5kProfile(&p)
	return p
}

// EC2Cost is §IV-B's EC2 deployment: 18 VMs over two availability zones
// of us-east-1, replication factor 5, 23.84 GB, 10 million operations.
func EC2Cost() Platform {
	p := Platform{
		Name:        "ec2-18vm-rf5",
		Build:       func() *netsim.Topology { return netsim.EC2TwoAZ(18) },
		Nodes:       18,
		RF:          5,
		Threads:     200,
		Records:     5_000_000,
		Ops:         10_000_000,
		ValueBytes:  1024,
		DatasetGB:   23.84,
		CrossDCFrac: 0.5,
	}
	ec2Profile(&p)
	return p
}

// G5KCost is §IV-B's Grid'5000 deployment: 50 nodes over two sites (east
// and south of France), replication factor 5, 10 million operations.
func G5KCost() Platform {
	p := Platform{
		Name:        "g5k-50node-rf5",
		Build:       func() *netsim.Topology { return netsim.G5KTwoSites(50) },
		Nodes:       50,
		RF:          5,
		Threads:     1000,
		Records:     5_000_000,
		Ops:         10_000_000,
		ValueBytes:  1024,
		DatasetGB:   23.84,
		CrossDCFrac: 0.5,
	}
	g5kProfile(&p)
	return p
}

// smallG5K is a phase study's test-scale deployment: a two-site
// Grid'5000-profile cluster big enough for the study's mechanism (crashes
// and WAL replay, joins, a failure storm, a hot set) to matter and small
// enough to run whole in a test. It is sized as it stands, never scaled.
func smallG5K(study string, nodes, threads int, ops uint64) Platform {
	p := Platform{
		Name:       "g5k-" + study + "-test",
		Build:      func() *netsim.Topology { return netsim.G5KTwoSites(nodes) },
		Nodes:      nodes,
		RF:         3,
		Threads:    threads,
		Records:    2_000,
		Ops:        ops,
		ValueBytes: 256,
	}
	g5kProfile(&p)
	return p
}

// Pricing returns the catalog experiments bill against.
func Pricing() cost.Pricing { return cost.EC2East2013() }
