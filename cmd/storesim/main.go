// Command storesim runs ad-hoc workloads against the simulated store
// through the unified Client API: pick a topology, replication factor,
// consistency level (or an adaptive tuner), a workload mix and an
// optional multi-key batch size, and get throughput, latency, staleness,
// resource usage and the priced bill. It is one steady run; scenarios —
// membership changes, failures, autoscaling, an application's day — are
// studies of cmd/paperbench, each replayed on the experiments rig under
// a pinned table.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/experiments"
)

func main() {
	topoName := flag.String("topology", "g5k", "topology: g5k, ec2, single, geo")
	nodes := flag.Int("nodes", 12, "node count")
	rf := flag.Int("rf", 3, "replication factor")
	level := flag.String("level", "ONE", "consistency level (ONE, TWO, THREE, QUORUM, ALL, LOCAL_QUORUM, EACH_QUORUM, K(n)) or 'harmony:<alpha>'")
	readProp := flag.Float64("reads", 0.5, "read proportion of the mix")
	records := flag.Uint64("records", 10000, "records loaded")
	ops := flag.Uint64("ops", 100000, "operations to run")
	threads := flag.Int("threads", 128, "closed-loop client threads")
	batch := flag.Int("batch", 1, "multi-key batch size (>1 drives BatchGet/BatchPut)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	theta := flag.Float64("theta", 0.99, "zipfian skew")
	zipf := flag.Bool("zipf", true, "scrambled-zipfian key popularity (false: uniform; skew set by -theta)")
	hotcache := flag.Bool("hotcache", false, "hot-key fast path: deterministic hot-set tracker + freshness-bounded coordinator read cache")
	engine := flag.String("engine", "mem", "storage engine: mem (volatile map) or lsm (WAL + sorted runs)")
	gossipOn := flag.Bool("gossip", false, "disseminate membership through SWIM gossip: per-node views, suspicion, wrong-owner fallback (instead of atomic placement)")
	flag.Parse()

	topo, err := repro.ParseTopology(*topoName, *nodes, *rf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := repro.Defaults(topo)
	cfg.RF = *rf
	cfg.Seed = *seed
	cfg.Gossip = *gossipOn
	cfg.HotCache = *hotcache
	if cfg.Engine, err = repro.ParseEngine(*engine); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	spec, err := repro.ParseClientSpec(*level)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sim := repro.NewSim(topo, cfg)

	var cli repro.Client
	var ctl *repro.Controller
	if spec.Harmony {
		cli, ctl = sim.HarmonyClient(spec.Alpha)
	} else {
		cli = sim.StaticClient(spec.Level, spec.Level)
	}

	dist := repro.DistZipfian
	if !*zipf {
		dist = repro.DistUniform
	}
	w := repro.MixWorkload(*records, *readProp, dist, *theta)
	start := time.Now()
	m, err := cli.Run(w, repro.RunOptions{Ops: *ops, Threads: *threads, BatchSize: *batch})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	popularity := fmt.Sprintf("zipf θ=%.2f", *theta)
	if !*zipf {
		popularity = "uniform"
	}
	fmt.Printf("workload: %d ops (%.0f%% reads, %s) on %d nodes RF %d, level %s, batch %d\n",
		m.Ops, 100**readProp, popularity, len(sim.Members()), *rf, *level, *batch)
	fmt.Printf("virtual duration %v (wall %v, %d events)\n",
		m.Elapsed().Round(time.Millisecond), time.Since(start).Round(time.Millisecond), sim.Engine.Events())
	fmt.Printf("throughput  %.0f ops/s\n", m.Throughput())
	fmt.Printf("stale reads %.2f%% (oracle ground truth, whole run)\n", 100*sim.StaleRate())
	fmt.Printf("read  lat   %s\n", m.ReadLat.String())
	fmt.Printf("write lat   %s\n", m.WriteLat.String())
	fmt.Printf("errors      timeouts=%d unavailable=%d\n", m.Timeouts, m.Unavailable)

	u := sim.Cluster.Usage()
	fmt.Printf("usage       replicaReads=%d replicaWrites=%d coordOps=%d repairs=%d droppedMutations=%d\n",
		u.ReplicaReads, u.ReplicaWrites, u.CoordOps, u.ReadRepairs, u.DroppedMuts)
	if *hotcache {
		served := u.CacheHits + u.CacheMisses
		hitShare := 0.0
		if served > 0 {
			hitShare = float64(u.CacheHits) / float64(served)
		}
		fmt.Printf("hotcache    hits=%d (%.1f%% of servable) staleServed=%d fills=%d invalidations=%d expired=%d ringEvicted=%d hotKeys=%d promotions=%d\n",
			u.CacheHits, 100*hitShare, u.CacheStaleServed, u.CacheFills,
			u.CacheInvalidations, u.CacheExpired, u.CacheRingEvicted,
			u.HotKeysNow, u.HotPromotions)
	}
	if *gossipOn {
		fmt.Printf("gossip      rounds=%d suspicions=%d deadDeclared=%d ringEvents=%d refusals=%d wrongOwnerRetries=%d agreement=%.2f\n",
			u.GossipRounds, u.GossipSuspicions, u.GossipDeadDeclared, u.GossipEvents,
			u.NotOwnerReplies, u.WrongOwnerRetries, sim.ViewAgreement())
	}
	meter := sim.Transport.Meter()
	interDC, interRegion := meter.BilledBytes()
	bill := experiments.Pricing().Smooth().BillFor(repro.Usage{
		Nodes:            len(sim.Members()),
		Duration:         m.Elapsed(),
		StoredBytes:      float64(u.StoredBytes),
		InterDCBytes:     float64(interDC),
		InterRegionBytes: float64(interRegion),
	})
	fmt.Printf("bill        %s ($%.4f per M ops)\n", bill, bill.Total()/float64(m.Ops)*1e6)
	if ctl != nil {
		fmt.Printf("adaptive    %d decisions, %d level changes\n", len(ctl.Journal()), ctl.LevelChanges())
	}
}
