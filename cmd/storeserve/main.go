// Command storeserve runs the store as a real server: a Redis-compatible
// TCP front end (internal/server) over a serving deployment
// (repro.NewServing). One process can serve a whole cluster, or N
// processes — each owning a subset of the ring and meshed to its peers
// over framed binary connections — form one cluster that redis-cli can
// talk to through any of them:
//
//	storeserve -listen :6380 -mesh :7380 -local 0 \
//	    -peers '1=localhost:7381,2=localhost:7382' -nodes 3
//
// Every process must be started with the same topology, node count,
// replication factor and seed (they all compute the identical ring).
//
// On hosts without redis-cli the binary doubles as a one-shot client:
//
//	storeserve -cli -addr localhost:6380 SET k v
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/server"
)

func main() {
	listen := flag.String("listen", ":6380", "RESP listen address")
	meshListen := flag.String("mesh", "", "peer-mesh listen address (multi-process clusters)")
	localSpec := flag.String("local", "", "comma-separated node ids this process serves (empty: all)")
	peersSpec := flag.String("peers", "", "remote nodes as 'id=host:port,...' naming each owner's -mesh address")
	topoName := flag.String("topology", "single", "topology: g5k, ec2, single, geo")
	nodes := flag.Int("nodes", 3, "node count")
	rf := flag.Int("rf", 3, "replication factor")
	level := flag.String("level", "QUORUM", "consistency level (ONE, TWO, THREE, QUORUM, ALL, LOCAL_QUORUM, EACH_QUORUM, K(n)) or 'harmony:<alpha>'")
	interval := flag.Duration("interval", 2*time.Second, "adaptive tuner re-decision interval")
	engine := flag.String("engine", "mem", "storage engine: mem or lsm")
	seed := flag.Uint64("seed", 1, "cluster seed (identical across all processes)")
	hotcache := flag.Bool("hotcache", false, "hot-key coordinator read cache")
	cliMode := flag.Bool("cli", false, "act as a one-shot RESP client: storeserve -cli -addr host:port CMD [args...]")
	addr := flag.String("addr", "localhost:6380", "-cli: server address")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file (stopped on shutdown)")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on shutdown")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *cliMode {
		os.Exit(runCLI(*addr, flag.Args()))
	}

	// Serving trades heap headroom for throughput: the request path
	// churns small short-lived objects against a small live heap, so the
	// default GC cadence spends a third of a core marking. Collect 4x
	// less often (overridable with GOGC as usual).
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}

	topo, err := repro.ParseTopology(*topoName, *nodes, *rf)
	if err != nil {
		fatal(err)
	}
	cfg := repro.ServingDefaults(topo)
	cfg.RF = *rf
	cfg.Seed = *seed
	cfg.HotCache = *hotcache
	if cfg.Engine, err = repro.ParseEngine(*engine); err != nil {
		fatal(err)
	}
	spec, err := repro.ParseClientSpec(*level)
	if err != nil {
		fatal(err)
	}

	local, err := parseNodeList(*localSpec)
	if err != nil {
		fatal(err)
	}
	peers, err := parsePeers(*peersSpec)
	if err != nil {
		fatal(err)
	}
	deploy, err := repro.NewServing(topo, cfg, repro.ServeConfig{
		Local:      local,
		MeshListen: *meshListen,
		Peers:      peers,
	})
	if err != nil {
		fatal(err)
	}

	var sess repro.Session
	var ctl *repro.Controller
	read, write := spec.Level, spec.Level
	if spec.Harmony {
		sess, ctl = deploy.AdaptiveSession(repro.NewHarmonyTuner(spec.Alpha, deploy.Cluster.RF()), *interval)
	} else {
		sess = deploy.StaticSession(spec.Level, spec.Level)
	}

	srv := server.New(deploy, sess, read, write)
	if ctl != nil {
		srv.SetController(ctl)
	}
	if err := srv.Listen(*listen); err != nil {
		fatal(err)
	}
	fmt.Printf("storeserve: RESP on %s", srv.Addr())
	if *meshListen != "" {
		fmt.Printf(", mesh on %s", deploy.Engine.MeshAddr())
	}
	if len(local) > 0 {
		fmt.Printf(", serving nodes %s", *localSpec)
	}
	fmt.Printf(" (%d-node %s, RF %d, level %s)\n", topo.N(), *topoName, *rf, *level)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	srv.Close()
	if err := deploy.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "storeserve: closing the store:", err)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err == nil {
			pprof.Lookup("allocs").WriteTo(f, 0)
			f.Close()
		}
	}
}

func parseNodeList(s string) ([]repro.NodeID, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	ids := make([]repro.NodeID, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad node id %q", p)
		}
		ids = append(ids, repro.NodeID(n))
	}
	return ids, nil
}

func parsePeers(s string) (map[repro.NodeID]string, error) {
	if s == "" {
		return nil, nil
	}
	peers := make(map[repro.NodeID]string)
	for _, p := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(p), "=")
		if !ok {
			return nil, fmt.Errorf("bad peer %q (want id=host:port)", p)
		}
		n, err := strconv.Atoi(id)
		if err != nil {
			return nil, fmt.Errorf("bad peer node id %q", id)
		}
		peers[repro.NodeID(n)] = addr
	}
	return peers, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
