package kv

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/gossip"
	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/storage"
)

// Transport is what the store needs from its runtime: a clock, message
// delivery between nodes, timer self-messages, deferred function
// scheduling and one cancelable timer, ScheduleStopCall, which takes the
// queue's own callback form (sim.Callback, bound once) and an integer
// argument and so allocates nothing — the client guards. It is the
// store's only seam to the outside world, and it has two
// implementations over the same sim.Engine event queue, in which a
// message on its way is itself the queue entry:
// netsim.Transport runs the queue in virtual time (the zero-cost default
// every simulation uses); the live engine steps it against the wall
// clock under a mutex, and in its mesh form additionally carries
// messages between OS processes over TCP using the cluster's
// MarshalMessage/UnmarshalMessage wire hooks (wiremsg.go). Cluster code
// cannot tell them apart.
//
// The clock contract is the simulator's under both: Now() advances
// between deliveries, never inside a handler and never backwards, so
// every timestamp one handler takes is the same instant.
type Transport interface {
	Now() time.Duration
	Send(from, to netsim.NodeID, payload any, size int)
	SendLocal(id netsim.NodeID, payload any, delay time.Duration)
	Register(id netsim.NodeID, h netsim.Handler)
	Schedule(d time.Duration, fn func())
	ScheduleStopCall(d time.Duration, cb sim.Callback, arg uint64) sim.Timer
}

// failer is the optional failure-injection surface of a Transport.
type failer interface {
	Fail(id netsim.NodeID)
	Recover(id netsim.NodeID)
}

// hoster is the optional surface of a Transport that spans OS processes:
// Remote reports that another process serves the node, so its actor here
// is an idle twin that never receives a message.
type hoster interface {
	Remote(id netsim.NodeID) bool
}

// carrier is the optional surface of a Transport that handles payloads
// outside the cluster's handlers: it encodes and decodes mesh frames and
// returns undelivered messages, and so needs the cluster whose boxes
// they travel in (MarshalMessage, UnmarshalMessage, ReleaseMessage).
type carrier interface {
	Carry(c *Cluster)
}

// TargetPolicy selects which replicas serve a read.
type TargetPolicy int

// Read target policies.
const (
	// TargetClosest prefers the replicas nearest the coordinator —
	// Cassandra's snitch behaviour and the default. Because write
	// coordinators are themselves spread over the cluster, the replicas
	// a read contacts remain approximately uniform with respect to a
	// write's propagation order, which is what the Harmony estimator
	// assumes.
	TargetClosest TargetPolicy = iota
	// TargetRandom contacts a uniform random subset of live replicas
	// (load-spreading ablation).
	TargetRandom
)

// Config parameterizes a Cluster. DefaultConfig supplies working values
// for every knob.
type Config struct {
	// Placement.
	RF     int            // replication factor for SimpleStrategy
	PerDC  map[string]int // when set, NetworkTopologyStrategy with these per-DC counts
	VNodes int            // virtual nodes per node on the ring

	// Node performance profile (homogeneous cluster, as in the paper).
	ReadService   netsim.Law // replica-side service time of one read
	WriteService  netsim.Law // replica-side service time of one write
	CoordOverhead netsim.Law // coordinator admission work per operation
	Concurrency   int        // parallel work slots per node (thread pool)
	FlushLimit    int64      // memtable flush threshold in bytes

	// Storage backend. Engine selects the per-node engine:
	// storage.Mem (default) keeps the volatile map; storage.LSM runs the
	// durable WAL + LSM-lite engine, making Crash/Restart meaningful.
	Engine storage.Kind
	// WALSyncBytes is the LSM WAL sync cadence: the log syncs once the
	// unsynced tail reaches this many bytes (a crash loses at most that
	// tail; on a file WAL the whole tail is one write + one fdatasync).
	// 0 syncs every record.
	WALSyncBytes int64
	// MaxRuns triggers LSM size-tiered compaction; 0 defaults to 4.
	MaxRuns int
	// WALDir, when set, backs each node's WAL with a real file
	// (wal-<node>.log, one recycled segment: see storage.Options.Path) so
	// the live engine pays real I/O for WAL syncs; empty keeps WALs as
	// deterministic in-memory logs.
	WALDir string

	// Read path.
	DigestReads        bool
	ReadRepair         bool
	GlobalRepairChance float64
	ReadTargets        TargetPolicy

	// Client routing: clients rotate through the live Coordinators
	// (YCSB's default client behaviour with a node list), all ring
	// members when it is nil. One DC's nodes (topo.NodesInDC) route
	// locally. A multi-process deployment needs it: client messages
	// carry callbacks, so every operation must be coordinated by a node
	// living in the issuing process — each serving process pins
	// Coordinators to its local node set.
	Coordinators []netsim.NodeID

	// Elastic membership.
	// InitialMembers, when set, starts the cluster with only these
	// topology nodes on the ring; the rest can Join later. nil means
	// every topology node is a founding member (the classic static
	// cluster).
	InitialMembers []netsim.NodeID
	// WarmupDuration is the warming window after a Join flip or a
	// Restart: the node serves writes but read coordinators deprioritize
	// it (it is excluded from read quorums whenever enough converged
	// replicas are live) until the window elapses. 0 disables warming —
	// the node counts as fully live at once, the pre-elasticity
	// behaviour.
	WarmupDuration time.Duration
	// StreamChunkBytes is the snapshot-stream chunk budget for Join and
	// Decommission range transfers; 0 defaults to 16 KiB.
	StreamChunkBytes int
	// DisableJoinStream makes Join skip snapshot streaming entirely: the
	// joiner enters the ring empty and converges through hinted handoff
	// and anti-entropy alone (the rejoin-ablation the elasticity
	// experiment measures against).
	DisableJoinStream bool

	// Gossip membership (opt-in). With Gossip set, membership state is
	// disseminated SWIM-style instead of flipping atomically: every node
	// keeps its own view (internal/gossip), coordinators route on their
	// local — possibly stale — ring, replicas refuse ranges they no
	// longer own (notOwner) carrying the ring events the coordinator is
	// missing, and the coordinator re-plans and retries within
	// GossipRetryBudget. With Gossip unset the atomic path is untouched:
	// no extra messages, no extra RNG draws, byte-identical transcripts.
	Gossip bool
	// GossipInterval is the probe period of each node (default 200 ms);
	// an unanswered probe after half the interval raises a suspicion.
	GossipInterval time.Duration
	// GossipRetryBudget caps wrong-owner re-plans per operation
	// (default 2); the budget is charged against the client deadline —
	// retries never extend the operation's timeout.
	GossipRetryBudget int

	// Hot-key fast path (opt-in). With HotCache set the cluster tracks a
	// windowed heavy-hitter profile of the coordinated traffic, promotes
	// the head keys into a hot set (with per-key consistency overrides,
	// see SetHotKeyLevel), and every coordinator keeps a read cache over
	// those keys: quorum reads fill entries, single-ack reads younger
	// than the key's freshness bound are answered without any replica
	// messages. See hotcache.go. With HotCache unset nothing changes:
	// no tracker, no cache, byte-identical transcripts.
	HotCache bool
	// HotSetSize bounds the hot set (default 16).
	HotSetSize int
	// HotSetEvalOps is how many observed operations elapse between
	// hot-set re-evaluations (default 512).
	HotSetEvalOps int
	// HotPromoteShare is the windowed read share at which a key enters
	// the hot set (default 0.01); a hot key leaves below half of it.
	HotPromoteShare float64

	// Fault handling.
	// MutationShed drops replica mutations that waited in the mutation
	// stage beyond this threshold (Cassandra's dropped-mutation
	// overload behaviour); 0 disables shedding.
	MutationShed        time.Duration
	Timeout             time.Duration
	DetectionDelay      time.Duration // failure-detector convergence time
	HintReplayInterval  time.Duration
	AntiEntropyInterval time.Duration // 0 disables anti-entropy
	AntiEntropySample   int           // keys sampled per round

	// Seed for all store-side randomness.
	Seed uint64

	seedSource *stats.Source
}

// DefaultConfig returns a workable configuration: RF 3, digest reads and
// read repair on, 100 ms timeout, Cassandra-flavoured service times.
func DefaultConfig() Config {
	return Config{
		RF:                  3,
		VNodes:              32,
		ReadService:         stats.NewLogNormal(800*time.Microsecond, 0.5),
		WriteService:        stats.NewLogNormal(500*time.Microsecond, 0.5),
		CoordOverhead:       stats.NewLogNormal(80*time.Microsecond, 0.3),
		Concurrency:         4,
		FlushLimit:          64 << 20,
		WALSyncBytes:        16 << 10,
		MaxRuns:             4,
		DigestReads:         true,
		ReadRepair:          true,
		GlobalRepairChance:  0.1,
		ReadTargets:         TargetClosest,
		StreamChunkBytes:    16 << 10,
		MutationShed:        2 * time.Second,
		Timeout:             2 * time.Second,
		DetectionDelay:      1 * time.Second,
		HintReplayInterval:  5 * time.Second,
		AntiEntropyInterval: 0,
		AntiEntropySample:   256,
		Seed:                1,
	}
}

// streamChunkBudget returns StreamChunkBytes with the default applied:
// the chunk framing budget shared by join and decommission streams.
func (cfg *Config) streamChunkBudget() int {
	if cfg.StreamChunkBytes > 0 {
		return cfg.StreamChunkBytes
	}
	return 16 << 10
}

// Cluster is the replicated store: a set of node actors over a Transport,
// plus the client entry points. In simulation all methods must be called
// from engine events (the simulation is single-threaded); live, the
// engine serializes access.
type Cluster struct {
	cfg      Config
	topo     *netsim.Topology
	net      Transport
	nodes    map[netsim.NodeID]*Node
	order    []netsim.NodeID // current ring members, ascending id
	allNodes []netsim.NodeID // every node that ever had an actor (accounting)
	strategy ring.Strategy
	oracle   *Oracle
	hooks    hookSet
	// remote marks, by node id, the nodes another process serves; nil
	// over a Transport that cannot span processes (every simulation).
	remote []bool

	// Elastic membership: at most one Join/Decommission is in flight at
	// a time; warming holds the replicas read coordinators deprioritize
	// until their post-join/post-restart catch-up window elapses.
	pending         *membershipChange
	membershipGen   uint64
	membershipQueue []queuedChange
	// draining counts scheduled-but-not-yet-run queue-drain events:
	// while one is in flight the cluster is NOT settled, even at the
	// instant the queue itself looks empty to a same-time observer.
	draining      int
	warming       map[netsim.NodeID]bool
	joins         uint64
	decommissions uint64
	retired       Usage // meters of node incarnations replaced by a rejoin
	closeErr      error // first engine-close error from membership churn

	// Gossip membership (Config.Gossip): the global append-only log of
	// membership flips. Each node's ring knowledge is a contiguous
	// prefix of this log (see internal/gossip); rings[seq] is the
	// placement after the first seq flips, so a view routes on the one
	// its prefix names (len(rings) == len(ringEvents)+1).
	ringEvents []gossip.RingEvent
	rings      []placement

	// Hot-key fast path (Config.HotCache; nil otherwise): the shared
	// hot-set tracker the per-node read caches consult. See hotcache.go.
	hot *hotTracker

	seq    uint64
	nextID reqID
	down   map[netsim.NodeID]bool
	rr     int

	// Pooled client-op slab (clientop.go); guardCb is the pre-bound
	// timeout callback shared by every guard timer.
	ops     []clientOp
	opFree  int32
	guardCb sim.Callback

	// The pooled message boxes and coordinator context free lists
	// (messages.go); the mesh codec (wiremsg.go) fills and empties them.
	boxes
}

// New assembles a cluster over the given topology and network.
func New(topo *netsim.Topology, net Transport, cfg Config) *Cluster {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = 32
	}
	if cfg.Gossip {
		if cfg.GossipInterval <= 0 {
			cfg.GossipInterval = 200 * time.Millisecond
		}
		if cfg.GossipRetryBudget <= 0 {
			cfg.GossipRetryBudget = 2
		}
	}
	if cfg.HotCache {
		if cfg.HotSetSize <= 0 {
			cfg.HotSetSize = 16
		}
		if cfg.HotSetEvalOps <= 0 {
			cfg.HotSetEvalOps = 512
		}
		if cfg.HotPromoteShare <= 0 {
			cfg.HotPromoteShare = 0.01
		}
	}
	cfg.seedSource = stats.NewSource(cfg.Seed).Stream("kv")
	c := &Cluster{
		cfg:     cfg,
		topo:    topo,
		net:     net,
		nodes:   make(map[netsim.NodeID]*Node, topo.N()),
		warming: make(map[netsim.NodeID]bool),
		down:    make(map[netsim.NodeID]bool),
	}
	c.guardCb = c.guardFired
	c.opFree = noOp
	if cfg.HotCache {
		c.hot = newHotTracker(&cfg, net.Now())
	}

	members := cfg.InitialMembers
	if members == nil {
		members = topo.Nodes()
	} else {
		members = append([]netsim.NodeID(nil), members...)
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		for i, id := range members {
			if id < 0 || int(id) >= topo.N() {
				panic(fmt.Sprintf("kv: initial member %d outside topology (N=%d)", id, topo.N()))
			}
			if i > 0 && members[i-1] == id {
				panic(fmt.Sprintf("kv: duplicate initial member %d", id))
			}
		}
	}
	c.strategy = c.buildStrategy(members)
	c.oracle = NewOracle(c.strategy.RF())
	if cfg.Gossip {
		c.rings = []placement{{members: append([]netsim.NodeID(nil), members...), strategy: c.strategy}}
	}

	for _, id := range members {
		n := newNode(id, c)
		c.nodes[id] = n
		c.order = append(c.order, id)
		c.allNodes = append(c.allNodes, id)
		net.Register(id, n.Handle)
	}
	net.Register(netsim.ClientID, c.handleClientReply)
	if h, ok := net.(hoster); ok {
		c.remote = make([]bool, topo.N())
		for id := range c.remote {
			c.remote[id] = h.Remote(netsim.NodeID(id))
		}
	}
	if cr, ok := net.(carrier); ok {
		cr.Carry(c)
	}

	// Stagger background tasks so they do not synchronize.
	for i, id := range c.order {
		n := c.nodes[id]
		if cfg.AntiEntropyInterval > 0 {
			net.SendLocal(id, aeTick{}, cfg.AntiEntropyInterval*time.Duration(i+1)/time.Duration(len(c.order)))
		}
		if cfg.HintReplayInterval > 0 {
			net.SendLocal(id, hintTick{}, cfg.HintReplayInterval*time.Duration(i+1)/time.Duration(len(c.order)))
		}
		if cfg.Gossip {
			n.gs = newGossipState(n, 0)
			net.SendLocal(id, gossipTick{epoch: n.epoch},
				cfg.GossipInterval*time.Duration(i+1)/time.Duration(len(c.order)))
		}
	}
	return c
}

// placement is the ring as one ring-event prefix leaves it: the member
// set and the strategy built over it. Every view at that prefix shares
// it.
type placement struct {
	members  []netsim.NodeID
	strategy ring.Strategy
}

// appendRingEvent logs one membership flip to the global ring-event log
// and, beside it, the placement the flip leaves: the caller has already
// adopted it as c.strategy and updated c.order. Per-node views learn the
// flip through gossip (plus the introducer fast-path in
// finishJoin/finishDecommission).
func (c *Cluster) appendRingEvent(join bool, id netsim.NodeID) {
	c.ringEvents = append(c.ringEvents, gossip.RingEvent{
		Seq:  uint64(len(c.ringEvents)) + 1,
		Join: join,
		Node: id,
	})
	c.rings = append(c.rings, placement{members: c.Members(), strategy: c.strategy})
}

// eventsSince returns the ring-event suffix after prefix seq. The slice
// aliases the log; receivers only read it.
func (c *Cluster) eventsSince(seq uint64) []gossip.RingEvent {
	if seq >= uint64(len(c.ringEvents)) {
		return nil
	}
	return c.ringEvents[seq:]
}

// ResetGossipView rewinds node id's membership view to ring-event
// prefix seq, as if the node had been partitioned from all gossip since
// that flip. Only tests call it, to manufacture stale coordinators
// deterministically (Config.Gossip only).
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

// GossipStatus reports viewer's current liveness claim about subject
// (gossip.Left when gossip is disabled or the viewer has no agent — an
// unknown node is unroutable either way).
func (c *Cluster) GossipStatus(viewer, subject netsim.NodeID) gossip.Status {
	if n := c.nodes[viewer]; n != nil && n.gs != nil {
		return n.gs.view.StatusOf(subject)
	}
	return gossip.Left
}

// ViewAgreement reports the fraction of reachable ring members whose
// view has applied the full ring-event log — the convergence signal an
// eventually-consistent controller paces on. Failed and crashed nodes
// are excluded: they cannot converge while cut off, and counting them
// would wedge a controller through any partition. Without gossip the
// placement is atomic and agreement is always total.
func (c *Cluster) ViewAgreement() float64 {
	if !c.cfg.Gossip {
		return 1
	}
	target := uint64(len(c.ringEvents))
	total, agree := 0, 0
	for _, id := range c.order {
		n := c.nodes[id]
		if n.failed || n.crashed || n.gs == nil {
			continue
		}
		total++
		if n.gs.view.RingSeq() == target {
			agree++
		}
	}
	if total == 0 {
		return 1
	}
	return float64(agree) / float64(total)
}

// MembershipConverged reports whether every reachable member's view
// agrees with the full membership-flip log. With gossip enabled this is
// the eventually-consistent replacement for the atomic settling signal:
// a controller should treat an enacted change as done only when the
// cluster both settled (streams and warming finished) and converged
// (every view routes on the new ring).
func (c *Cluster) MembershipConverged() bool { return c.ViewAgreement() == 1 }

// buildStrategy assembles the configured placement strategy over the
// given member set. New uses it at birth; Join/Decommission build the
// post-change placement with it up front — to plan which keys move —
// and adopt that same strategy at the flip.
func (c *Cluster) buildStrategy(members []netsim.NodeID) ring.Strategy {
	rg := ring.New(members, c.cfg.VNodes, c.cfg.Seed)
	if len(c.cfg.PerDC) > 0 {
		return ring.NewNetworkTopologyStrategy(rg, c.topo, c.cfg.PerDC)
	}
	rf := c.cfg.RF
	if rf <= 0 {
		rf = 3
	}
	if rf > len(members) {
		panic(fmt.Sprintf("kv: RF %d exceeds cluster size %d", rf, len(members)))
	}
	return ring.NewSimpleStrategy(rg, rf)
}

func (c *Cluster) nextReqID() reqID {
	c.nextID++
	return c.nextID
}

func (c *Cluster) nextSeq() uint64 {
	c.seq++
	return c.seq
}

// pickCoordinator returns the next coordinator in rotation, or -1 when
// no candidate is live.
func (c *Cluster) pickCoordinator() netsim.NodeID {
	candidates := c.order
	if len(c.cfg.Coordinators) > 0 {
		candidates = c.cfg.Coordinators
	}
	n := len(candidates)
	if n == 0 {
		return -1
	}
	for tries := 0; tries < n; tries++ {
		id := candidates[c.rr%n]
		c.rr++
		if !c.down[id] && c.serving(id) {
			return id
		}
	}
	return -1
}

// serving reports whether id is a ring member able to coordinate client
// operations (live, warming or streaming out — not bootstrapping, not
// decommissioned, not absent). Config.Coordinators may name any
// topology node, so non-members must be filtered here.
func (c *Cluster) serving(id netsim.NodeID) bool {
	n, ok := c.nodes[id]
	return ok && (n.phase == phaseLive || n.phase == phaseWarming || n.phase == phaseLeaving)
}

func (c *Cluster) isDown(id netsim.NodeID) bool { return len(c.down) != 0 && c.down[id] }

// engineOptions assembles the storage options of one node.
func (c *Cluster) engineOptions(id netsim.NodeID) storage.Options {
	opts := storage.Options{
		FlushLimit: c.cfg.FlushLimit,
		SyncBytes:  c.cfg.WALSyncBytes,
		MaxRuns:    c.cfg.MaxRuns,
	}
	if c.cfg.WALDir != "" && c.cfg.Engine == storage.LSM {
		opts.Path = filepath.Join(c.cfg.WALDir, fmt.Sprintf("wal-%d.log", id))
	}
	return opts
}

// Two distinct failure modes, injectable independently:
//
//   - Fail/Recover is a NETWORK failure: the transport drops the node's
//     traffic, but the process keeps running and its state — engine
//     contents, buffered hints, queued work — is fully PRESERVED. A
//     recovered node serves exactly what it held when it was cut off.
//   - Crash/Restart is a PROCESS failure: traffic drops the same way,
//     but the node additionally LOSES its volatile state (for MemEngine
//     that is every write; for the LSM engine, the memtable and the
//     un-fsynced WAL tail). Restart rebuilds from durable state (WAL
//     replay + sorted runs) and catches up via hinted handoff and
//     anti-entropy.
//
// A node is in exactly one of three states — live, failed or crashed —
// and the four methods enforce the transitions (live→failed→live via
// Fail/Recover, live→crashed→live via Crash/Restart), panicking on any
// other sequence: mispairing them would desynchronize the transport's
// boolean down flag and the failure detector from the actor's state
// (e.g. Restart-ing a node that was also Failed would silently heal the
// partition). TestFailPreservesStateCrashLosesIt pins this contract.

// mustBeLive panics unless node id is a member that is neither failed
// nor crashed.
func (c *Cluster) mustBeLive(id netsim.NodeID, op string) *Node {
	n := c.nodes[id]
	switch {
	case n == nil || n.phase == phaseDecommissioned || n.phase == phaseBootstrapping:
		panic(fmt.Sprintf("kv: %s(%d) on a non-member node", op, id))
	case n.failed:
		panic(fmt.Sprintf("kv: %s(%d) on a failed node; Recover it first", op, id))
	case n.crashed:
		panic(fmt.Sprintf("kv: %s(%d) on a crashed node; Restart it first", op, id))
	}
	return n
}

// Fail injects a network-level node failure: the transport drops its
// traffic at once and the cluster-wide failure detector marks it down
// after the configured detection delay. The node's state is preserved.
func (c *Cluster) Fail(id netsim.NodeID) {
	c.mustBeLive(id, "Fail").failed = true
	if f, ok := c.net.(failer); ok {
		f.Fail(id)
	}
	c.net.Schedule(c.cfg.DetectionDelay, func() { c.down[id] = true })
}

// Recover reverses Fail after the detection delay. Recovering a node
// that is not failed (live, or crashed — use Restart) is a contract
// violation.
func (c *Cluster) Recover(id netsim.NodeID) {
	n := c.nodes[id]
	if !n.failed {
		panic(fmt.Sprintf("kv: Recover(%d) on a non-failed node (crashed=%v); Recover pairs with Fail", id, n.crashed))
	}
	n.failed = false
	if f, ok := c.net.(failer); ok {
		f.Recover(id)
	}
	c.net.Schedule(c.cfg.DetectionDelay, func() { delete(c.down, id) })
}

// Crash kills the node process: traffic drops like Fail, and the node
// loses its volatile state — engine memtable past the last durability
// point, coordinator contexts, queued stage work, buffered hints. The
// failure detector marks it down after the detection delay.
func (c *Cluster) Crash(id netsim.NodeID) {
	n := c.mustBeLive(id, "Crash")
	if f, ok := c.net.(failer); ok {
		f.Fail(id)
	}
	n.crash()
	c.net.Schedule(c.cfg.DetectionDelay, func() { c.down[id] = true })
}

// Restart reverses Crash: the engine recovers its durable state (the
// LSM engine reloads sorted runs and replays the fsynced WAL prefix;
// MemEngine restarts empty), traffic flows again at once, and the
// detector marks the node up after the detection delay. The node then
// converges through hinted handoff and anti-entropy like any lagging
// replica. With Config.WarmupDuration set, it re-enters service through
// the same warming state a joining node uses: it takes writes at once
// but read coordinators deprioritize it until the window elapses, so a
// replaying replica is not counted as fully live. The returned stats
// report what the engine recovered.
func (c *Cluster) Restart(id netsim.NodeID) storage.RecoverStats {
	if c.nodes[id] == nil {
		panic(fmt.Sprintf("kv: Restart(%d) on a non-member node", id))
	}
	if !c.nodes[id].crashed {
		panic(fmt.Sprintf("kv: Restart(%d) on a non-crashed node (failed=%v); Restart pairs with Crash", id, c.nodes[id].failed))
	}
	if f, ok := c.net.(failer); ok {
		f.Recover(id)
	}
	rs := c.nodes[id].restart()
	c.markWarming(id)
	c.net.Schedule(c.cfg.DetectionDelay, func() { delete(c.down, id) })
	return rs
}

// Close releases node engine resources (file-backed WALs under the live
// engine), decommissioned nodes included. The cluster must not be used
// afterwards.
func (c *Cluster) Close() error {
	first := c.closeErr // engines already closed by membership churn
	for _, id := range c.allNodes {
		if err := c.nodes[id].engine.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Oracle exposes the staleness oracle (experiments and tests).
func (c *Cluster) Oracle() *Oracle { return c.oracle }

// Topology exposes the cluster topology.
func (c *Cluster) Topology() *netsim.Topology { return c.topo }

// Strategy exposes the placement strategy.
func (c *Cluster) Strategy() ring.Strategy { return c.strategy }

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// RF reports the total replication factor.
func (c *Cluster) RF() int { return c.strategy.RF() }

// Node exposes a node (tests and experiments).
func (c *Cluster) Node(id netsim.NodeID) *Node { return c.nodes[id] }

// AddHooks registers an instrumentation listener.
func (c *Cluster) AddHooks(h *Hooks) { c.hooks = append(c.hooks, h) }

// Preload seeds n records directly into every replica's engine, bypassing
// the network: the equivalent of YCSB's load phase followed by full
// quiescence. Records get version timestamps of zero so every subsequent
// write supersedes them. It schedules nothing and sends nothing.
//
// The load runs in passes rather than record by record. The first places
// every record: its key, its ring token and, per replica node, the list
// of records that node holds. The second visits the nodes in ascending id
// and applies each node's records in record order, so an engine sees the
// Apply sequence a record-by-record load would give it, but is sized once
// (storage.Engine.Reserve) and stays hot in cache while it fills. The
// last ledgers the records in order: one every replica accepted is
// ledgered as fully propagated — both oracle watermarks, a zero delay at
// every replica rank and a zero propagation time, never in flight — and
// one some replica refused (a load over newer data) as the started,
// acknowledged and partly applied write it is, which stays in flight.
func (c *Cluster) Preload(n uint64, key func(uint64) string, value []byte) {
	now := c.net.Now()
	first := c.seq + 1 // record i carries Seq first+i, as nextSeq would hand out
	c.seq += n
	version := func(i uint32) storage.Version {
		return storage.Version{Timestamp: 0, Seq: first + uint64(i)}
	}

	keys := make([]string, n)
	toks := make([]ring.Token, n)
	held := make([][]uint32, c.topo.N()) // by node id: the records it replicates
	share := int(n)*c.strategy.RF()/len(c.order) + 1
	for _, id := range c.order {
		held[id] = make([]uint32, 0, share+share/8) // an even share and the ring's imbalance
	}
	for i := range keys {
		keys[i] = key(uint64(i))
		toks[i] = ring.KeyToken(keys[i])
		for _, r := range c.strategy.ReplicasAt(toks[i]) {
			held[r] = append(held[r], uint32(i))
		}
	}

	var refusedBy map[uint32][]netsim.NodeID // record: the replicas that kept newer data
	for id, recs := range held {
		if len(recs) == 0 {
			continue
		}
		engine := c.nodes[netsim.NodeID(id)].engine
		engine.Reserve(len(recs))
		for _, i := range recs {
			if !engine.ApplyAt(keys[i], toks[i], storage.Cell{Version: version(i), Value: value}) {
				if refusedBy == nil {
					refusedBy = make(map[uint32][]netsim.NodeID)
				}
				refusedBy[i] = append(refusedBy[i], netsim.NodeID(id))
			}
		}
	}

	c.oracle.reserve(len(keys))
	for i := range keys {
		k, v := keys[i], version(uint32(i))
		replicas := c.strategy.ReplicasAt(toks[i])
		refusers := refusedBy[uint32(i)]
		if len(refusers) == 0 {
			c.oracle.writeEverywhere(k, v, len(replicas))
			continue
		}
		c.oracle.WriteStarted(k, v, len(replicas), now)
		c.oracle.WriteVisible(k, v)
		for _, r := range replicas {
			if !slices.Contains(refusers, r) {
				c.oracle.Applied(r, v, now)
			}
		}
	}
}

// Usage summarizes the cluster's resource consumption so far; the cost
// model combines it with the transport's traffic meter.
type Usage struct {
	Nodes         int
	BusyTime      time.Duration // summed service time across nodes
	StoredBytes   int64
	ReplicaReads  uint64
	ReplicaWrites uint64
	CoordOps      uint64
	ReadRepairs   uint64
	HintsReplayed uint64
	HintsDropped  uint64
	AERounds      uint64
	FlushedBytes  uint64
	DroppedMuts   uint64

	// Durability accounting (nonzero only with the LSM engine, except
	// Crashes and WALReplays which count for both).
	Crashes        uint64
	WALReplays     uint64
	WALBytes       uint64 // bytes appended to WALs
	WALSyncs       uint64
	LostWALRecords uint64 // un-fsynced records dropped by crashes
	Compactions    uint64
	CompactedBytes uint64 // bytes rewritten by compactions (priced I/O)

	// Elastic membership accounting. The stream counters meter the
	// sender side of snapshot streaming (data moved by Join rebalances
	// and Decommission handoffs).
	Joins          uint64
	Decommissions  uint64
	StreamChunks   uint64
	StreamedCells  uint64
	StreamedBytes  uint64
	StreamInCells  uint64 // cells applied from inbound snapshot streams
	StreamInChunks uint64
	// StreamSnapshotCells counts the cells stream senders actually read
	// out of engine snapshots. With range-addressed streaming this is
	// proportional to the moved fraction of the keyspace, not the store
	// size (the PR10 acceptance meter).
	StreamSnapshotCells uint64

	// Gossip membership accounting (nonzero only with Config.Gossip).
	GossipRounds       uint64 // probe rounds initiated
	GossipSuspicions   uint64 // suspicions raised by probe timeouts
	GossipDeadDeclared uint64 // suspicions that aged into dead verdicts
	GossipEvents       uint64 // ring events applied across views
	NotOwnerReplies    uint64 // replica-side refusals of stale-ring requests
	WrongOwnerRetries  uint64 // coordinator-side re-plans after refusals
	WarmViolations     uint64 // reads sent to warming replicas despite converged alternatives

	// Hot-key cache accounting (nonzero only with Config.HotCache).
	CacheHits          uint64 // reads answered in the coordinator, no replica messages
	CacheMisses        uint64 // servable hot-key reads that fell through to quorum
	CacheFills         uint64 // entries filled by replica-served reads
	CacheInvalidations uint64 // entries dropped by local write paths
	CacheExpired       uint64 // entries older than their freshness bound
	CacheRingEvicted   uint64 // entries dropped by ring/membership movement
	CacheStaleServed   uint64 // cache hits the oracle judged stale
	HotPromotions      uint64 // keys promoted into the hot set
	HotDemotions       uint64 // keys demoted out of the hot set
	HotKeysNow         int    // current hot-set size (point-in-time gauge)
}

// accumulateNodeUsage folds one node's meters into u. StoredBytes is a
// point-in-time gauge: data parked on a drained, off-ring node is not
// billed capacity, so decommissioned nodes contribute only their
// cumulative work counters.
func accumulateNodeUsage(u *Usage, n *Node) {
	u.BusyTime += n.BusyTime()
	if n.phase != phaseDecommissioned {
		u.StoredBytes += n.engine.Bytes()
	}
	u.ReplicaReads += n.repReads
	u.ReplicaWrites += n.repWrites
	u.CoordOps += n.coordOps
	u.ReadRepairs += n.readRepairs
	u.HintsReplayed += n.hintsReplayed
	u.HintsDropped += n.hintsDropped
	u.AERounds += n.aeRounds
	st := n.engine.Stats()
	u.FlushedBytes += st.FlushedBytes
	u.DroppedMuts += n.writeStage.dropped
	u.Crashes += st.Crashes
	u.WALReplays += st.Replays
	u.WALBytes += st.WALBytes
	u.WALSyncs += st.WALSyncs
	u.LostWALRecords += st.LostRecords
	u.Compactions += st.Compactions
	u.CompactedBytes += st.CompactedBytes
	u.StreamChunks += n.streamChunksOut
	u.StreamedCells += n.streamedOutCells
	u.StreamedBytes += n.streamedOutBytes
	u.StreamInCells += n.streamedInCells
	u.StreamInChunks += n.streamChunksIn
	u.StreamSnapshotCells += n.streamSnapshotCells
	if gs := n.gs; gs != nil {
		u.GossipRounds += gs.rounds
		u.GossipSuspicions += gs.suspicions
		u.GossipDeadDeclared += gs.deadDeclared
		u.GossipEvents += gs.eventsApplied
		u.NotOwnerReplies += gs.notOwnerReplies
		u.WrongOwnerRetries += gs.wrongOwnerRetries
		u.WarmViolations += gs.warmViolations
	}
	if rc := n.cache; rc != nil {
		u.CacheHits += rc.hits
		u.CacheMisses += rc.misses
		u.CacheFills += rc.fills
		u.CacheInvalidations += rc.invalidations
		u.CacheExpired += rc.expired
		u.CacheRingEvicted += rc.ringEvicted
		u.CacheStaleServed += rc.staleServed
	}
}

// Usage gathers the resource usage snapshot. Decommissioned nodes —
// including past incarnations replaced by a rejoin — keep contributing
// the work they did while serving.
func (c *Cluster) Usage() Usage {
	u := c.retired
	u.Nodes = len(c.order)
	u.Joins = c.joins
	u.Decommissions = c.decommissions
	for _, id := range c.allNodes {
		accumulateNodeUsage(&u, c.nodes[id])
	}
	if t := c.hot; t != nil {
		u.HotPromotions = t.promotions
		u.HotDemotions = t.demotions
		u.HotKeysNow = len(t.keys)
	}
	return u
}
