// Package repro is a Go reproduction of "Self-Adaptive Cost-Efficient
// Consistency Management in the Cloud" (Chihoub, IPDPS 2013 PhD Forum):
// a Cassandra-like replicated key-value store with per-operation tunable
// consistency, the Harmony self-adaptive consistency tuner, the Bismar
// cost-efficiency tuner, and application behavior modeling — plus the
// deterministic cluster simulator the evaluation runs on and a real-time
// engine for live use.
//
// # One deployment core, two backends
//
// NewSim (a deterministic discrete-event simulation in virtual time) and
// NewLive / NewServing (wall clock, goroutines, optionally a TCP mesh of
// processes) build the same thing: a cluster of store nodes, the
// monitoring module, and the adaptive middleware on top. Sim and Live
// both embed one deployment core on which every session, client,
// membership, autoscale and introspection method is written once. A
// backend contributes only what genuinely differs: how to get exclusive
// access to the store (a plain call; the engine lock), how a Future waits
// (step virtual time on the caller's goroutine; block), how a client
// deadline is armed (a virtual timer; an unscaled wall timer) and how
// Client.Run awaits its workload runner. So *Sim and *Live export the
// same methods with the same signatures — Sim adds Run and Now, Live adds
// Close — and the paper's middleware (monitor → tuner → per-operation
// level) sits unchanged on whichever engine runs the store.
//
// # The Client API
//
// A deployment hands out clients: Get, Put, Delete, BatchGet and
// BatchPut, each in a blocking and a future-returning (*Async) form, all
// taking a context.Context and per-operation options (WithLevel
// overrides the session's consistency level, WithDeadline bounds the
// client-visible wait). Multi-key batches are coordinated as true
// batches in the store — one coordinator admission and at most one
// request message per replica — so they amortize the per-operation
// overhead the paper's cost model prices.
//
//	topo := repro.G5KTwoSites(12)
//	sim := repro.NewSim(topo, repro.Defaults(topo)) // or NewLive(topo, cfg, scale)
//	cli, ctl := sim.HarmonyClient(0.05)             // tolerate ≤5% stale reads
//	cli.Put(ctx, "k", []byte("v"))
//	res := cli.BatchGet(ctx, []string{"a", "b"}, repro.WithLevel(repro.Quorum))
//	m, _ := cli.Run(repro.WorkloadB(1000), repro.RunOptions{Ops: 50000})
//
// Consistency levels are re-tuned behind the client by the controller
// returned next to it: HarmonyClient bounds the stale-read rate,
// HarmonyHotClient does so per hot key, BismarClient maximizes
// consistency-cost efficiency, BehaviorClient follows a fitted
// application-behaviour model, and StaticClient pins levels.
// AdaptiveSession runs any Tuner at a chosen control period and returns
// the bare session (the shorthands use the default, 100 ms;
// Client.Session is the session behind any client). Client.Run drives
// YCSB-style workloads (RunOptions.BatchSize switches the driver to
// multi-key batches) through the same session machinery.
//
// See README.md for a walkthrough, examples/ for runnable programs,
// internal/experiments for the paper's evaluation harness and
// benchmark/README.md for the one benchmark performance is measured with.
package repro

import (
	"time"

	"repro/internal/autoscale"
	"repro/internal/behavior"
	"repro/internal/bismar"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/harmony"
	"repro/internal/kv"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/provision"
	"repro/internal/storage"
	"repro/internal/ycsb"
)

// Store types.
type (
	// Level is a per-operation consistency level.
	Level = kv.Level
	// Session issues reads and writes; adaptive sessions re-tune their
	// levels at runtime.
	Session = kv.Session
	// ReadResult reports a completed read.
	ReadResult = kv.ReadResult
	// WriteResult reports a completed write.
	WriteResult = kv.WriteResult
	// Config parameterizes the store.
	Config = kv.Config
	// Topology describes nodes, datacenters and latency laws.
	Topology = netsim.Topology
	// NodeID identifies a cluster node.
	NodeID = netsim.NodeID
	// Workload is a YCSB-style workload definition.
	Workload = ycsb.Workload
	// Metrics aggregates a workload run's measurements.
	Metrics = ycsb.Metrics
	// Decision is a tuner's choice for one control period.
	Decision = core.Decision
	// Tuner converts monitoring snapshots into level decisions.
	Tuner = core.Tuner
	// Controller runs a tuner periodically.
	Controller = core.Controller
	// Snapshot is the monitor's periodic output.
	Snapshot = monitor.Snapshot
	// Pricing is a cloud price catalog.
	Pricing = cost.Pricing
	// Bill is the three-part cost decomposition.
	Bill = cost.Bill
	// Usage is the metered consumption a bill prices.
	Usage = cost.Usage
	// Deployment holds Bismar's operator-known constants.
	Deployment = bismar.Deployment
)

// The fixed consistency levels.
var (
	One         = kv.One
	Two         = kv.Two
	Three       = kv.Three
	Quorum      = kv.Quorum
	All         = kv.All
	LocalQuorum = kv.LocalQuorum
	EachQuorum  = kv.EachQuorum
)

// Count returns the generalized "k replicas" level.
func Count(k int) Level { return kv.Count(k) }

// Storage engines (Config.Engine). EngineMem is the volatile map engine
// (the default): Cluster.Crash loses everything it held. EngineLSM is
// the durable WAL + LSM-lite engine: a crash loses only the un-fsynced
// WAL tail, and Cluster.Restart replays the rest before hinted handoff
// and anti-entropy close the gap. Config.WALSyncBytes, Config.MaxRuns
// and Config.WALDir tune it (a WALDir makes the live engine pay real
// file I/O for WAL syncs: one write + one fdatasync per sync window).
const (
	EngineMem = storage.Mem
	EngineLSM = storage.LSM
)

// RecoverStats reports what a node's engine rebuilt on Cluster.Restart.
type RecoverStats = storage.RecoverStats

// NodeState is a node's combined membership/failure status (Sim.State,
// Live.State). The cluster's member set is elastic: Join adds a topology
// node to the ring through snapshot-streaming bootstrap, Decommission
// streams a member's ownership out before removing it, and a joining or
// restarted node passes through a warming window (Config.WarmupDuration)
// in which read coordinators deprioritize it until it has converged.
type NodeState = kv.NodeState

// Node states.
const (
	StateNotMember      = kv.StateNotMember
	StateLive           = kv.StateLive
	StateFailed         = kv.StateFailed
	StateCrashed        = kv.StateCrashed
	StateBootstrapping  = kv.StateBootstrapping
	StateWarming        = kv.StateWarming
	StateLeaving        = kv.StateLeaving
	StateDecommissioned = kv.StateDecommissioned
)

// Topology presets (see internal/netsim).
var (
	// EC2TwoAZ builds n VMs across two us-east-1 availability zones.
	EC2TwoAZ = netsim.EC2TwoAZ
	// G5KTwoSites builds n bare-metal nodes across two Grid'5000 sites.
	G5KTwoSites = netsim.G5KTwoSites
	// SingleDC builds n nodes in one datacenter.
	SingleDC = netsim.SingleDC
	// GeoRegions builds one DC per named region.
	GeoRegions = netsim.GeoRegions
)

// Defaults returns a working store configuration for a topology.
func Defaults(topo *Topology) Config {
	cfg := kv.DefaultConfig()
	if topo.N() < cfg.RF {
		cfg.RF = topo.N()
	}
	return cfg
}

// Workload presets (see internal/ycsb).
var (
	WorkloadA       = ycsb.WorkloadA
	WorkloadB       = ycsb.WorkloadB
	WorkloadC       = ycsb.WorkloadC
	WorkloadD       = ycsb.WorkloadD
	WorkloadF       = ycsb.WorkloadF
	HeavyReadUpdate = ycsb.HeavyReadUpdate
	MixWorkload     = ycsb.Mix
)

// Key-popularity distributions for MixWorkload.
const (
	DistZipfian = ycsb.DistZipfian
	DistUniform = ycsb.DistUniform
	DistLatest  = ycsb.DistLatest
)

// EC2Pricing2013 is the paper-era us-east-1 price catalog.
func EC2Pricing2013() Pricing { return cost.EC2East2013() }

// Provisioning and autoscaling (§V future work, closed end to end): the
// optimizer searches instance types and cluster sizes for the cheapest
// deployment meeting consistency, throughput and failure constraints,
// and the autoscale controller (Sim.Autoscale, Live.Autoscale) enacts
// its recommendation through Join/Decommission at runtime.
type (
	// NodeType is a leasable instance profile.
	NodeType = provision.NodeType
	// ProvisionConstraints bound acceptable deployments.
	ProvisionConstraints = provision.Constraints
	// ProvisionWorkload is the offered load a deployment must sustain.
	ProvisionWorkload = provision.Workload
	// ProvisionPlan is one candidate deployment with its predictions.
	ProvisionPlan = provision.Plan
	// AutoscaleConfig parameterizes the autoscale controller.
	AutoscaleConfig = autoscale.Config
	// AutoscaleDecision is one control period's journal entry.
	AutoscaleDecision = autoscale.Decision
	// AutoscaleAction is what a control period did (join, decommission,
	// or a named deferral).
	AutoscaleAction = autoscale.Action
	// Autoscaler is the running cost-loop controller.
	Autoscaler = autoscale.Controller
)

// Autoscale actions, for inspecting decision logs.
const (
	AutoscaleHold            = autoscale.ActionHold
	AutoscaleJoin            = autoscale.ActionJoin
	AutoscaleDecommission    = autoscale.ActionDecommission
	AutoscaleDeferHysteresis = autoscale.ActionDeferHysteresis
	AutoscaleDeferCooldown   = autoscale.ActionDeferCooldown
	AutoscaleDeferSettling   = autoscale.ActionDeferSettling
	AutoscaleDeferBoundary   = autoscale.ActionDeferBoundary
	AutoscaleBlockedFloor    = autoscale.ActionBlockedFloor
	AutoscaleBlockedCeiling  = autoscale.ActionBlockedCeiling
	AutoscaleBlockedNoSpare  = autoscale.ActionBlockedNoSpare
)

// DefaultNodeCatalog is the 2013-flavoured EC2 instance menu the
// provisioning examples search over.
func DefaultNodeCatalog() []NodeType { return provision.DefaultCatalog() }

// OptimizeProvision searches the catalog for the cheapest feasible
// deployment; see internal/provision.
func OptimizeProvision(catalog []NodeType, w ProvisionWorkload, c ProvisionConstraints, maxNodes int) (ProvisionPlan, []ProvisionPlan) {
	return provision.Optimize(catalog, w, c, maxNodes)
}

// NewHarmonyTuner returns the Harmony tuner: smallest read level whose
// estimated stale-read rate stays under alpha (§III-A).
func NewHarmonyTuner(alpha float64, rf int) Tuner { return harmony.New(alpha, rf) }

// NewHarmonyHotTuner returns the hot-key-aware Harmony tuner: the
// per-key-estimator decision governs the tail, and each control period
// every key in the cluster's hot set (Config.HotCache) is pinned to the
// smallest read level holding its own estimated stale rate under alpha.
func NewHarmonyHotTuner(alpha float64, cluster *kv.Cluster) Tuner {
	return harmony.NewHot(alpha, cluster)
}

// NewBismarTuner returns the Bismar tuner: the consistency level with the
// highest consistency-cost efficiency (§III-B).
func NewBismarTuner(dep Deployment) Tuner { return bismar.New(dep) }

// NewStaticTuner pins fixed levels.
func NewStaticTuner(read, write Level) Tuner { return core.StaticTuner{Read: read, Write: write} }

// Behavior modeling (§III-C).
type (
	// Trace is an application access log.
	Trace = behavior.Trace
	// Timeline is the per-period feature series of a trace.
	Timeline = behavior.Timeline
	// BehaviorModel is the fitted state model with per-state policies.
	BehaviorModel = behavior.Model
	// BehaviorOptions tunes the modeling process.
	BehaviorOptions = behavior.Options
	// Features summarize one period of application behaviour.
	Features = behavior.Features
	// Policy is a state's consistency prescription.
	Policy = behavior.Policy
)

// BuildTimeline cuts a trace into fixed periods with feature extraction.
func BuildTimeline(trace Trace, period time.Duration) Timeline {
	return behavior.BuildTimeline(trace, period)
}

// BuildBehaviorModel clusters a timeline into application states and
// associates each state with a consistency policy.
func BuildBehaviorModel(tl Timeline, opts BehaviorOptions) (*BehaviorModel, error) {
	return behavior.BuildModel(tl, opts)
}

// DefaultBehaviorOptions explores 2..6 states with the generic rules.
func DefaultBehaviorOptions() BehaviorOptions { return behavior.DefaultOptions() }
