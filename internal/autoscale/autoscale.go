// Package autoscale closes the paper's cost loop: a deterministic
// controller that periodically samples the observed workload (operation
// rates, read fraction, per-key write pressure and the measured stale
// rate from internal/monitor), feeds it to the provisioning optimizer
// (internal/provision) and *enacts* the recommended cluster size through
// the elastic-membership API (kv.Cluster.TryJoin/TryDecommission).
//
// Where Harmony and Bismar adapt the consistency *level* to the
// workload, this controller adapts the *deployment*: scale up when the
// observed load makes the current size infeasible (capacity,
// utilization headroom or predicted staleness), scale down when a
// smaller cluster would still carry the load with margin. Enactment is
// deliberately conservative:
//
//   - hysteresis bands: a size change is enacted only after the
//     recommendation persisted for upStreak (join) or downStreak
//     (decommission) consecutive samples, and a scale-down additionally
//     requires the smaller cluster to fit the observed load inflated by
//     headroom — a workload hovering at a threshold cannot flap the
//     cluster;
//   - cooldown: after an enacted change, no further change for
//     Cooldown;
//   - one change at a time: nothing is enacted while a membership
//     change is still streaming or a node is inside its
//     Config.WarmupDuration window (kv.Cluster.MembershipSettled), nor
//     — under gossip-disseminated membership — while live views still
//     disagree about the ring (Store.MembershipConverged);
//   - floor: the cluster never drops below RF+FailureBudget nodes, and
//     never grows beyond the candidate pool;
//   - billing-granularity awareness: instances are billed in
//     Pricing.BillingGranularity units (2013 EC2: whole hours), so a
//     scale-down is deferred until the victim approaches the boundary
//     of the unit it already paid for, and the victim chosen is the
//     live member closest to its boundary.
//
// Every control period appends a Decision to the log — what was
// observed, what the optimizer recommended, what was done and why — so
// experiments and operators can audit the loop. The controller is a
// pure function of its inputs: same seed, same simulation, same
// decision log.
package autoscale

import (
	"fmt"
	"time"

	"repro/internal/cost"
	"repro/internal/kv"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/provision"
)

// Clock is the scheduling surface the controller needs; the simulated
// transport and the live engine both provide it.
type Clock interface {
	Now() time.Duration
	Schedule(d time.Duration, fn func())
}

// Store is the membership surface the controller drives. kv.Cluster
// implements it; tests substitute fakes.
type Store interface {
	Members() []netsim.NodeID
	State(id netsim.NodeID) kv.NodeState
	MembershipSettled() bool
	// MembershipConverged reports whether every live member's view of
	// the ring agrees with the latest enacted membership. Under gossip
	// dissemination an enacted change is only eventually visible, so
	// the controller holds further changes until views converge; stores
	// with atomic membership return true unconditionally.
	MembershipConverged() bool
	TryJoin(id netsim.NodeID) error
	TryDecommission(id netsim.NodeID) error
}

// Sampler supplies workload observations. *monitor.Monitor implements
// it.
type Sampler interface {
	Snapshot() monitor.Snapshot
}

// Action is what the controller did (or deliberately did not do) at one
// control period.
type Action int

// Controller actions.
const (
	// ActionHold: current size matches the recommendation (or there is
	// no evidence to act on).
	ActionHold Action = iota
	// ActionJoin: a spare node was asked to join.
	ActionJoin
	// ActionDecommission: a member was asked to leave.
	ActionDecommission
	// ActionDeferHysteresis: the recommendation has not persisted long
	// enough (streaks), or the smaller cluster lacks headroom.
	ActionDeferHysteresis
	// ActionDeferCooldown: too soon after the last enacted change.
	ActionDeferCooldown
	// ActionDeferSettling: a membership change is still in flight or a
	// node is still warming.
	ActionDeferSettling
	// ActionDeferBoundary: scale-down waits for the victim's
	// billed-unit boundary (the unit is already paid for).
	ActionDeferBoundary
	// ActionBlockedFloor: already at RF+FailureBudget.
	ActionBlockedFloor
	// ActionBlockedCeiling: already at the candidate pool's size.
	ActionBlockedCeiling
	// ActionBlockedNoSpare: no joinable topology node (or the store
	// rejected the request).
	ActionBlockedNoSpare
)

// String names the action for logs and tables.
func (a Action) String() string {
	switch a {
	case ActionJoin:
		return "join"
	case ActionDecommission:
		return "decommission"
	case ActionDeferHysteresis:
		return "defer-hysteresis"
	case ActionDeferCooldown:
		return "defer-cooldown"
	case ActionDeferSettling:
		return "defer-settling"
	case ActionDeferBoundary:
		return "defer-boundary"
	case ActionBlockedFloor:
		return "blocked-floor"
	case ActionBlockedCeiling:
		return "blocked-ceiling"
	case ActionBlockedNoSpare:
		return "blocked-no-spare"
	}
	return "hold"
}

// Enacted reports whether the action changed the membership.
func (a Action) Enacted() bool { return a == ActionJoin || a == ActionDecommission }

// Config parameterizes the controller. The zero value of every tuning
// knob selects a working default (noted per field).
type Config struct {
	// NodeType is the homogeneous instance profile the deployment runs
	// on — the optimizer's capacity and cost model inputs.
	NodeType provision.NodeType
	// Constraints bound acceptable deployments; RF+FailureBudget is the
	// size floor.
	Constraints provision.Constraints
	// Pricing supplies the billing granularity for boundary-aware
	// scale-down (granularity ≤ 0 falls back to whole hours, matching
	// cost.Pricing.BillFor).
	Pricing cost.Pricing
	// Candidates is the orderable pool of topology nodes the cluster
	// may occupy; spares are picked from it lowest-id first, and its
	// size caps the cluster's. Required.
	Candidates []netsim.NodeID
	// Interval is the control period (default 1 s).
	Interval time.Duration
	// Cooldown is the minimum gap between enacted changes (default
	// 3×Interval).
	Cooldown time.Duration
	// BaseLatency is the network propagation baseline fed to the
	// staleness model (default 1 ms).
	BaseLatency time.Duration
}

// The hysteresis bands: consecutive samples the recommendation must
// persist before a join (upStreak) or a decommission (downStreak) is
// enacted, and the margin (headroom, 15%) the observed load is inflated
// by when judging whether a smaller cluster still fits.
const (
	upStreak   = 2
	downStreak = 4
	headroom   = 0.15
)

// withDefaults normalizes the zero-value knobs.
func (cfg Config) withDefaults() Config {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 3 * cfg.Interval
	}
	if cfg.BaseLatency <= 0 {
		cfg.BaseLatency = time.Millisecond
	}
	return cfg
}

// Decision records one control period: what was observed, what the
// optimizer recommended, and what the controller did about it.
type Decision struct {
	At      time.Duration
	Members int
	Target  int
	Action  Action
	// Node is the joined/decommissioned node (or the deferred victim
	// for ActionDeferBoundary); -1 otherwise.
	Node netsim.NodeID
	// Plan is the optimizer's recommendation for the observed workload.
	Plan provision.Plan
	// Workload is what the monitor snapshot distilled to.
	Workload provision.Workload
	// ObservedStale is the measured stale-read rate over the monitor
	// window.
	ObservedStale float64
	Reason        string
}

// String renders the decision for journals.
func (d Decision) String() string {
	return fmt.Sprintf("%v members=%d target=%d %s (%s)",
		d.At, d.Members, d.Target, d.Action, d.Reason)
}
