package autoscale

import (
	"fmt"
	"time"

	"repro/internal/kv"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/provision"
)

// Controller is the autoscale control loop. It is not safe for
// concurrent use; the engine serializes access (event loop in
// simulation, the engine lock live), exactly like core.Controller.
type Controller struct {
	store   Store
	sampler Sampler
	clock   Clock
	cfg     Config

	log        []Decision
	changed    bool // an enacted change exists (gates the cooldown)
	lastChange time.Duration
	upStreak   int
	downStreak int
	// joinedAt anchors each member's billed-unit clock: the Join
	// decision time, or zero for nodes that predate the controller
	// (leased at cluster birth).
	joinedAt map[netsim.NodeID]time.Duration

	started, stopped bool
}

// New wires a controller over a store, a workload sampler and a clock.
func New(store Store, sampler Sampler, clock Clock, cfg Config) *Controller {
	return &Controller{
		store:    store,
		sampler:  sampler,
		clock:    clock,
		cfg:      cfg.withDefaults(),
		joinedAt: make(map[netsim.NodeID]time.Duration),
	}
}

// Start begins the control loop: an immediate evaluation, then one per
// Interval.
func (c *Controller) Start() {
	if c.started {
		return
	}
	c.started = true
	c.loop()
}

// Stop halts rescheduling after the next tick fires.
func (c *Controller) Stop() { c.stopped = true }

// Log returns the decision history.
func (c *Controller) Log() []Decision { return c.log }

// Config returns the normalized configuration in force.
func (c *Controller) Config() Config { return c.cfg }

func (c *Controller) loop() {
	if c.stopped {
		return
	}
	c.Step()
	c.clock.Schedule(c.cfg.Interval, c.loop)
}

// ceiling is the largest legal cluster size: every candidate a member.
func (c *Controller) ceiling() int { return len(c.cfg.Candidates) }

// floor is the smallest legal cluster size.
func (c *Controller) floor() int {
	return c.cfg.Constraints.RF + c.cfg.Constraints.FailureBudget
}

// WorkloadFrom distills a monitor snapshot into the provisioning
// optimizer's workload profile: aggregate offered load, read fraction,
// and the read-weighted per-key write rate the staleness model wants
// (the write pressure against the key a read actually observes, not the
// global write rate). Reads served from the coordinators' hot-key cache
// never reach a replica, so the effective read load the cluster must be
// sized for is the post-cache rate — provisioning for the raw rate
// would buy capacity the cache already absorbed.
func WorkloadFrom(snap monitor.Snapshot, baseLatency time.Duration) provision.Workload {
	reads := snap.ReadRate * (1 - snap.CacheHitShare)
	ops := reads + snap.WriteRate
	w := provision.Workload{OpsPerSecond: ops, BaseLatency: baseLatency}
	if ops > 0 {
		w.ReadFraction = reads / ops
	}
	var perKey float64
	for _, k := range snap.TopKeys {
		perKey += k.ReadShare * k.WriteRate
	}
	if snap.TailKeys > 0 {
		perKey += snap.TailReadShr * (snap.TailWriteRte / snap.TailKeys)
	}
	w.WriteRate = perKey
	return w
}

// Step runs one control period — sample, optimize, enact — and returns
// (and logs) the decision. The scheduled loop calls it once per
// Interval; benches and tests call it directly.
func (c *Controller) Step() Decision {
	now := c.clock.Now()
	snap := c.sampler.Snapshot()
	members := c.store.Members()
	d := Decision{At: now, Members: len(members), Node: -1}
	d.ObservedStale = snap.ObservedStaleRate
	w := WorkloadFrom(snap, c.cfg.BaseLatency)
	d.Workload = w

	if w.OpsPerSecond <= 0 {
		// No evidence: hold, and let stale streaks die with the lull.
		d.Target = len(members)
		d.Reason = "no load observed"
		c.upStreak, c.downStreak = 0, 0
		c.log = append(c.log, d)
		return d
	}

	plan, _ := provision.Optimize([]provision.NodeType{c.cfg.NodeType}, w, c.cfg.Constraints, c.ceiling())
	d.Plan = plan
	cur := len(members)
	target := cur
	bestEffort := false
	if plan.Feasible {
		target = plan.Nodes
	} else if provision.Evaluate(c.cfg.NodeType, c.ceiling(), w, c.cfg.Constraints).Verdict.ScalingHelps() {
		// No size within the ceiling satisfies everything, but at the
		// ceiling the binding constraint is one more capacity would
		// still ease (throughput, utilization, staleness): aim for the
		// ceiling best-effort. Verdicts scaling cannot fix (level
		// unreachable, degenerate inputs) hold instead.
		target = c.ceiling()
		bestEffort = true
	}
	// Measured-staleness feedback: the model can call the current size
	// compliant while the windowed observed stale rate says otherwise —
	// propagation is slower in the flesh than in the queueing model.
	// Sustained violation is scale-up pressure like any other.
	why := plan.Reason
	if d.ObservedStale > c.cfg.Constraints.MaxStaleRate && target <= cur {
		target = cur + 1
		why = fmt.Sprintf("measured stale %.1f%% above tolerated %.1f%%",
			100*d.ObservedStale, 100*c.cfg.Constraints.MaxStaleRate)
	}
	rawTarget := target
	if target < c.floor() {
		target = c.floor()
	}
	if target > c.ceiling() {
		target = c.ceiling()
	}
	d.Target = target
	switch {
	case target > cur:
		c.upStreak, c.downStreak = c.upStreak+1, 0
	case target < cur:
		c.upStreak, c.downStreak = 0, c.downStreak+1
	default:
		c.upStreak, c.downStreak = 0, 0
	}

	switch {
	case target == cur:
		switch {
		case rawTarget > target || (bestEffort && cur == c.ceiling()):
			// The pressure points past the ceiling; nothing to lease.
			d.Action = ActionBlockedCeiling
			d.Reason = fmt.Sprintf("at the ceiling of %d candidates: %s", c.ceiling(), why)
		case !plan.Feasible:
			d.Reason = "holding: " + plan.Reason
		case cur == c.floor() && provision.UnconstrainedSize(c.cfg.NodeType, w, c.cfg.Constraints) < cur:
			// The load would fit fewer nodes; only the durability floor
			// holds the cluster up.
			d.Action = ActionBlockedFloor
			d.Reason = fmt.Sprintf("load fits fewer nodes; floor RF+failures = %d holds the cluster up", c.floor())
		default:
			d.Reason = "at recommended size"
		}
	case !c.store.MembershipSettled():
		d.Action = ActionDeferSettling
		d.Reason = "previous membership change still streaming or warming"
	case !c.store.MembershipConverged():
		// Gossip-disseminated membership: the last change is enacted but
		// some views have not caught up; changing the ring again now
		// would stack staleness on staleness.
		d.Action = ActionDeferSettling
		d.Reason = "membership views still converging"
	case c.changed && now-c.lastChange < c.cfg.Cooldown:
		d.Action = ActionDeferCooldown
		d.Reason = fmt.Sprintf("cooldown: %v since last change < %v", now-c.lastChange, c.cfg.Cooldown)
	case target > cur:
		c.stepUp(&d, why)
	default:
		c.stepDown(&d, members)
	}
	c.log = append(c.log, d)
	return d
}

// stepUp enacts (or defers) one scale-up step; why is the binding
// pressure (the optimizer's reason, or the measured-staleness
// violation).
func (c *Controller) stepUp(d *Decision, why string) {
	if c.upStreak < upStreak {
		d.Action = ActionDeferHysteresis
		d.Reason = fmt.Sprintf("scale-up pressure %d/%d samples", c.upStreak, upStreak)
		return
	}
	spare := c.pickSpare()
	if spare < 0 {
		d.Action = ActionBlockedNoSpare
		d.Reason = "no joinable topology node"
		return
	}
	if err := c.store.TryJoin(spare); err != nil {
		d.Action = ActionBlockedNoSpare
		d.Reason = "join rejected: " + err.Error()
		return
	}
	d.Action = ActionJoin
	d.Node = spare
	d.Reason = fmt.Sprintf("scale up toward %d: %s", d.Target, why)
	c.noteChange(d.At)
	c.joinedAt[spare] = d.At
	c.upStreak = 0
}

// stepDown enacts (or defers) one scale-down step.
func (c *Controller) stepDown(d *Decision, members []netsim.NodeID) {
	if d.Members <= c.floor() {
		d.Action = ActionBlockedFloor
		d.Reason = fmt.Sprintf("at floor RF+failures = %d", c.floor())
		return
	}
	if c.downStreak < downStreak {
		d.Action = ActionDeferHysteresis
		d.Reason = fmt.Sprintf("scale-down pressure %d/%d samples", c.downStreak, downStreak)
		return
	}
	// The smaller cluster must fit the observed load inflated by the
	// headroom margin — the scale-down leg of the hysteresis band.
	infl := d.Workload
	infl.OpsPerSecond *= 1 + headroom
	if p := provision.Evaluate(c.cfg.NodeType, d.Members-1, infl, c.cfg.Constraints); !p.Feasible {
		d.Action = ActionDeferHysteresis
		d.Reason = fmt.Sprintf("headroom: %d nodes under %.0f%% margin: %s",
			d.Members-1, 100*headroom, p.Reason)
		return
	}
	victim, wait := c.pickVictim(d.At, members)
	if victim < 0 {
		d.Action = ActionBlockedNoSpare
		d.Reason = "no plainly live member to decommission"
		return
	}
	if wait > 0 {
		d.Action = ActionDeferBoundary
		d.Node = victim
		d.Reason = fmt.Sprintf("node %d's billed unit has %v left; decommissioning early saves nothing", victim, wait)
		return
	}
	if err := c.store.TryDecommission(victim); err != nil {
		d.Action = ActionBlockedNoSpare
		d.Reason = "decommission rejected: " + err.Error()
		return
	}
	d.Action = ActionDecommission
	d.Node = victim
	d.Reason = fmt.Sprintf("scale down toward %d: %d nodes suffice", d.Target, d.Target)
	c.noteChange(d.At)
	delete(c.joinedAt, victim)
	c.downStreak = 0
}

func (c *Controller) noteChange(at time.Duration) {
	c.changed = true
	c.lastChange = at
}

// pickSpare returns the lowest-id candidate that can join, or -1.
func (c *Controller) pickSpare() netsim.NodeID {
	for _, id := range c.cfg.Candidates {
		switch c.store.State(id) {
		case kv.StateNotMember, kv.StateDecommissioned:
			return id
		}
	}
	return -1
}

// pickVictim chooses the scale-down victim among plainly live members:
// the one closest to its billed-unit boundary (its current unit is paid
// for either way, so the one with the least remaining value goes
// first); ties break toward the highest id. It returns the victim and
// how long scale-down should wait for the boundary (0 = act now).
func (c *Controller) pickVictim(now time.Duration, members []netsim.NodeID) (netsim.NodeID, time.Duration) {
	best := netsim.NodeID(-1)
	var bestWait time.Duration
	for _, id := range members {
		if c.store.State(id) != kv.StateLive {
			continue
		}
		wait := c.untilBoundary(id, now)
		if best < 0 || wait < bestWait || (wait == bestWait && id > best) {
			best, bestWait = id, wait
		}
	}
	return best, bestWait
}

// untilBoundary reports how long until node id completes the billed
// unit it is currently inside, rounded down to 0 when the boundary
// falls within one control period (the controller cannot act more
// precisely than its own cadence). A granularity at or below the
// control period is effectively continuous billing: always 0.
func (c *Controller) untilBoundary(id netsim.NodeID, now time.Duration) time.Duration {
	g := c.cfg.Pricing.BillingGranularity
	if g <= 0 {
		g = time.Hour
	}
	if g <= c.cfg.Interval {
		return 0
	}
	elapsed := now - c.joinedAt[id] // zero anchor for pre-controller members
	// A node sitting exactly on a boundary has completed its unit:
	// acting right now costs nothing extra, so the remainder is 0, not g.
	rem := (g - elapsed%g) % g
	if rem <= c.cfg.Interval {
		return 0
	}
	return rem
}
