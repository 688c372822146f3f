// Package provision implements the paper's second future-work direction
// (§V): cost-efficient storage provisioning under consistency,
// performance and failure constraints. Given a workload profile, a
// consistency requirement and a node-failure budget, it searches instance
// types and cluster sizes for the cheapest deployment whose predicted
// throughput, staleness and availability meet the constraints. The
// predictions reuse the Bismar capacity model and the Harmony stale-read
// estimator over an M/M/c-flavoured queueing approximation of
// propagation delays.
package provision

import (
	"fmt"
	"math"
	"time"

	"repro/internal/harmony"
)

// NodeType is a leasable instance profile.
type NodeType struct {
	Name             string
	HourlyCost       float64
	Concurrency      int
	ReadServiceMean  time.Duration
	WriteServiceMean time.Duration
}

// DefaultCatalog is a 2013-flavoured EC2 menu.
func DefaultCatalog() []NodeType {
	return []NodeType{
		{Name: "m1.medium", HourlyCost: 0.12, Concurrency: 1,
			ReadServiceMean: 10 * time.Millisecond, WriteServiceMean: 7 * time.Millisecond},
		{Name: "m1.large", HourlyCost: 0.24, Concurrency: 2,
			ReadServiceMean: 8 * time.Millisecond, WriteServiceMean: 6 * time.Millisecond},
		{Name: "m1.xlarge", HourlyCost: 0.48, Concurrency: 4,
			ReadServiceMean: 7 * time.Millisecond, WriteServiceMean: 5 * time.Millisecond},
	}
}

// Workload is the offered load the deployment must sustain.
type Workload struct {
	OpsPerSecond float64
	ReadFraction float64
	WriteRate    float64 // writes/s relevant to a read's key (stale model input)
	BaseLatency  time.Duration
}

// Constraints bound acceptable deployments.
type Constraints struct {
	RF            int
	ReadLevel     int // replicas a read involves
	WriteLevel    int
	MaxStaleRate  float64
	MinThroughput float64 // ops/s the cluster must sustain
	FailureBudget int     // node failures to survive while meeting the level
}

// maxUtil is the utilization headroom cap a deployment must stay under.
const maxUtil = 0.85

// Verdict classifies a plan evaluation: which constraint (if any)
// rejected the candidate. Callers that react to infeasibility — the
// autoscale controller deciding whether adding nodes would even help —
// branch on it instead of parsing Reason strings.
type Verdict int

// Evaluation verdicts.
const (
	// VerdictOK: the candidate meets every constraint.
	VerdictOK Verdict = iota
	// VerdictInvalidInput: degenerate workload or constraints (RF ≤ 0,
	// zero service means, no offered load) — no size fixes this.
	VerdictInvalidInput
	// VerdictTooFewNodes: below the RF+FailureBudget floor.
	VerdictTooFewNodes
	// VerdictLevelUnreachable: the consistency level cannot survive the
	// failure budget at this RF — no size fixes this.
	VerdictLevelUnreachable
	// VerdictCapacity: predicted throughput below the requirement.
	VerdictCapacity
	// VerdictUtilization: above the utilization headroom cap.
	VerdictUtilization
	// VerdictStaleness: predicted stale rate above the tolerance.
	VerdictStaleness
	// VerdictNoPlan: an Optimize search found no feasible size.
	VerdictNoPlan
)

// ScalingHelps reports whether adding nodes can address the verdict:
// capacity, utilization and staleness all improve with cluster size,
// while invalid inputs and unreachable levels do not. A VerdictNoPlan
// search result does not say by itself — re-Evaluate at the search
// bound and ask its verdict.
func (v Verdict) ScalingHelps() bool {
	switch v {
	case VerdictTooFewNodes, VerdictCapacity, VerdictUtilization, VerdictStaleness:
		return true
	}
	return false
}

// Plan is one candidate deployment with its predictions.
type Plan struct {
	Type            NodeType
	Nodes           int
	HourlyCost      float64
	PredThroughput  float64
	PredStaleRate   float64
	PredUtilization float64
	Feasible        bool
	Verdict         Verdict
	Reason          string
}

// String renders the plan; infeasible plans say so instead of showing a
// bogus zero-node deployment.
func (p Plan) String() string {
	if !p.Feasible {
		reason := p.Reason
		if reason == "" {
			reason = "infeasible"
		}
		if p.Nodes <= 0 {
			return fmt.Sprintf("no feasible plan (%s)", reason)
		}
		return fmt.Sprintf("%d × %s ($%.2f/h): infeasible — %s",
			p.Nodes, p.Type.Name, p.HourlyCost, reason)
	}
	return fmt.Sprintf("%d × %s ($%.2f/h): thr=%.0f/s stale=%.1f%% util=%.0f%%",
		p.Nodes, p.Type.Name, p.HourlyCost, p.PredThroughput, 100*p.PredStaleRate, 100*p.PredUtilization)
}

// Evaluate predicts one candidate's behaviour against the constraints.
// Degenerate inputs — non-positive RF or levels, zero service means, no
// offered load — return an infeasible plan with VerdictInvalidInput
// instead of reaching the capacity and staleness models with NaN-prone
// values.
func Evaluate(t NodeType, nodes int, w Workload, c Constraints) Plan {
	p := Plan{Type: t, Nodes: nodes, HourlyCost: float64(nodes) * t.HourlyCost}
	if reason := degenerate(t, w, c); reason != "" {
		p.Verdict = VerdictInvalidInput
		p.Reason = reason
		return p
	}
	if nodes < c.RF+c.FailureBudget {
		p.Verdict = VerdictTooFewNodes
		p.Reason = fmt.Sprintf("needs ≥ RF+failures = %d nodes", c.RF+c.FailureBudget)
		return p
	}
	if c.RF-c.FailureBudget < c.ReadLevel || c.RF-c.FailureBudget < c.WriteLevel {
		p.Verdict = VerdictLevelUnreachable
		p.Reason = "level unreachable after tolerated failures"
		return p
	}

	// Capacity model: read and mutation stages, as in the store.
	slots := float64(nodes * t.Concurrency)
	readWork := w.ReadFraction * float64(c.ReadLevel) * t.ReadServiceMean.Seconds()
	writeWork := (1 - w.ReadFraction) * float64(c.RF) * t.WriteServiceMean.Seconds()
	capOps := math.Inf(1)
	if readWork > 0 {
		capOps = math.Min(capOps, slots*maxUtil/readWork)
	}
	if writeWork > 0 {
		capOps = math.Min(capOps, slots*maxUtil/writeWork)
	}
	p.PredThroughput = math.Min(capOps, math.Max(w.OpsPerSecond, c.MinThroughput))
	offered := math.Max(w.OpsPerSecond, c.MinThroughput)
	util := offered * (readWork + writeWork) / slots
	p.PredUtilization = util

	// Propagation model: base network delay inflated by M/M/1-style
	// queueing at the mutation stage.
	rho := math.Min(util, 0.98)
	queueFactor := 1 / (1 - rho)
	delays := make([]time.Duration, c.RF)
	for i := range delays {
		frac := float64(i) / float64(max(1, c.RF-1))
		net := time.Duration(float64(w.BaseLatency) * (0.2 + 0.8*frac))
		delays[i] = time.Duration(float64(net+t.WriteServiceMean) * queueFactor)
		if i > 0 && delays[i] < delays[i-1] {
			delays[i] = delays[i-1]
		}
	}
	p.PredStaleRate = harmony.StaleProb(c.RF, c.ReadLevel, c.WriteLevel, delays, w.WriteRate)

	switch {
	case capOps < c.MinThroughput:
		p.Verdict = VerdictCapacity
		p.Reason = fmt.Sprintf("capacity %.0f/s below required %.0f/s", capOps, c.MinThroughput)
	case util > maxUtil:
		p.Verdict = VerdictUtilization
		p.Reason = fmt.Sprintf("utilization %.0f%% above cap %.0f%%", 100*util, 100*maxUtil)
	case p.PredStaleRate > c.MaxStaleRate:
		p.Verdict = VerdictStaleness
		p.Reason = fmt.Sprintf("predicted stale %.1f%% above tolerated %.1f%%",
			100*p.PredStaleRate, 100*c.MaxStaleRate)
	default:
		p.Feasible = true
		p.Verdict = VerdictOK
		p.Reason = "ok"
	}
	return p
}

// UnconstrainedSize reports the smallest node count whose utilization
// fits the offered load under the headroom cap, ignoring the
// RF+FailureBudget floor and the staleness model (capacity is the only
// constraint that scales purely with node count) — how small the
// deployment *could* be if durability did not hold it up. Zero for
// degenerate inputs.
func UnconstrainedSize(t NodeType, w Workload, c Constraints) int {
	if degenerate(t, w, c) != "" {
		return 0
	}
	offered := math.Max(w.OpsPerSecond, c.MinThroughput)
	readWork := w.ReadFraction * float64(c.ReadLevel) * t.ReadServiceMean.Seconds()
	writeWork := (1 - w.ReadFraction) * float64(c.RF) * t.WriteServiceMean.Seconds()
	perNode := float64(t.Concurrency) * maxUtil
	n := int(math.Ceil(offered * (readWork + writeWork) / perNode))
	if n < 1 {
		n = 1
	}
	return n
}

// degenerate reports why the inputs cannot be evaluated, or "" when they
// can.
func degenerate(t NodeType, w Workload, c Constraints) string {
	switch {
	case c.RF <= 0:
		return fmt.Sprintf("invalid constraints: RF %d must be positive", c.RF)
	case c.ReadLevel <= 0 || c.WriteLevel <= 0:
		return fmt.Sprintf("invalid constraints: levels R%d/W%d must be positive", c.ReadLevel, c.WriteLevel)
	case c.FailureBudget < 0:
		return fmt.Sprintf("invalid constraints: failure budget %d is negative", c.FailureBudget)
	case t.Concurrency <= 0 || t.ReadServiceMean <= 0 || t.WriteServiceMean <= 0:
		return fmt.Sprintf("invalid node type %q: concurrency and service means must be positive", t.Name)
	case w.OpsPerSecond <= 0 && c.MinThroughput <= 0:
		return "no offered load: OpsPerSecond and MinThroughput are both zero"
	case w.ReadFraction < 0 || w.ReadFraction > 1:
		return fmt.Sprintf("invalid workload: read fraction %.2f outside [0, 1]", w.ReadFraction)
	case w.WriteRate < 0:
		return fmt.Sprintf("invalid workload: negative per-key write rate %.2f", w.WriteRate)
	}
	return ""
}

// Optimize searches the catalog for the cheapest feasible plan; maxNodes
// bounds the search (default 200). When no candidate satisfies the
// constraints the returned plan is explicitly infeasible (VerdictNoPlan,
// Reason set) rather than a zero value, so callers never render a bogus
// "0 × ($0.00/h)" deployment.
func Optimize(catalog []NodeType, w Workload, c Constraints, maxNodes int) (Plan, []Plan) {
	if maxNodes <= 0 {
		maxNodes = 200
	}
	var best Plan
	var considered []Plan
	bestSet := false
	for _, t := range catalog {
		for n := max(1, c.RF+c.FailureBudget); n <= maxNodes; n++ {
			p := Evaluate(t, n, w, c)
			considered = append(considered, p)
			if !p.Feasible {
				continue
			}
			if !bestSet || p.HourlyCost < best.HourlyCost {
				best = p
				bestSet = true
			}
			break // larger n of the same type only costs more
		}
	}
	if !bestSet {
		best = Plan{
			Verdict: VerdictNoPlan,
			Reason:  fmt.Sprintf("no feasible plan within %d nodes over %d instance types", maxNodes, len(catalog)),
		}
	}
	return best, considered
}
