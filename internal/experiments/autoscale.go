package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cost"
	"repro/internal/harmony"
	"repro/internal/kv"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/provision"
	"repro/internal/ycsb"
)

// The autoscale study (PR 5): does closing the cost loop — the
// provisioning optimizer *enacting* Join/Decommission instead of only
// recommending sizes — actually save money without blowing the
// staleness budget? Three deployments run the phased Bismar workload
// (BismarPhases: quiet → busy → peak → evening, with the offered load
// varying per phase) under a Harmony controller (α=10%):
//
//	static-min   — fixed at the floor RF+FailureBudget: cheapest
//	               possible, saturates at peak;
//	static-peak  — fixed at the size the peak needs: never saturates,
//	               pays for idle capacity all day;
//	autoscale    — starts at the floor; the internal/autoscale
//	               controller samples the monitor, runs
//	               provision.Optimize and enacts the recommendation
//	               one membership change at a time.
//
// Per phase the study reports member count, throughput, oracle
// stale-read rate, Harmony's time-weighted read level, node-seconds and
// the phase bill; per variant it reports the total bill under
// granularity-aware instance billing plus the controller's decision
// log. The pinned headline: the autoscaled run bills less than
// static-peak while keeping its stale rate within the constraint.

// autoscaleAlpha is the Harmony stale tolerance and the provisioning
// staleness constraint of the study.
const autoscaleAlpha = 0.10

// autoscaleVariant describes one deployment.
type autoscaleVariant struct {
	Name string
	Size int // initial member count
	Auto bool
}

// AutoscalePhase is one phase's window and its node-time accounting,
// billed once the decision log is complete.
type AutoscalePhase struct {
	window
	NodeSeconds float64
	Bill        cost.Bill // exact node-time integral + storage + billed traffic
	Changes     int       // membership changes enacted during the phase
}

// AutoscaleOutcome is one variant's full measurement.
type AutoscaleOutcome struct {
	Variant   string
	Phases    []AutoscalePhase
	Decisions []autoscale.Decision // empty for the static variants
	TotalBill cost.Bill            // instances billed in whole granularity units per lease
	StaleRate float64              // aggregate oracle stale fraction
	Usage     kv.Usage
}

// autoscaleThreadFrac scales the platform's client pressure per Bismar
// phase: the offered load — not just the mix — varies over the
// application's day, which is what makes elasticity worth money.
var autoscaleThreadFrac = []float64{0.15, 0.5, 1.0, 0.18}

// RunAutoscale runs the study on platform p: the topology is the
// scale-up ceiling, RF+1 the floor. The three variants fan out over the
// parallel driver.
func RunAutoscale(p Platform, seed uint64) ([]AutoscaleOutcome, *Table) {
	floor := p.RF + 1 // FailureBudget 1 throughout the study
	variants := []autoscaleVariant{
		{Name: "static-min", Size: floor},
		{Name: "static-peak", Size: p.Nodes},
		{Name: "autoscale", Size: floor, Auto: true},
	}
	outcomes := parallelMap(variants, func(v autoscaleVariant) AutoscaleOutcome {
		return runAutoscaleVariant(p, v, seed)
	})

	t := NewTable(fmt.Sprintf("Autoscale (PR 5): closing the cost loop — {static-%d, static-%d, autoscale %d..%d} "+
		"across the phased Bismar workload — %s", floor, p.Nodes, floor, p.Nodes, p.Name),
		"variant", "phase", "members", "ops", "throughput(op/s)", "stale", "avg read k", "node·s", "bill")
	for _, out := range outcomes {
		for _, ph := range out.Phases {
			t.Add(out.Variant, ph.Name, fmt.Sprintf("%d", ph.Members),
				fmt.Sprintf("%d", ph.Metrics.Ops), fmt.Sprintf("%.0f", ph.Metrics.Throughput()),
				pct(ph.StaleRate()), fmt.Sprintf("%.2f", ph.AvgReadK),
				fmt.Sprintf("%.1f", ph.NodeSeconds), fmt.Sprintf("$%.4f", ph.Bill.Total()))
		}
		t.Note("%s: total bill %s (granularity-aware instance billing), stale %s, %d joins / %d decommissions",
			out.Variant, out.TotalBill, pct(out.StaleRate), out.Usage.Joins, out.Usage.Decommissions)
	}
	if auto := outcomes[2]; len(auto.Decisions) > 0 {
		enacted := 0
		for _, d := range auto.Decisions {
			if d.Action.Enacted() {
				enacted++
				t.Note("decision @%v: %s node %d (members %d → target %d)",
					d.At.Round(time.Millisecond), d.Action, d.Node, d.Members, d.Target)
			}
		}
		t.Note("autoscale controller: %d control periods, %d enacted; stale constraint α=%s",
			len(auto.Decisions), enacted, pct(autoscaleAlpha))
	}
	return outcomes, t
}

// runAutoscaleVariant drives the four phases over one cluster, one
// Harmony controller and (for the autoscale variant) one autoscale
// controller.
func runAutoscaleVariant(p Platform, v autoscaleVariant, seed uint64) AutoscaleOutcome {
	initial := firstNodes(v.Size)
	// Short monitoring window so the controller sees phase shifts at
	// test scale.
	rg := newRig(p, seed, func(cfg *kv.Config) {
		cfg.InitialMembers = initial
		cfg.WarmupDuration = 300 * time.Millisecond
		fastRepair(cfg, 1024)
	}, &monitor.Options{
		Window: time.Second, Slots: 10, TopKeys: 64,
	})
	cl := rg.cl
	rg.control(harmony.New(autoscaleAlpha, cl.RF()), 100*time.Millisecond)

	granular := Pricing()
	granular.BillingGranularity = time.Second // billed units at simulation scale

	var asc *autoscale.Controller
	if v.Auto {
		asc = autoscale.New(cl, rg.mon, rg.tr, autoscale.Config{
			NodeType: provision.NodeType{
				Name:             "sim-node",
				HourlyCost:       granular.InstanceHour,
				Concurrency:      p.Concurrency,
				ReadServiceMean:  p.ReadService.Mean(),
				WriteServiceMean: p.WriteService.Mean(),
			},
			Constraints: provision.Constraints{
				RF: p.RF, ReadLevel: 2, WriteLevel: 1,
				MaxStaleRate: autoscaleAlpha, FailureBudget: 1,
			},
			Pricing:     granular,
			Candidates:  rg.topo.Nodes(),
			Interval:    150 * time.Millisecond,
			Cooldown:    900 * time.Millisecond,
			BaseLatency: rg.topo.MeanLatency(0, netsim.NodeID(rg.topo.N()-1)),
		})
	}

	phases := BismarPhases(p, 1)
	rg.preload(ycsb.HeavyReadUpdate(maxRecords(phases)))
	rg.ctl.Start()
	if asc != nil {
		asc.Start()
	}

	out := AutoscaleOutcome{Variant: v.Name}
	var wins []window
	for i, ph := range phases {
		ph.Workload.ValueSize = p.ValueBytes
		ph.Threads = int(float64(p.Threads) * autoscaleThreadFrac[i%len(autoscaleThreadFrac)])
		if ph.Threads < 8 {
			ph.Threads = 8
		}
		ph.Seed = rg.seed + uint64(i+1)*1000
		wins = append(wins, rg.run(ph))
	}
	// Drain in-flight repair and membership work, then stop the loops.
	rg.settle(2 * time.Second)
	rg.ctl.Stop()
	if asc != nil {
		asc.Stop()
		out.Decisions = asc.Log()
	}
	endTime := rg.eng.Now()
	total := rg.read()
	stored := float64(total.Usage.StoredBytes)

	// Node-time accounting: initial members lease from time zero; every
	// enacted decision opens or closes a lease at its timestamp.
	tl := newNodeTimeline(initial, out.Decisions, endTime)
	smooth := Pricing().Smooth()
	for _, win := range wins {
		ph := AutoscalePhase{
			window:      win,
			NodeSeconds: tl.nodeSeconds(win.Start, win.End),
			Changes:     tl.changesIn(win.Start, win.End),
		}
		// Instance cost over the exact node-time integral, plus storage
		// and the phase's billed traffic.
		dc, region := win.Traffic.BilledBytes()
		ph.Bill = smooth.BillFor(cost.Usage{
			Nodes:            1,
			Duration:         time.Duration(ph.NodeSeconds * float64(time.Second)),
			StoredBytes:      stored,
			InterDCBytes:     float64(dc),
			InterRegionBytes: float64(region),
		})
		// BillFor prorates storage by the usage duration; re-prorate to
		// the phase duration instead of the node-time integral.
		ph.Bill.Storage = (stored / cost.GB) * smooth.StorageGBMonth *
			((win.End - win.Start).Hours() / cost.HoursPerMonth)
		out.Phases = append(out.Phases, ph)
	}

	// Total bill: every lease billed in whole granularity units — the
	// 2013-cloud convention the controller's boundary-aware scale-down
	// respects.
	totalDC, totalRegion := total.Traffic.BilledBytes()
	out.TotalBill = cost.Bill{
		Instances: tl.granularInstanceCost(granular),
		Storage:   (stored / cost.GB) * granular.StorageGBMonth * (endTime.Hours() / cost.HoursPerMonth),
		Network: (float64(totalDC)/cost.GB)*granular.InterDCPerGB +
			(float64(totalRegion)/cost.GB)*granular.InterRegionPerGB,
	}
	out.StaleRate = total.StaleRate()
	out.Usage = total.Usage
	return out
}

// nodeTimeline tracks cluster size over time as a step function plus
// the per-node leases, both derived from the initial member set and the
// enacted autoscale decisions.
type nodeTimeline struct {
	times  []time.Duration
	counts []int
	leases [][2]time.Duration // [from, to)
}

func newNodeTimeline(initial []netsim.NodeID, decisions []autoscale.Decision, end time.Duration) *nodeTimeline {
	tl := &nodeTimeline{times: []time.Duration{0}, counts: []int{len(initial)}}
	open := make(map[netsim.NodeID]time.Duration, len(initial))
	for _, id := range initial {
		open[id] = 0
	}
	cur := len(initial)
	for _, d := range decisions {
		switch d.Action {
		case autoscale.ActionJoin:
			cur++
			open[d.Node] = d.At
		case autoscale.ActionDecommission:
			cur--
			tl.leases = append(tl.leases, [2]time.Duration{open[d.Node], d.At})
			delete(open, d.Node)
		default:
			continue
		}
		tl.times = append(tl.times, d.At)
		tl.counts = append(tl.counts, cur)
	}
	for _, from := range open {
		tl.leases = append(tl.leases, [2]time.Duration{from, end})
	}
	return tl
}

// nodeSeconds integrates cluster size over [start, end).
func (tl *nodeTimeline) nodeSeconds(start, end time.Duration) float64 {
	var total float64
	for i := range tl.times {
		segStart := tl.times[i]
		segEnd := end
		if i+1 < len(tl.times) {
			segEnd = tl.times[i+1]
		}
		if segStart < start {
			segStart = start
		}
		if segEnd > end {
			segEnd = end
		}
		if segEnd > segStart {
			total += float64(tl.counts[i]) * (segEnd - segStart).Seconds()
		}
	}
	return total
}

// changesIn counts membership changes inside [start, end).
func (tl *nodeTimeline) changesIn(start, end time.Duration) int {
	n := 0
	for _, at := range tl.times[1:] {
		if at >= start && at < end {
			n++
		}
	}
	return n
}

// granularInstanceCost bills every lease in whole BillingGranularity
// units, the per-node equivalent of cost.Pricing.BillFor.
func (tl *nodeTimeline) granularInstanceCost(p cost.Pricing) float64 {
	g := p.BillingGranularity
	if g <= 0 {
		g = time.Hour
	}
	var total float64
	for _, l := range tl.leases {
		dur := l[1] - l[0]
		if dur <= 0 {
			continue
		}
		units := math.Ceil(float64(dur) / float64(g))
		total += units * p.InstanceHour * (float64(g) / float64(time.Hour))
	}
	return total
}
