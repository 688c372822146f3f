package experiments

import (
	"fmt"
	"time"

	"repro/internal/behavior"
	"repro/internal/ycsb"
)

// The behaviour-model study (§III-C, the paper's third contribution): an
// application whose access pattern moves through a day of phases is
// traced on day 1 under ONE/ONE, the offline pipeline turns the trace
// into a timeline, clusters it into states and gives each state a policy,
// and on day 2 — the same day on a fresh deployment — the runtime
// classifier picks the policy per state while static ONE and static
// QUORUM replay the same traffic beside it. Per phase the table reports
// what each variant paid (throughput, read level) for what it got (the
// oracle's stale rate), and how often the classifier changed its mind.

// dayPhase is one stretch of the application's day: its mix, and how
// many operations, closed-loop client threads and records it spans. The
// study scales the three to the platform: the day's 290 000 operations to
// Platform.Ops, its busiest 96 threads to Platform.Threads, its largest
// keyspace of 8 000 records to Platform.Records.
type dayPhase struct {
	name        string
	read, theta float64
	ops         uint64
	threads     int
	records     uint64
}

var behaviorDay = []dayPhase{
	{"overnight analytics", 1.00, 0.80, 40_000, 24, 8000},
	{"morning traffic", 0.85, 0.99, 50_000, 48, 4000},
	{"midday mixed", 0.70, 0.99, 50_000, 64, 2000},
	{"lunchtime burst", 0.50, 0.99, 60_000, 96, 1000},
	{"afternoon traffic", 0.85, 0.99, 50_000, 48, 4000},
	{"evening browsing", 0.93, 0.90, 40_000, 32, 6000},
}

// behaviorPeriod is the timeline's period, two control intervals long:
// the classifier closes one period at every other decision.
const behaviorPeriod = 200 * time.Millisecond

// behaviorVariant is one replay of day 2.
type behaviorVariant struct {
	Name       string
	Static     *behavior.Policy            // the policy a static variant pins
	Classifier *behavior.RuntimeClassifier // what picks the model variant's policy
	Phases     []window
}

// inForce walks the classifier's transitions over the phases: the state
// in force as each phase closed, and how many transitions landed in it;
// nil for a static variant.
func (v behaviorVariant) inForce() (states []*behavior.State, landed []int) {
	if v.Classifier == nil {
		return nil, nil
	}
	trs := v.Classifier.Transitions()
	cur := v.Classifier.Current().ID
	if len(trs) > 0 {
		cur = trs[0].From
	}
	for _, ph := range v.Phases {
		n := 0
		for ; len(trs) > 0 && trs[0].At < ph.End; trs = trs[1:] {
			cur = trs[0].To
			n++
		}
		states = append(states, &v.Classifier.Model.States[cur])
		landed = append(landed, n)
	}
	return states, landed
}

// behaviorOutcome is the study's full measurement.
type behaviorOutcome struct {
	Model    *behavior.Model
	Variants []behaviorVariant // static ONE, static QUORUM, the model
}

// RunBehavior runs the study on platform p.
func RunBehavior(p Platform, seed uint64) (behaviorOutcome, *Table) {
	// Day 1: collect the trace, then fit the model to it.
	rg := newRig(p, seed, nil, nil)
	col := behavior.NewCollector(0)
	rg.cl.AddHooks(col.Hooks())
	runDay(rg)
	trace := col.Trace()
	opts := behavior.DefaultOptions()
	opts.Seed = rg.seed
	model, err := behavior.BuildModel(behavior.BuildTimeline(trace, behaviorPeriod), opts)
	if err != nil {
		panic("experiments: behavior: " + err.Error())
	}
	out := behaviorOutcome{Model: model}

	// Day 2, three times over.
	variants := []behaviorVariant{
		{Name: "static ONE", Static: &behavior.Policy{Kind: behavior.PolicyEventual}},
		{Name: "static QUORUM", Static: &behavior.Policy{Kind: behavior.PolicyStrong}},
		{Name: "model"},
	}
	out.Variants = parallelMap(variants, func(v behaviorVariant) behaviorVariant {
		rg := newRig(p, seed, nil, nil)
		if v.Static != nil {
			rg.control(v.Static.Tuner(rg.cl.RF()), 100*time.Millisecond)
		} else {
			v.Classifier = behavior.NewRuntimeClassifier(model, rg.cl.RF())
			rg.cl.AddHooks(v.Classifier.Hooks())
			rg.control(v.Classifier, 100*time.Millisecond)
		}
		v.Phases = runDay(rg)
		return v
	})

	t := NewTable("Behaviour model (§III-C): a day traced, clustered into states and replayed under the runtime classifier — "+p.Name,
		"variant", "phase", "reads", "state", "policy", "transitions", "throughput(op/s)", "stale", "avg read k")
	for _, v := range out.Variants {
		states, landed := v.inForce()
		for i, ph := range v.Phases {
			state, policy, changes := "-", v.Static, "-"
			if states != nil {
				state = fmt.Sprintf("%d %s", states[i].ID, states[i].Name)
				policy, changes = &states[i].Policy, fmt.Sprint(landed[i])
			}
			t.Add(v.Name, ph.Name, pct(behaviorDay[i].read), state, policy, changes,
				fmt.Sprintf("%.0f", ph.Metrics.Throughput()), pct(ph.StaleRate()), fmt.Sprintf("%.2f", ph.AvgReadK))
		}
	}
	t.Note("day 1: %d operations traced over %v; %d states at silhouette %.3f, period %v",
		len(trace.Ops), trace.Duration().Round(time.Millisecond), len(model.States), model.Silhouette, model.PeriodLen)
	for _, s := range model.States {
		t.Note("state %d %s: %d periods, %s by rule %s; centroid %s",
			s.ID, s.Name, s.Periods, s.Policy, s.RuleName, s.Centroid)
	}
	t.Note("state and policy are the ones in force as the phase closed; transitions counts the classifier's changes of state inside the phase")
	return out, t
}

// runDay preloads the day's largest keyspace, drives behaviorDay's phases
// back to back over rg — under its controller, if it has one — and
// returns their windows.
func runDay(rg *rig) []window {
	p := rg.p
	largest := ycsb.Mix(p.Records, 1, ycsb.DistZipfian, 0.99)
	largest.ValueSize = p.ValueBytes
	rg.preload(largest)
	if rg.ctl != nil {
		rg.ctl.Start()
		defer rg.ctl.Stop()
	}
	var out []window
	for i, d := range behaviorDay {
		w := ycsb.Mix(p.Records*d.records/8000, d.read, ycsb.DistZipfian, d.theta)
		w.ValueSize = p.ValueBytes
		ph := rg.studyPhase(d.name, w, i, 1, nil)
		ph.Ops, ph.Threads = p.Ops*d.ops/290_000, p.Threads*d.threads/96
		out = append(out, rg.run(ph))
	}
	return out
}
