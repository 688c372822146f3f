package experiments

import (
	"os"
	"testing"

	"repro/internal/behavior"
)

// strength orders the policies a state can be given, weakest first.
func strength(p behavior.Policy) int {
	switch p.Kind {
	case behavior.PolicyEventual:
		return 0
	case behavior.PolicyHarmony:
		return 1
	case behavior.PolicyGeo:
		return 2
	}
	return 3 // PolicyStrong
}

func TestBehaviorStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out, tbl := RunBehavior(smallPlatform(t, "behavior"), 1)
	checkGolden(t, "behavior", 1, tbl)
	if len(tbl.Rows) != 3*len(behaviorDay) {
		t.Fatalf("rows = %d, want 3 variants × %d phases", len(tbl.Rows), len(behaviorDay))
	}
	if len(out.Model.States) < 2 {
		t.Fatalf("the model found %d states in a day of %d phases", len(out.Model.States), len(behaviorDay))
	}
	one, quorum, model := out.Variants[0], out.Variants[1], out.Variants[2]
	for _, v := range out.Variants {
		if len(v.Phases) != len(behaviorDay) {
			t.Fatalf("%s: %d phases", v.Name, len(v.Phases))
		}
		for _, ph := range v.Phases {
			if ph.Metrics.Ops == 0 {
				t.Errorf("%s/%s ran no ops", v.Name, ph.Name)
			}
		}
	}

	// The read-only night is given a weaker policy than the write burst,
	// and each pays off where it should: the burst is no staler than under
	// static ONE, the night no slower than under static QUORUM.
	const night, burst = 0, 3
	states, landed := model.inForce()
	if n, b := states[night].Policy, states[burst].Policy; strength(n) >= strength(b) {
		t.Errorf("night runs under %v, the burst under %v: the night's must be the weaker", n, b)
	}
	if m, o := model.Phases[burst].StaleRate(), one.Phases[burst].StaleRate(); m > o {
		t.Errorf("burst: the model's stale rate %.3f is above static ONE's %.3f", m, o)
	}
	if m, q := model.Phases[night].Metrics.Throughput(), quorum.Phases[night].Metrics.Throughput(); m < q {
		t.Errorf("night: the model's %.0f ops/s is below static QUORUM's %.0f", m, q)
	}

	// The transitions chain from the initial state to the one in force at
	// the end, each inside the day. A transition is explained when the
	// state it leaves was adopted in an earlier phase — the application
	// moved on — and unexplained when the phase that adopted the state
	// also drops it. The four unexplained ones of this run all land in
	// the morning (closed-loop clients make the per-second features depend
	// on the policy in force; EXPERIMENTS.md): the bound is a ratchet.
	trs := model.Classifier.Transitions()
	phaseOf := func(tr behavior.Transition) int {
		for i, ph := range model.Phases {
			if tr.At >= ph.Start && tr.At < ph.End {
				return i
			}
		}
		t.Fatalf("transition %+v lands outside the day", tr)
		return -1
	}
	adopted, unexplained := -1, 0
	for i, tr := range trs {
		if i > 0 && tr.From != trs[i-1].To {
			t.Errorf("transition %d leaves state %d, the previous one entered %d", i, tr.From, trs[i-1].To)
		}
		ph := phaseOf(tr)
		if ph == adopted {
			unexplained++
			if behaviorDay[ph].name != "morning traffic" {
				t.Errorf("unexplained transition %+v in %s", tr, behaviorDay[ph].name)
			}
		}
		adopted = ph
	}
	if unexplained > 4 {
		t.Errorf("%d transitions leave a state in the phase that adopted it, 4 when this was pinned", unexplained)
	}
	if len(trs) > 0 && trs[len(trs)-1].To != model.Classifier.Current().ID {
		t.Errorf("the last transition enters state %d, state %d is in force", trs[len(trs)-1].To, model.Classifier.Current().ID)
	}
	total := 0
	for _, n := range landed {
		total += n
	}
	if total != len(trs) {
		t.Errorf("the table counts %d transitions, the classifier made %d", total, len(trs))
	}
	tbl.Render(os.Stderr)
}
