package experiments

import (
	"testing"

	"repro/internal/autoscale"
)

func TestAutoscaleStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	outcomes, tbl := RunAutoscale(smallPlatform(t, "autoscale"), 1)
	checkGolden(t, "autoscale", 1, tbl)
	if len(outcomes) != 3 {
		t.Fatalf("outcomes = %d", len(outcomes))
	}
	byName := map[string]AutoscaleOutcome{}
	for _, out := range outcomes {
		byName[out.Variant] = out
		if len(out.Phases) != 4 {
			t.Fatalf("%s: %d phases, want 4", out.Variant, len(out.Phases))
		}
	}
	if len(tbl.Rows) != 3*4 {
		t.Fatalf("rows = %d, want 3 variants × 4 phases", len(tbl.Rows))
	}
	min, peak, auto := byName["static-min"], byName["static-peak"], byName["autoscale"]

	// Static deployments must not change membership.
	if mu, pu := min.Usage, peak.Usage; mu.Joins+mu.Decommissions+pu.Joins+pu.Decommissions != 0 {
		t.Fatalf("static variants changed membership: min %d/%d peak %d/%d",
			mu.Joins, mu.Decommissions, pu.Joins, pu.Decommissions)
	}
	// The controller must have both grown the cluster for the peak and
	// shrunk it again when the load receded.
	if auto.Usage.Joins == 0 {
		t.Error("autoscale never scaled up")
	}
	if auto.Usage.Decommissions == 0 {
		t.Error("autoscale never scaled down")
	}
	peakMembers := 0
	for _, ph := range auto.Phases {
		if ph.Members > peakMembers {
			peakMembers = ph.Members
		}
	}
	if peakMembers <= 4 {
		t.Errorf("autoscale peak membership = %d, never left the floor", peakMembers)
	}

	// The pinned headline relations (deterministic seed):
	// 1. the autoscaled run bills less than static-peak — elasticity
	//    converts idle capacity into money;
	if a, p := auto.TotalBill.Total(), peak.TotalBill.Total(); a >= p {
		t.Errorf("autoscale bill $%.4f ≥ static-peak $%.4f", a, p)
	}
	// 2. while keeping the stale rate within the study's constraint
	//    (α=10%, the same bound Harmony and the provisioning
	//    constraints enforce).
	if auto.StaleRate > autoscaleAlpha {
		t.Errorf("autoscale stale rate %.4f above the α=%.2f constraint", auto.StaleRate, autoscaleAlpha)
	}
	// 3. and cheaper-than-peak must not come from undershooting work:
	//    every variant ran the same phase operation counts.
	for i := range auto.Phases {
		if a, p := auto.Phases[i].Metrics.Ops, peak.Phases[i].Metrics.Ops; a != p {
			t.Errorf("phase %d ops differ: autoscale %d vs static-peak %d", i, a, p)
		}
	}

	// Node-time sanity: autoscale spent less node-time than static-peak
	// and at least the floor's worth.
	nodeSeconds := func(o AutoscaleOutcome) (s float64) {
		for _, ph := range o.Phases {
			s += ph.NodeSeconds
		}
		return s
	}
	if a, p := nodeSeconds(auto), nodeSeconds(peak); a >= p {
		t.Errorf("autoscale node·s %.1f ≥ static-peak %.1f", a, p)
	}
}

// TestAutoscaleDeterministic pins the controller end to end: the same
// seed must reproduce the identical decision log.
func TestAutoscaleDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := smallPlatform(t, "autoscale")
	format := func(ds []autoscale.Decision) []string {
		var lines []string
		for _, d := range ds {
			lines = append(lines, d.String())
		}
		return lines
	}
	a := format(runAutoscaleVariant(p, autoscaleVariant{Name: "autoscale", Size: 4, Auto: true}, 1).Decisions)
	b := format(runAutoscaleVariant(p, autoscaleVariant{Name: "autoscale", Size: 4, Auto: true}, 1).Decisions)
	if len(a) == 0 {
		t.Fatal("no decisions logged")
	}
	if len(a) != len(b) {
		t.Fatalf("decision logs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision logs diverge at %d:\n  a: %s\n  b: %s", i, a[i], b[i])
		}
	}
}
