package experiments

import (
	"os"
	"testing"
)

func TestGossipStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	outcomes, tbl := RunGossip(smallPlatform(t, "gossip"), 1)
	checkGolden(t, "gossip", 1, tbl)
	if len(tbl.Rows) != 2*6 {
		t.Fatalf("rows = %d, want 2 variants × 6 phases", len(tbl.Rows))
	}
	byName := map[string]gossipOutcome{}
	for _, out := range outcomes {
		byName[out.Variant.Name] = out
		if len(out.Phases) != 6 {
			t.Fatalf("%s: phases = %d", out.Variant.Name, len(out.Phases))
		}
		for _, ph := range out.Phases {
			if ph.Metrics.Ops == 0 {
				t.Errorf("%s/%s ran no ops", out.Variant.Name, ph.Name)
			}
		}
		// Every variant ends at six members with the churn healed.
		if last := out.Phases[len(out.Phases)-1]; last.Members != 6 {
			t.Errorf("%s: settled members = %d, want 6", out.Variant.Name, last.Members)
		}
		if out.Converge < 0 {
			t.Errorf("%s: views never converged after the join", out.Variant.Name)
		}
		// Both variants hold the Harmony staleness target over the run.
		if out.WholeRunStale > 0.10 {
			t.Errorf("%s: whole-run stale %.3f breaches α=10%%", out.Variant.Name, out.WholeRunStale)
		}
		// Stale coordinators must never have read an un-warmed replica
		// while enough converged alternatives existed.
		if out.Usage.WarmViolations != 0 {
			t.Errorf("%s: %d warm-routing violations", out.Variant.Name, out.Usage.WarmViolations)
		}
	}

	// The gossip variant must actually exercise the machinery: probe
	// rounds, disseminated ring events, and a suspicion storm that ages
	// into death verdicts when the storm node fails.
	g := byName["gossip"]
	if g.Usage.GossipRounds == 0 || g.Usage.GossipEvents == 0 {
		t.Errorf("gossip variant ran no dissemination: %+v", g.Usage)
	}
	if g.Usage.GossipSuspicions == 0 || g.Usage.GossipDeadDeclared == 0 {
		t.Errorf("failure storm raised no suspicions/verdicts: suspicions=%d dead=%d",
			g.Usage.GossipSuspicions, g.Usage.GossipDeadDeclared)
	}
	// The atomic baseline has none of it.
	a := byName["atomic"]
	if a.Usage.GossipRounds != 0 || a.Usage.NotOwnerReplies != 0 || a.Usage.WrongOwnerRetries != 0 {
		t.Errorf("atomic variant leaked gossip activity: %+v", a.Usage)
	}
	tbl.Render(os.Stderr)
}
