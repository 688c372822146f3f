package experiments

import "testing"

func TestElasticityStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	outcomes, tbl := RunElasticity(smallPlatform(t, "elasticity"), 1)
	checkGolden(t, "elasticity", 1, tbl)
	if len(tbl.Rows) != 4*6 {
		t.Fatalf("rows = %d, want 4 variants × 6 phases", len(tbl.Rows))
	}
	byName := map[string]elasticityOutcome{}
	for _, out := range outcomes {
		byName[out.Variant.Name] = out
		// Every variant ends settled at members+1 = 4.
		last := out.Phases[len(out.Phases)-1]
		if last.Members != 4 {
			t.Errorf("%s: settled members = %d, want 4", out.Variant.Name, last.Members)
		}
		if out.Usage.Joins != 2 || out.Usage.Decommissions != 1 {
			t.Errorf("%s: joins=%d decommissions=%d", out.Variant.Name, out.Usage.Joins, out.Usage.Decommissions)
		}
		for i, d := range out.Convergence {
			if d < 0 {
				t.Errorf("%s: join %d never converged", out.Variant.Name, i)
			}
		}
	}
	for _, name := range []string{"stream+warm", "stream+cold"} {
		if byName[name].Usage.StreamedCells == 0 {
			t.Errorf("%s streamed nothing", name)
		}
	}
	// The ablation still streams the decommission handoff (only Join
	// streaming is ablated), so it must move strictly fewer cells.
	for _, name := range []string{"ae-only+warm", "ae-only+cold"} {
		if got, full := byName[name].Usage.StreamedCells, byName["stream+warm"].Usage.StreamedCells; got >= full {
			t.Errorf("%s streamed %d cells, full variant %d — the ablation must move less", name, got, full)
		}
	}

	// The headline claims, pinned on the deterministic seed:
	// 1. snapshot streaming converges joins measurably faster than the
	//    hints+AE-only ablation;
	stream, ae := byName["stream+warm"], byName["ae-only+warm"]
	for i := range stream.Convergence {
		if ae.Convergence[i] >= 0 && stream.Convergence[i]*2 > ae.Convergence[i] {
			t.Errorf("join %d: streaming converged in %v, ablation %v — want streaming ≥2× faster",
				i, stream.Convergence[i], ae.Convergence[i])
		}
	}
	// 2. warming-aware routing lowers the stale-read rate across the
	//    join phases where the joiner is still empty (the ablation, where
	//    routing is the only protection).
	joinStale := func(out elasticityOutcome) float64 {
		return out.Phases[1].StaleRate() + out.Phases[2].StaleRate()
	}
	if warm, cold := joinStale(byName["ae-only+warm"]), joinStale(byName["ae-only+cold"]); warm >= cold {
		t.Errorf("join-phase stale rate: warm %.4f vs cold %.4f — warming must lower it", warm, cold)
	}
}
