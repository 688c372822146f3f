package experiments

import (
	"os"
	"testing"

	"repro/internal/storage"
)

func TestRecoveryStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tbl := RunRecovery(smallPlatform(t, "recovery"), 1)
	checkGolden(t, "recovery", 1, tbl)
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d, want 2 engines × 4 phases", len(tbl.Rows))
	}
	phases := []string{"steady", "outage", "catch-up", "converged"}
	for i, row := range tbl.Rows {
		wantEngine := "mem"
		if i >= 4 {
			wantEngine = "lsm"
		}
		if row[0] != wantEngine || row[1] != phases[i%4] {
			t.Fatalf("row %d = %v, want engine %s phase %s", i, row, wantEngine, phases[i%4])
		}
	}
	tbl.Render(os.Stderr)
}

// TestRecoveryVariantMeasuresRecovery pins the mechanism: the LSM
// variant must actually recover durable state at restart, the mem
// variant must not, and both must converge back to serving.
func TestRecoveryVariantMeasuresRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := smallPlatform(t, "recovery")

	mem := runRecoveryVariant(p, storage.Mem, 1)
	if mem.Recover.WALRecords != 0 || mem.Recover.RunEntries != 0 || mem.Recover.Keys != 0 {
		t.Fatalf("mem engine recovered state from nowhere: %+v", mem.Recover)
	}
	if mem.Usage.Crashes != 1 || mem.Usage.WALReplays != 1 {
		t.Fatalf("mem usage: %+v", mem.Usage)
	}

	lsm := runRecoveryVariant(p, storage.LSM, 1)
	if lsm.Recover.Keys == 0 {
		t.Fatalf("lsm engine recovered nothing: %+v", lsm.Recover)
	}
	if lsm.Usage.WALBytes == 0 || lsm.Usage.WALSyncs == 0 {
		t.Fatalf("lsm WAL never exercised: %+v", lsm.Usage)
	}
	for _, out := range []recoveryOutcome{mem, lsm} {
		if len(out.Phases) != 4 {
			t.Fatalf("%v phases = %d", out.Engine, len(out.Phases))
		}
		for _, ph := range out.Phases {
			if ph.Metrics.Ops == 0 {
				t.Fatalf("%v phase %s ran no ops", out.Engine, ph.Name)
			}
			if ph.StaleRate() < 0 || ph.StaleRate() > 1 {
				t.Fatalf("%v phase %s stale rate %f", out.Engine, ph.Name, ph.StaleRate())
			}
		}
	}
}
