package experiments

import (
	"os"
	"testing"

	"repro/internal/netsim"
)

// Ablation smoke tests run at a small scale and assert the orderings the
// ablation tables are meant to show.

func TestAblationDigestReadsCutsTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	p := EC2Cost()
	p.Threads = 64
	results, table := RunAblationDigestReads(p.Scaled(0.004), 5)
	if testing.Verbose() {
		table.Render(os.Stderr)
	}
	with := results[0].Traffic.Bytes[netsim.InterDC] + results[0].Traffic.Bytes[netsim.IntraDC]
	without := results[1].Traffic.Bytes[netsim.InterDC] + results[1].Traffic.Bytes[netsim.IntraDC]
	if float64(with) > float64(without)*0.8 {
		t.Errorf("digest reads should cut replica traffic substantially: %d vs %d bytes", with, without)
	}
}

func TestAblationPerKeyHoldsLowerLevels(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	p := G5KHarmony()
	results, table := RunAblationPerKeyRates(p.Scaled(0.004), 0.20, 5)
	if testing.Verbose() {
		table.Render(os.Stderr)
	}
	agg, per := results[0], results[1]
	if per.AvgReadK > agg.AvgReadK+0.01 {
		t.Errorf("per-key estimator should not hold higher levels: %.2f vs %.2f",
			per.AvgReadK, agg.AvgReadK)
	}
	if per.Metrics.StaleRate() > 0.20*1.5 {
		t.Errorf("per-key estimator exceeded tolerance: %.3f", per.Metrics.StaleRate())
	}
}

func TestExtensionsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	p := EC2Harmony()
	p.Threads = 48
	sp := p.Scaled(0.002)
	if table := RunExtProvisioning(5); len(table.Rows) == 0 {
		t.Error("provisioning table empty")
	}
	if table := RunExtFreshness(sp, 5); len(table.Rows) != 3 {
		t.Errorf("freshness table rows = %d, want 3", len(table.Rows))
	}
}
