package experiments

import (
	"os"
	"testing"
)

func TestHotKeyStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	outcomes, tbl := RunHotKey(smallPlatform(t, "hotkey"), 1)
	checkGolden(t, "hotkey", 1, tbl)
	if len(tbl.Rows) != 3*3 {
		t.Fatalf("rows = %d, want 3 variants × 3 phases", len(tbl.Rows))
	}
	byName := map[string]hotKeyOutcome{}
	for _, out := range outcomes {
		byName[out.Variant.Name] = out
		if len(out.Phases) != 3 {
			t.Fatalf("%s: phases = %d", out.Variant.Name, len(out.Phases))
		}
		for _, ph := range out.Phases {
			if ph.Metrics.Ops == 0 {
				t.Errorf("%s/%s ran no ops", out.Variant.Name, ph.Name)
			}
			// The headline guarantee: every phase — steady, hot-set
			// shift, write burst on the head key — holds the same α the
			// no-cache baseline tunes for.
			if ph.StaleRate() > hotKeyAlpha {
				t.Errorf("%s/%s: stale %.3f breaches α=%.0f%%",
					out.Variant.Name, ph.Name, ph.StaleRate(), 100*hotKeyAlpha)
			}
		}
		if out.WholeRunStale > hotKeyAlpha {
			t.Errorf("%s: whole-run stale %.3f breaches α", out.Variant.Name, out.WholeRunStale)
		}
	}

	base, cached, hot := byName["no-cache"], byName["cache"], byName["cache+hot"]

	// The baseline must not touch any cache machinery.
	if base.Usage.CacheHits != 0 || base.Usage.CacheFills != 0 || base.Usage.HotPromotions != 0 {
		t.Errorf("no-cache variant leaked cache activity: %+v", base.Usage)
	}
	// The cache variants must exercise it: promotions, fills, hits, and
	// write-invalidations under the 5% update mix.
	for _, out := range []hotKeyOutcome{cached, hot} {
		u := out.Usage
		if u.HotPromotions == 0 || u.CacheFills == 0 || u.CacheHits == 0 {
			t.Errorf("%s: cache never engaged: promotions=%d fills=%d hits=%d",
				out.Variant.Name, u.HotPromotions, u.CacheFills, u.CacheHits)
		}
		if u.CacheInvalidations == 0 {
			t.Errorf("%s: writes never invalidated cache entries", out.Variant.Name)
		}
		// The shift phase must churn the hot set.
		if u.HotDemotions == 0 {
			t.Errorf("%s: hot-set shift demoted nothing", out.Variant.Name)
		}
		// The write burst must collapse the head key's freshness bound
		// hard enough that entries expire instead of being served.
		if u.CacheExpired == 0 {
			t.Errorf("%s: burst expired no cache entries", out.Variant.Name)
		}
	}
	// Cache hits send no replica messages, so the plain cache variant's
	// steady phase must be cheaper per operation than the baseline, and
	// its read tail must improve with the shed replica load.
	if c, b := msgsPerOp(cached.Phases[0]), msgsPerOp(base.Phases[0]); c >= b {
		t.Errorf("cache: steady msgs/op %.2f not below no-cache %.2f", c, b)
	}
	if c, b := cached.Phases[0].Metrics.ReadLat.Quantile(0.99), base.Phases[0].Metrics.ReadLat.Quantile(0.99); c >= b {
		t.Errorf("cache: steady read p99 %v not below no-cache %v", c, b)
	}
	// Per-key levels spend latency on write-hot keys to buy consistency:
	// the hot variant must serve fewer oracle-stale reads than the plain
	// cache over the whole run.
	if hot.WholeRunStale >= cached.WholeRunStale {
		t.Errorf("cache+hot: whole-run stale %.3f not below plain cache %.3f",
			hot.WholeRunStale, cached.WholeRunStale)
	}
	tbl.Render(os.Stderr)
}
