package kv

import (
	"testing"
	"time"

	"repro/internal/storage"
)

func ver(seq uint64) storage.Version {
	return storage.Version{Timestamp: time.Duration(seq), Seq: seq}
}

func TestOracleJudgeSemantics(t *testing.T) {
	o := NewOracle(3)
	v1, v2 := ver(1), ver(2)

	// Returned the newest acknowledged version: fresh.
	if o.Judge(v1, v1, v1) {
		t.Error("matching version judged stale")
	}
	// Returned older than acknowledged: stale.
	if !o.Judge(v2, v2, v1) {
		t.Error("older version judged fresh")
	}
	// Fresh against acknowledged but missing an in-flight write: fresh,
	// counted as overlap.
	if o.Judge(v1, v2, v1) {
		t.Error("overlap read judged stale")
	}
	stale, fresh, _ := o.Counts()
	if stale != 1 || fresh != 2 {
		t.Errorf("counts: stale=%d fresh=%d", stale, fresh)
	}
	if o.OverlapReads() != 1 {
		t.Errorf("overlap = %d", o.OverlapReads())
	}
	if got := o.StaleRate(); got < 0.33 || got > 0.34 {
		t.Errorf("stale rate = %f", got)
	}
}

func TestOraclePropagationTracking(t *testing.T) {
	o := NewOracle(3)
	v := ver(1)
	o.WriteStarted("k", v, 3, 0)
	if o.InFlight() != 1 {
		t.Fatalf("in flight = %d", o.InFlight())
	}
	o.Applied(0, v, 2*time.Millisecond)
	o.Applied(0, v, 3*time.Millisecond) // duplicate: ignored
	o.Applied(1, v, 5*time.Millisecond)
	o.Applied(2, v, 9*time.Millisecond)
	if o.InFlight() != 0 {
		t.Errorf("in flight after full propagation = %d", o.InFlight())
	}
	if got := o.Propagation().Max(); got < 8*time.Millisecond || got > 10*time.Millisecond {
		t.Errorf("propagation max = %v", got)
	}
	if o.RankDelay(1).Count() != 1 || o.RankDelay(3).Count() != 1 {
		t.Error("rank delays not recorded")
	}
}

func TestOracleVisibleVsIssued(t *testing.T) {
	o := NewOracle(3)
	v1, v2 := ver(1), ver(2)
	o.WriteStarted("k", v1, 3, 0)
	o.WriteVisible("k", v1)
	o.WriteStarted("k", v2, 3, time.Millisecond) // issued, not yet visible
	if o.LatestVisible("k") != v1 {
		t.Errorf("visible = %v", o.LatestVisible("k"))
	}
	if o.LatestIssued("k") != v2 {
		t.Errorf("issued = %v", o.LatestIssued("k"))
	}
	// Acking an older version later must not regress the ledger.
	o.WriteVisible("k", v2)
	o.WriteVisible("k", v1)
	if o.LatestVisible("k") != v2 {
		t.Error("visible regressed")
	}
}
