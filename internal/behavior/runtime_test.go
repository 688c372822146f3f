package behavior

import (
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/storage"
)

// buildTwoStateModel fits a model with a read-only state and a
// write-heavy state.
func buildTwoStateModel(t *testing.T) *Model {
	t.Helper()
	tl := BuildTimeline(syntheticTrace(), time.Second)
	m, err := BuildModel(tl, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRuntimeClassifierSwitchesStates(t *testing.T) {
	m := buildTwoStateModel(t)
	rc := NewRuntimeClassifier(m, 3)
	start := rc.Current().ID

	// Feed a write-heavy, read-after-write period through the hooks.
	h := rc.Hooks()
	at := time.Duration(0)
	for i := 0; i < 400; i++ {
		key := "hot"
		if i%2 == 0 {
			h.WriteStarted(at, key, version(i), 3)
		} else {
			h.ReadStarted(at, key)
		}
		at += 2 * time.Millisecond
	}
	// First Decide initializes the period; a Decide after the period end
	// classifies it.
	rc.Decide(monitor.Snapshot{Now: 0})
	d := rc.Decide(monitor.Snapshot{Now: m.PeriodLen + time.Millisecond})
	writeState := rc.Current()
	if writeState.Centroid.ReadRatio > 0.7 {
		t.Fatalf("classifier did not move to the write-heavy state: %+v", writeState.Centroid)
	}
	if writeState.Policy.Kind != PolicyStrong {
		t.Errorf("write state policy = %v", writeState.Policy)
	}
	if d.ReadLevel.Replicas(3) < 2 {
		t.Errorf("strong policy decided level %v", d.ReadLevel)
	}

	// Now a read-only period: classifier must move back.
	for i := 0; i < 300; i++ {
		h.ReadStarted(m.PeriodLen+time.Duration(i)*3*time.Millisecond, keyN(i%100))
	}
	d = rc.Decide(monitor.Snapshot{Now: 2*m.PeriodLen + 2*time.Millisecond})
	readState := rc.Current()
	if readState.Centroid.ReadRatio < 0.9 {
		t.Fatalf("classifier did not return to read state: %+v", readState.Centroid)
	}
	if d.ReadLevel.Replicas(3) != 1 {
		t.Errorf("eventual policy decided level %v", d.ReadLevel)
	}
	if len(rc.Transitions()) < 1 {
		t.Error("no transitions recorded")
	}
	_ = start
}

func TestRuntimeClassifierIgnoresIdlePeriods(t *testing.T) {
	m := buildTwoStateModel(t)
	rc := NewRuntimeClassifier(m, 3)
	before := rc.Current().ID
	// Two empty periods elapse: classification must not flap on noise.
	rc.Decide(monitor.Snapshot{Now: 0})
	rc.Decide(monitor.Snapshot{Now: 3 * m.PeriodLen})
	if rc.Current().ID != before {
		t.Error("idle periods changed the state")
	}
	if len(rc.Transitions()) != 0 {
		t.Error("idle transition recorded")
	}
}

func TestRuntimeClassifierName(t *testing.T) {
	m := buildTwoStateModel(t)
	rc := NewRuntimeClassifier(m, 3)
	if rc.Name() != "behavior-classifier" {
		t.Errorf("name = %s", rc.Name())
	}
}

func keyN(i int) string { return "k" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) }

func version(i int) (v storage.Version) { v.Seq = uint64(i + 1); return }
