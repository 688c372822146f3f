package freshness

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/netsim"
	"repro/internal/sim"
)

type fixture struct {
	eng *sim.Engine
	tr  *netsim.Transport
	cl  *kv.Cluster
}

func newFixture(seed uint64) *fixture {
	eng := sim.New(seed)
	topo := netsim.G5KTwoSites(6)
	tr := netsim.NewTransport(eng, topo)
	cfg := kv.DefaultConfig()
	cfg.Seed = seed
	cfg.HintReplayInterval = 0
	cfg.AntiEntropyInterval = 0
	return &fixture{eng: eng, tr: tr, cl: kv.New(topo, tr, cfg)}
}

func TestComplianceFromOracle(t *testing.T) {
	f := newFixture(1)
	done := 0
	for i := 0; i < 100; i++ {
		f.cl.Write(fmt.Sprintf("k%d", i), []byte("v"), kv.One, func(kv.WriteResult) { done++ })
	}
	f.eng.Run()
	if done != 100 {
		t.Fatalf("writes completed: %d", done)
	}
	// All propagation finished; Bronze (2s) must be fully compliant,
	// and an absurdly tight deadline must not be.
	if c := Compliance(f.cl.Oracle(), Bronze); c < 0.95 {
		t.Errorf("bronze compliance = %f", c)
	}
	tight := Guarantee{Name: "1us", Deadline: time.Microsecond}
	if c := Compliance(f.cl.Oracle(), tight); c > 0.1 {
		t.Errorf("microsecond compliance = %f", c)
	}
}

func TestEnforcerAuditsWrites(t *testing.T) {
	f := newFixture(2)
	inner := kv.StaticSession{Cluster: f.cl, ReadLevel: kv.One, WriteLevel: kv.One}
	enf := NewEnforcer(inner, f.cl, f.tr, Silver)
	done := 0
	for i := 0; i < 50; i++ {
		enf.Write(fmt.Sprintf("k%d", i), []byte("v"), func(kv.WriteResult) { done++ })
	}
	f.eng.Run()
	writes, audits := enf.Stats()
	if writes != 50 || done != 50 {
		t.Fatalf("writes = %d done = %d", writes, done)
	}
	if audits != 50 {
		t.Errorf("audits = %d, want 50", audits)
	}
	// Reads pass through.
	got := false
	enf.Read("k0", func(r kv.ReadResult) { got = r.Exists })
	f.eng.Run()
	if !got {
		t.Error("enforcer read did not pass through")
	}
}

func TestEnforcerRepairsLaggards(t *testing.T) {
	f := newFixture(3)
	// Partition one replica of a known key so it misses the write, then
	// heal before the audit fires: the audit's ALL read repairs it.
	key := "lagging-key"
	reps := f.cl.Strategy().Replicas(key)
	lag := reps[len(reps)-1]
	var others []netsim.NodeID
	for _, id := range f.cl.Topology().Nodes() {
		if id != lag {
			others = append(others, id)
		}
	}
	f.tr.Partition([]netsim.NodeID{lag}, others)

	inner := kv.StaticSession{Cluster: f.cl, ReadLevel: kv.One, WriteLevel: kv.One}
	enf := NewEnforcer(inner, f.cl, f.tr, Bronze)
	var wres kv.WriteResult
	enf.Write(key, []byte("v"), func(r kv.WriteResult) { wres = r })
	f.eng.RunFor(500 * time.Millisecond)
	f.tr.Heal()
	f.eng.Run()

	cell, ok := f.cl.Node(lag).Engine().Peek(key)
	if !ok || cell.Version != wres.Version {
		t.Errorf("audit did not repair laggard: %v want %v", cell.Version, wres.Version)
	}
	if _, audits := enf.Stats(); audits != 1 {
		t.Errorf("audits = %d", audits)
	}
}

func TestGuaranteeString(t *testing.T) {
	if Gold.String() != "gold(≤150ms)" {
		t.Errorf("gold string: %s", Gold.String())
	}
}
