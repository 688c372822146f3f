package repro_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro"
)

// driveScript runs a fixed operation script through any Client and
// returns a result transcript: the unified API must make the simulated
// and live backends indistinguishable to the caller.
func driveScript(t *testing.T, cli repro.Client) []string {
	t.Helper()
	ctx := context.Background()
	var log []string
	record := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }

	for i := 0; i < 8; i++ {
		w := cli.Put(ctx, fmt.Sprintf("user%02d", i), []byte(fmt.Sprintf("profile-%d", i)))
		record("put user%02d err=%v", i, w.Err)
	}
	ops := make([]repro.PutOp, 6)
	for i := range ops {
		ops[i] = repro.PutOp{Key: fmt.Sprintf("item%02d", i), Value: []byte(fmt.Sprintf("sku-%d", i))}
	}
	for i, w := range cli.BatchPut(ctx, ops) {
		record("batchput item%02d err=%v", i, w.Err)
	}
	for i := 0; i < 8; i++ {
		r := cli.Get(ctx, fmt.Sprintf("user%02d", i))
		record("get user%02d val=%q exists=%v stale=%v err=%v", i, r.Value, r.Exists, r.Stale, r.Err)
	}
	keys := []string{"item00", "item01", "item02", "item03", "item04", "item05", "ghost"}
	for _, r := range cli.BatchGet(ctx, keys) {
		record("batchget %s val=%q exists=%v stale=%v err=%v", r.Key, r.Value, r.Exists, r.Stale, r.Err)
	}
	cli.Delete(ctx, "user03")
	for i, w := range cli.BatchPut(ctx, []repro.PutOp{{Key: "item01", Delete: true}, {Key: "item06", Value: []byte("sku-6")}}) {
		record("mixed %d err=%v", i, w.Err)
	}
	for _, k := range []string{"user03", "item01", "item06"} {
		r := cli.Get(ctx, k)
		record("reget %s val=%q exists=%v stale=%v err=%v", k, r.Value, r.Exists, r.Stale, r.Err)
	}
	return log
}

// parityModel fits a small behaviour model from a simulated run, for the
// Behavior flavour of TestSimLiveParity.
func parityModel(t *testing.T, topo *repro.Topology, cfg repro.Config) *repro.BehaviorModel {
	t.Helper()
	sim := repro.NewSim(topo, cfg)
	col := sim.CollectTrace(0)
	cli := sim.StaticClient(repro.One, repro.One)
	for _, w := range []repro.Workload{repro.WorkloadC(200), repro.MixWorkload(100, 0.5, 0, 0.99)} {
		if _, err := cli.Run(w, repro.RunOptions{Ops: 3000, Threads: 16}); err != nil {
			t.Fatal(err)
		}
	}
	model, err := repro.BuildBehaviorModel(repro.BuildTimeline(col.Trace(), 50*time.Millisecond), 1)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// parityBackend is the facade surface TestSimLiveParity drives: the
// deployment core, as both *Sim and *Live expose it.
type parityBackend interface {
	StaticClient(read, write repro.Level) repro.Client
	HarmonyClient(alpha float64) (repro.Client, *repro.Controller)
	HarmonyHotClient(alpha float64) (repro.Client, *repro.Controller)
	BismarClient(dep repro.Deployment) (repro.Client, *repro.Controller)
	BehaviorClient(m *repro.BehaviorModel) (repro.Client, *repro.Controller)
	StaleRate() float64
}

// TestSimLiveParity drives the identical script through both backends on
// the same topology and seed, once per session flavour. Every operation
// must succeed on both. At QUORUM/QUORUM (R+W > RF) every read is fresh,
// so the transcripts — values, existence, oracle staleness verdicts,
// errors — must agree exactly and both oracles must account a zero stale
// rate. Under a tuner the level in force, and so whether a read may be
// stale, depends on control-loop timing the backends do not share: there
// the transcripts must agree on every line the oracle flagged stale on
// neither side, and the controller must have decided on both.
func TestSimLiveParity(t *testing.T) {
	topo := repro.SingleDC(4)
	cfg := repro.Defaults(topo)
	cfg.Seed = 77
	cfg.HotCache = true // lets the HarmonyHot flavour see a hot set
	model := parityModel(t, topo, cfg)
	dep := repro.Deployment{
		Nodes: 4, RF: cfg.RF, Threads: 1, Concurrency: 4,
		ReadServiceMean: time.Millisecond, WriteServiceMean: time.Millisecond,
		CoordMean: 100 * time.Microsecond, ClientRTT: 400 * time.Microsecond,
		ValueBytes: 16, DatasetBytes: 1 << 20, Pricing: repro.EC2Pricing2013(),
	}

	flavours := []struct {
		name   string
		client func(parityBackend) (repro.Client, *repro.Controller)
	}{
		{"static", func(b parityBackend) (repro.Client, *repro.Controller) {
			return b.StaticClient(repro.Quorum, repro.Quorum), nil
		}},
		{"harmony", func(b parityBackend) (repro.Client, *repro.Controller) { return b.HarmonyClient(0.05) }},
		{"harmonyhot", func(b parityBackend) (repro.Client, *repro.Controller) { return b.HarmonyHotClient(0.05) }},
		{"bismar", func(b parityBackend) (repro.Client, *repro.Controller) { return b.BismarClient(dep) }},
		{"behavior", func(b parityBackend) (repro.Client, *repro.Controller) { return b.BehaviorClient(model) }},
	}
	for _, fl := range flavours {
		t.Run(fl.name, func(t *testing.T) {
			lv := repro.NewLive(topo, cfg, 0.05) // latency-scaled 20× faster
			defer lv.Close()
			drive := func(name string, b parityBackend) []string {
				cli, ctl := fl.client(b)
				log := driveScript(t, cli)
				for _, line := range log {
					if !strings.HasSuffix(line, "err=<nil>") {
						t.Errorf("%s: %s", name, line)
					}
				}
				if ctl == nil {
					if sr := b.StaleRate(); sr != 0 {
						t.Errorf("%s: oracle stale rate = %f, want 0 at quorum", name, sr)
					}
				} else if len(ctl.Journal()) == 0 {
					t.Errorf("%s: controller never decided", name)
				}
				return log
			}
			simLog, liveLog := drive("sim", repro.NewSim(topo, cfg)), drive("live", lv)
			if len(simLog) != len(liveLog) {
				t.Fatalf("transcript lengths differ: sim %d vs live %d", len(simLog), len(liveLog))
			}
			for i := range simLog {
				if strings.Contains(simLog[i]+liveLog[i], "stale=true") {
					continue // only a tuner-chosen level can get here (checked above)
				}
				if simLog[i] != liveLog[i] {
					t.Errorf("transcript %d differs:\n  sim:  %s\n  live: %s", i, simLog[i], liveLog[i])
				}
			}
		})
	}
}

// TestSimLiveWorkloadParity runs the same workload definition through
// both backends' unified clients and checks the stale-rate accounting
// agrees: the metrics' stale/fresh tallies must cover every successful
// read, and at QUORUM both backends must serve only fresh reads.
func TestSimLiveWorkloadParity(t *testing.T) {
	topo := repro.SingleDC(4)
	cfg := repro.Defaults(topo)
	cfg.Seed = 78
	w := repro.HeavyReadUpdate(200)
	opts := repro.RunOptions{Ops: 1500, Threads: 8, BatchSize: 4}

	check := func(name string, m *repro.Metrics) {
		t.Helper()
		if m.Ops != opts.Ops {
			t.Errorf("%s: ops = %d, want %d", name, m.Ops, opts.Ops)
		}
		successful := m.StaleReads + m.FreshReads
		failed := m.Timeouts + m.Unavailable
		if successful+failed != m.Reads {
			t.Errorf("%s: stale accounting gap: %d stale+fresh, %d failed, %d reads",
				name, successful, failed, m.Reads)
		}
		if m.StaleReads != 0 {
			t.Errorf("%s: %d stale reads at quorum", name, m.StaleReads)
		}
	}

	sim := repro.NewSim(topo, cfg)
	sm, err := sim.StaticClient(repro.Quorum, repro.Quorum).Run(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	check("sim", sm)

	lv := repro.NewLive(topo, cfg, 0.02)
	defer lv.Close()
	lm, err := lv.StaticClient(repro.Quorum, repro.Quorum).Run(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	check("live", lm)
}

// TestSimServingCounterParity drives one operation sequence — single-key
// and batch, reads, writes and deletes — through the simulator and
// through a direct-mode serving deployment. Both run the one client path
// (slab ops, value-carried admissions and stage work) over the same
// event queue, so with the store quiescent between operations the work
// they do must agree to the message: coordinated operations, replica
// reads and replica writes (read repairs, seeded per node, included).
func TestSimServingCounterParity(t *testing.T) {
	topo := repro.SingleDC(3)
	cfg := repro.ServingDefaults(topo)
	cfg.Seed = 79
	cfg.HintReplayInterval = 0 // lets the simulator's queue drain between operations

	sim := repro.NewSim(topo, cfg)
	serving, err := repro.NewServing(topo, cfg, repro.ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer serving.Close()

	script := func(cli repro.Client, settle func()) {
		ctx := context.Background()
		for i := 0; i < 40; i++ {
			key := fmt.Sprintf("user%02d", i%12)
			switch {
			case i%3 == 0:
				cli.Put(ctx, key, []byte(fmt.Sprintf("v%d", i)))
			case i%10 == 7:
				cli.Delete(ctx, key)
			default:
				cli.Get(ctx, key)
			}
			settle()
		}
		cli.BatchPut(ctx, []repro.PutOp{{Key: "a", Value: []byte("1")}, {Key: "b", Value: []byte("2")}, {Key: "user01", Delete: true}})
		settle()
		cli.BatchGet(ctx, []string{"a", "b", "user01", "ghost"})
		settle()
	}
	script(sim.StaticClient(repro.Quorum, repro.Quorum), sim.Engine.Run)
	script(serving.StaticClient(repro.Quorum, repro.Quorum), func() {})

	su, lu := sim.Cluster.Usage(), sim.Cluster.Usage()
	serving.Engine.Do(func() { lu = serving.Cluster.Usage() })
	if su.CoordOps == 0 || su.ReplicaReads == 0 || su.ReplicaWrites == 0 {
		t.Fatalf("script did no work: %+v", su)
	}
	if su.CoordOps != lu.CoordOps || su.ReplicaReads != lu.ReplicaReads ||
		su.ReplicaWrites != lu.ReplicaWrites || su.ReadRepairs != lu.ReadRepairs {
		t.Errorf("counters diverge:\n  sim:     coord=%d reads=%d writes=%d repairs=%d\n  serving: coord=%d reads=%d writes=%d repairs=%d",
			su.CoordOps, su.ReplicaReads, su.ReplicaWrites, su.ReadRepairs,
			lu.CoordOps, lu.ReplicaReads, lu.ReplicaWrites, lu.ReadRepairs)
	}
}
