package repro_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro"
)

func TestSimClientRoundtrip(t *testing.T) {
	topo := repro.SingleDC(4)
	cfg := repro.Defaults(topo)
	cfg.Seed = 5
	sim := repro.NewSim(topo, cfg)
	cli := sim.StaticClient(repro.Quorum, repro.Quorum)
	ctx := context.Background()

	w := cli.Put(ctx, "k", []byte("v"))
	if w.Err != nil {
		t.Fatal(w.Err)
	}
	r := cli.Get(ctx, "k")
	if r.Err != nil || string(r.Value) != "v" || r.Stale {
		t.Fatalf("read: %+v", r)
	}
	missing := cli.Get(ctx, "nope", repro.WithLevel(repro.One))
	if missing.Err != nil || missing.Exists {
		t.Fatalf("missing key: %+v", missing)
	}
	d := cli.Delete(ctx, "k")
	if d.Err != nil {
		t.Fatal(d.Err)
	}
	if r := cli.Get(ctx, "k"); r.Exists {
		t.Fatalf("deleted key still visible: %+v", r)
	}
}

func TestSimClientBatchOps(t *testing.T) {
	topo := repro.G5KTwoSites(8)
	cfg := repro.Defaults(topo)
	cfg.Seed = 12
	sim := repro.NewSim(topo, cfg)
	cli := sim.StaticClient(repro.Quorum, repro.Quorum)
	ctx := context.Background()

	ops := []repro.PutOp{
		{Key: "a", Value: []byte("1")},
		{Key: "b", Value: []byte("2")},
		{Key: "c", Value: []byte("3")},
	}
	for i, w := range cli.BatchPut(ctx, ops) {
		if w.Err != nil {
			t.Fatalf("batch put %d: %v", i, w.Err)
		}
	}
	rs := cli.BatchGet(ctx, []string{"a", "b", "c"})
	want := []string{"1", "2", "3"}
	for i, r := range rs {
		if r.Err != nil || string(r.Value) != want[i] {
			t.Fatalf("batch get %d: %+v", i, r)
		}
	}
	// Mixed put+delete batch with a per-op level override.
	mixed := cli.BatchPut(ctx, []repro.PutOp{
		{Key: "a", Delete: true},
		{Key: "d", Value: []byte("4")},
	}, repro.WithLevel(repro.All))
	for i, w := range mixed {
		if w.Err != nil {
			t.Fatalf("mixed batch %d: %v", i, w.Err)
		}
	}
	if r := cli.Get(ctx, "a"); r.Exists {
		t.Errorf("a survived batch delete: %+v", r)
	}
	if r := cli.Get(ctx, "d"); string(r.Value) != "4" {
		t.Errorf("d = %+v", r)
	}
}

func TestSimClientFuturesPipeline(t *testing.T) {
	topo := repro.SingleDC(4)
	cfg := repro.Defaults(topo)
	cfg.Seed = 13
	sim := repro.NewSim(topo, cfg)
	cli := sim.StaticClient(repro.One, repro.One)
	ctx := context.Background()

	// Issue several writes before waiting on any: the futures pipeline
	// through the store concurrently in virtual time.
	futs := []*repro.WriteFuture{
		cli.PutAsync(ctx, "f1", []byte("x")),
		cli.PutAsync(ctx, "f2", []byte("y")),
		cli.PutAsync(ctx, "f3", []byte("z")),
	}
	for i, f := range futs {
		if w := f.Wait(ctx); w.Err != nil {
			t.Fatalf("future %d: %v", i, w.Err)
		}
	}
	g := cli.GetAsync(ctx, "f2")
	if r := g.Wait(ctx); string(r.Value) != "y" {
		t.Fatalf("async get: %+v", r)
	}
	if !g.Ready() {
		t.Error("waited future not ready")
	}
}

func TestClientContextAndDeadline(t *testing.T) {
	topo := repro.SingleDC(4)
	cfg := repro.Defaults(topo)
	cfg.Seed = 14
	sim := repro.NewSim(topo, cfg)
	cli := sim.StaticClient(repro.Quorum, repro.Quorum)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if r := cli.Get(canceled, "k"); !errors.Is(r.Err, repro.ErrCanceled) {
		t.Errorf("canceled ctx: %+v", r)
	}
	// A 1 ns virtual deadline expires before any replica can answer.
	r := cli.Get(context.Background(), "k", repro.WithDeadline(time.Nanosecond))
	if !errors.Is(r.Err, repro.ErrDeadline) {
		t.Errorf("deadline: %+v", r)
	}
	// A generous deadline leaves the result untouched.
	cli.Put(context.Background(), "k", []byte("v"))
	ok := cli.Get(context.Background(), "k", repro.WithDeadline(time.Minute))
	if ok.Err != nil || string(ok.Value) != "v" {
		t.Errorf("deadline no-op: %+v", ok)
	}
}

func TestSimRunWorkloadWithHarmony(t *testing.T) {
	topo := repro.G5KTwoSites(8)
	cfg := repro.Defaults(topo)
	cfg.Seed = 6
	sim := repro.NewSim(topo, cfg)
	cli, ctl := sim.HarmonyClient(0.05)
	m, err := cli.Run(repro.HeavyReadUpdate(1000), repro.RunOptions{Ops: 10000, Threads: 32})
	if err != nil {
		t.Fatal(err)
	}
	if m.Ops != 10000 {
		t.Errorf("ops = %d", m.Ops)
	}
	if m.StaleRate() > 0.075 {
		t.Errorf("stale rate %.3f above tolerance with margin", m.StaleRate())
	}
	if len(ctl.Journal()) == 0 {
		t.Error("controller never ran")
	}
}

func TestSimRunBatchedWorkload(t *testing.T) {
	topo := repro.G5KTwoSites(8)
	cfg := repro.Defaults(topo)
	cfg.Seed = 16
	sim := repro.NewSim(topo, cfg)
	cli := sim.StaticClient(repro.Quorum, repro.Quorum)
	m, err := cli.Run(repro.HeavyReadUpdate(1000), repro.RunOptions{Ops: 8000, Threads: 16, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if m.Ops != 8000 {
		t.Errorf("ops = %d", m.Ops)
	}

	// The same op count unbatched must need more virtual time: batches
	// amortize admission and round trips.
	sim2 := repro.NewSim(topo, cfg)
	cli2 := sim2.StaticClient(repro.Quorum, repro.Quorum)
	m2, err := cli2.Run(repro.HeavyReadUpdate(1000), repro.RunOptions{Ops: 8000, Threads: 16})
	if err != nil {
		t.Fatal(err)
	}
	if m.Throughput() <= m2.Throughput() {
		t.Errorf("batched throughput %.0f not above unbatched %.0f", m.Throughput(), m2.Throughput())
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() (float64, float64) {
		topo := repro.EC2TwoAZ(6)
		cfg := repro.Defaults(topo)
		cfg.Seed = 7
		sim := repro.NewSim(topo, cfg)
		cli := sim.StaticClient(repro.One, repro.One)
		m, err := cli.Run(repro.WorkloadB(500), repro.RunOptions{Ops: 5000, Threads: 16})
		if err != nil {
			t.Fatal(err)
		}
		return m.Throughput(), m.StaleRate()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Errorf("same seed diverged: (%f,%f) vs (%f,%f)", t1, s1, t2, s2)
	}
}

func TestFacadeBehaviorPipeline(t *testing.T) {
	topo := repro.SingleDC(4)
	cfg := repro.Defaults(topo)
	cfg.Seed = 8
	sim := repro.NewSim(topo, cfg)
	col := sim.CollectTrace(0)

	cli := sim.StaticClient(repro.One, repro.One)
	if _, err := cli.Run(repro.WorkloadC(500), repro.RunOptions{Ops: 4000, Threads: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Run(repro.MixWorkload(100, 0.5, 0, 0.99), repro.RunOptions{Ops: 4000, Threads: 16}); err != nil {
		t.Fatal(err)
	}
	tl := repro.BuildTimeline(col.Trace(), 50*time.Millisecond)
	model, err := repro.BuildBehaviorModel(tl, repro.DefaultBehaviorOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(model.States) < 2 {
		t.Errorf("expected ≥2 states, got %d", len(model.States))
	}

	sim2 := repro.NewSim(topo, cfg)
	bcli, ctl := sim2.BehaviorClient(model)
	if _, err := bcli.Run(repro.WorkloadC(500), repro.RunOptions{Ops: 4000, Threads: 16}); err != nil {
		t.Fatal(err)
	}
	if len(ctl.Journal()) == 0 {
		t.Error("behavior session never decided")
	}
}

func TestLiveClient(t *testing.T) {
	topo := repro.SingleDC(4)
	cfg := repro.Defaults(topo)
	cfg.Seed = 9
	lv := repro.NewLive(topo, cfg, 0.2)
	defer lv.Close()
	ctx := context.Background()

	cli := lv.StaticClient(repro.Quorum, repro.One)
	if w := cli.Put(ctx, "k", []byte("v")); w.Err != nil {
		t.Fatal(w.Err)
	}
	if r := cli.Get(ctx, "k"); r.Err != nil || string(r.Value) != "v" {
		t.Fatalf("live read: %+v", r)
	}
	for i, w := range cli.BatchPut(ctx, []repro.PutOp{
		{Key: "b1", Value: []byte("x")},
		{Key: "b2", Value: []byte("y")},
	}) {
		if w.Err != nil {
			t.Fatalf("live batch put %d: %v", i, w.Err)
		}
	}
	rs := cli.BatchGet(ctx, []string{"b1", "b2"}, repro.WithLevel(repro.All))
	if string(rs[0].Value) != "x" || string(rs[1].Value) != "y" {
		t.Fatalf("live batch get: %+v", rs)
	}
	if d := cli.Delete(ctx, "b1"); d.Err != nil {
		t.Fatal(d.Err)
	}

	// A non-default control period goes through AdaptiveSession.
	sess, ctl := lv.AdaptiveSession(repro.NewHarmonyTuner(0.1, lv.Cluster.RF()), 50*time.Millisecond)
	acli := lv.Client(sess)
	acli.Put(ctx, "k2", []byte("x"))
	if r := acli.Get(ctx, "k2"); r.Err != nil {
		t.Fatal(r.Err)
	}
	if ctl == nil {
		t.Fatal("no controller")
	}
}

// exportedMethods maps each exported method of typ to its signature with
// the receiver dropped.
func exportedMethods(typ reflect.Type) map[string]string {
	out := make(map[string]string)
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		var in, res []reflect.Type
		for j := 1; j < m.Type.NumIn(); j++ {
			in = append(in, m.Type.In(j))
		}
		for j := 0; j < m.Type.NumOut(); j++ {
			res = append(res, m.Type.Out(j))
		}
		out[m.Name] = reflect.FuncOf(in, res, m.Type.IsVariadic()).String()
	}
	return out
}

// TestSimLiveMethodSet pins the point of the shared deployment core: apart
// from the backend-specific Run/Now (virtual time) and Close (engine and
// storage), *Sim and *Live export the same methods with the same
// signatures, so the facade cannot drift again.
func TestSimLiveMethodSet(t *testing.T) {
	own := map[string]bool{"Run": true, "Now": true, "Close": true}
	sim := exportedMethods(reflect.TypeOf((*repro.Sim)(nil)))
	live := exportedMethods(reflect.TypeOf((*repro.Live)(nil)))
	if len(sim) < 20 {
		t.Fatalf("only %d methods on *Sim: the core's methods are not promoted", len(sim))
	}
	for name, sig := range sim {
		if own[name] {
			continue
		}
		if lsig, ok := live[name]; !ok {
			t.Errorf("*Sim has %s%s, *Live does not", name, sig[len("func"):])
		} else if lsig != sig {
			t.Errorf("%s: *Sim %s, *Live %s", name, sig, lsig)
		}
	}
	for name, sig := range live {
		if _, ok := sim[name]; !ok && !own[name] {
			t.Errorf("*Live has %s%s, *Sim does not", name, sig[len("func"):])
		}
	}
}

// TestAdaptiveSessionDefaultInterval: a zero interval means the same
// 100 ms control period on both backends.
func TestAdaptiveSessionDefaultInterval(t *testing.T) {
	topo := repro.SingleDC(3)
	cfg := repro.Defaults(topo)
	lv := repro.NewLive(topo, cfg, 0.1)
	defer lv.Close()
	_, simCtl := repro.NewSim(topo, cfg).AdaptiveSession(repro.NewStaticTuner(repro.One, repro.One), 0)
	_, liveCtl := lv.AdaptiveSession(repro.NewStaticTuner(repro.One, repro.One), 0)
	for name, ctl := range map[string]*repro.Controller{"sim": simCtl, "live": liveCtl} {
		if ctl.Interval != 100*time.Millisecond {
			t.Errorf("%s: AdaptiveSession(t, 0) interval = %v, want 100ms", name, ctl.Interval)
		}
	}
}

func TestCountLevelClamp(t *testing.T) {
	if repro.Count(0) != repro.One || repro.Count(1) != repro.One {
		t.Error("Count must clamp to ONE")
	}
}

// TestSimAutoscale drives sustained load at a cluster sitting at the
// provisioning floor and checks the facade-level autoscaler grows it,
// journaling its decisions.
func TestSimAutoscale(t *testing.T) {
	topo := repro.SingleDC(6)
	cfg := repro.Defaults(topo)
	cfg.Seed = 11
	cfg.InitialMembers = []repro.NodeID{0, 1, 2, 3}
	cfg.WarmupDuration = 200 * time.Millisecond
	cfg.AntiEntropyInterval = 500 * time.Millisecond
	s := repro.NewSim(topo, cfg)

	asc := s.Autoscale(repro.AutoscaleConfig{
		// A deliberately small node model: the observed load (smeared
		// over the monitor's 10 s default window) still exceeds what the
		// model says the floor can carry, so the controller must grow.
		NodeType: repro.NodeType{
			Name: "sim", HourlyCost: 0.24, Concurrency: 1,
			ReadServiceMean:  2 * time.Millisecond,
			WriteServiceMean: 2 * time.Millisecond,
		},
		Constraints: repro.ProvisionConstraints{
			RF: 3, ReadLevel: 1, WriteLevel: 1, MaxStaleRate: 1, FailureBudget: 1,
		},
		Pricing:  repro.EC2Pricing2013().PerSecond(),
		Interval: 100 * time.Millisecond,
		Cooldown: 400 * time.Millisecond,
	})
	cli := s.StaticClient(repro.One, repro.One)
	if _, err := cli.Run(repro.WorkloadB(500), repro.RunOptions{Ops: 40_000, Threads: 64}); err != nil {
		t.Fatal(err)
	}
	s.Run(2 * time.Second)
	asc.Stop()

	if len(asc.Log()) == 0 {
		t.Fatal("no autoscale decisions journaled")
	}
	joined := false
	for _, d := range asc.Log() {
		if d.Action == repro.AutoscaleJoin {
			joined = true
		}
	}
	if !joined {
		t.Fatalf("sustained load at the floor never scaled up; members=%d", len(s.Members()))
	}
	if got := len(s.Members()); got <= 4 {
		t.Fatalf("members = %d after autoscaling, want > 4", got)
	}
}
