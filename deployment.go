package repro

import (
	"cmp"
	"context"
	"time"

	"repro/internal/autoscale"
	"repro/internal/behavior"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/monitor"
	"repro/internal/ycsb"
)

// backend is everything the simulated and the live deployment do
// differently; the rest of the facade is written once, on deployment.
type backend interface {
	// Do runs fn with exclusive access to the store: inline under the
	// single-threaded simulator, holding the engine lock live.
	Do(fn func())
	// await returns nil once done is closed, else why it gave up. The
	// simulator steps virtual time on the caller's goroutine; live blocks.
	await(ctx context.Context, done <-chan struct{}) error
	// deadline runs fail after d: virtual time, or unscaled wall time live.
	deadline(d time.Duration, fail func())
	// awaitRun waits for a workload runner to close done.
	awaitRun(done <-chan struct{}) error
}

// deployment is the one wiring of store, monitor and adaptive middleware
// that Sim and Live embed. On Live its methods are safe from any
// goroutine; on Sim they run on the one goroutine driving the simulation.
type deployment struct {
	Cluster *kv.Cluster
	Monitor *monitor.Monitor

	tr kv.Transport // the clock and network the store was built on
	be backend
}

// build wires a cluster and its monitor onto tr. The store calls tr
// itself, with nothing forwarding in between; be carries the facade's calls.
func build(topo *Topology, cfg Config, tr kv.Transport, be backend) deployment {
	d := deployment{tr: tr, be: be}
	be.Do(func() {
		d.Cluster = kv.New(topo, tr, cfg)
		d.Monitor = monitor.New(d.Cluster.RF(), tr, monitor.DefaultOptions())
		d.Cluster.AddHooks(d.Monitor.Hooks())
	})
	return d
}

// query reads store state under Do.
func query[T any](d *deployment, read func() T) (v T) {
	d.be.Do(func() { v = read() })
	return v
}

// Client wraps a session in the unified Client API.
func (d *deployment) Client(sess Session) Client { return &client{d: d, sess: sess} }

func (d *deployment) clientFor(sess Session, ctl *Controller) (Client, *Controller) {
	return d.Client(sess), ctl
}

// StaticClient returns a client pinned to fixed levels.
func (d *deployment) StaticClient(read, write Level) Client {
	return d.Client(d.StaticSession(read, write))
}

// HarmonyClient returns a client whose levels Harmony re-tunes to keep
// the stale-read rate under alpha, with the controller driving it.
func (d *deployment) HarmonyClient(alpha float64) (Client, *Controller) {
	return d.clientFor(d.AdaptiveSession(NewHarmonyTuner(alpha, d.Cluster.RF()), 0))
}

// HarmonyHotClient is HarmonyClient with the hot-key-aware tuner (see
// NewHarmonyHotTuner; the hot set needs Config.HotCache to populate).
func (d *deployment) HarmonyHotClient(alpha float64) (Client, *Controller) {
	return d.clientFor(d.AdaptiveSession(NewHarmonyHotTuner(alpha, d.Cluster), 0))
}

// BismarClient returns a client whose levels Bismar re-prices for
// consistency-cost efficiency, with the controller driving it.
func (d *deployment) BismarClient(dep Deployment) (Client, *Controller) {
	return d.clientFor(d.AdaptiveSession(NewBismarTuner(dep), 0))
}

// BehaviorClient returns a client driven by a fitted behaviour model's
// runtime classifier — its feature hooks wired into the cluster — with
// the controller driving it.
func (d *deployment) BehaviorClient(m *BehaviorModel) (Client, *Controller) {
	rc := behavior.NewRuntimeClassifier(m, d.Cluster.RF())
	d.be.Do(func() { d.Cluster.AddHooks(rc.Hooks()) })
	return d.clientFor(d.AdaptiveSession(rc, 0))
}

// StaticSession returns a session pinned to fixed levels. Sessions assume
// exclusive store access: drive them through Client (or inside Engine.Do).
func (d *deployment) StaticSession(read, write Level) Session {
	return kv.StaticSession{Cluster: d.Cluster, ReadLevel: read, WriteLevel: write}
}

// AdaptiveSession starts a controller that re-evaluates t every interval
// (0 means 100 ms) and returns the adaptive session with its controller.
func (d *deployment) AdaptiveSession(t Tuner, interval time.Duration) (sess Session, ctl *Controller) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	d.be.Do(func() {
		ctl = core.NewController(d.Monitor, t, d.tr, interval)
		ctl.Start()
		sess = ctl.Session(d.Cluster)
	})
	return sess, ctl
}

// CollectTrace records an access trace of everything the cluster serves
// from now on (§III-C's collection step).
func (d *deployment) CollectTrace(limit int) *behavior.Collector {
	col := behavior.NewCollector(limit)
	d.be.Do(func() { d.Cluster.AddHooks(col.Hooks()) })
	return col
}

// Preload seeds records into every replica (the YCSB load phase).
func (d *deployment) Preload(n uint64, key func(uint64) string, value []byte) {
	d.be.Do(func() { d.Cluster.Preload(n, key, value) })
}

// Join adds topology node id to the cluster: it bootstraps by snapshot
// streaming the ranges it will own, the placement flips when streaming
// completes, and the node warms up before read coordinators count it
// fully live. It progresses as the deployment runs; poll State. A
// request the cluster cannot start — a current member, a node outside
// the topology, another change in flight — returns the reason.
func (d *deployment) Join(id NodeID) error {
	return query(d, func() error { return d.Cluster.Join(id) })
}

// Decommission removes member id: it streams its ownership to the new
// owners, then leaves the ring. It is refused, with the reason, for a
// node that is not a settled live member, survivors that could not carry
// the replication factor, or another change in flight.
func (d *deployment) Decommission(id NodeID) error {
	return query(d, func() error { return d.Cluster.Decommission(id) })
}

// Members returns the current ring members.
func (d *deployment) Members() []NodeID { return query(d, d.Cluster.Members) }

// State reports a node's combined membership/failure state.
func (d *deployment) State(id NodeID) NodeState {
	return query(d, func() NodeState { return d.Cluster.State(id) })
}

// Autoscale starts the cost-loop controller (internal/autoscale): every
// cfg.Interval it feeds the monitor's observed workload to the provisioning
// optimizer and enacts the recommended cluster size through Join and
// Decommission, one change at a time. Candidates defaults to every topology
// node. The controller's Log is the decision journal; Stop freezes the size.
func (d *deployment) Autoscale(cfg AutoscaleConfig) *Autoscaler {
	if cfg.Candidates == nil {
		cfg.Candidates = d.Cluster.Topology().Nodes()
	}
	return query(d, func() *Autoscaler {
		ctl := autoscale.New(d.Cluster, d.Monitor, d.tr, cfg)
		ctl.Start()
		return ctl
	})
}

// HotKeys reports the cluster's current hot set in sorted order (empty
// without Config.HotCache).
func (d *deployment) HotKeys() []string { return query(d, d.Cluster.HotKeys) }

// ViewAgreement reports the fraction of reachable members whose gossip
// view has applied the full membership-event log (1 without Config.Gossip).
func (d *deployment) ViewAgreement() float64 { return query(d, d.Cluster.ViewAgreement) }

// MembershipConverged reports whether every reachable member's view
// agrees with the enacted membership (ViewAgreement == 1).
func (d *deployment) MembershipConverged() bool { return query(d, d.Cluster.MembershipConverged) }

// StaleRate reports the oracle's measured stale-read fraction so far.
func (d *deployment) StaleRate() float64 { return query(d, d.Cluster.Oracle().StaleRate) }

// client implements Client: operations are issued under Do, resolve a
// Future from the store's completion callback, and are awaited the
// backend's way.
type client struct {
	d    *deployment
	sess Session
}

func (c *client) Session() Session { return c.sess }

// issue starts one operation and returns its future. start runs under Do
// with the session to use (the client's, or one pinned by WithLevel) and
// the callback that resolves the future.
func issue[T any](c *client, ctx context.Context, opts []OpOption, fail func(error) T, start func(Session, func(T))) *Future[T] {
	o := resolveOpts(opts)
	f := &Future[T]{done: make(chan struct{}), be: c.d.be, fail: fail}
	if ctx.Err() != nil {
		f.resolve(fail(ErrCanceled))
		return f
	}
	sess := c.sess
	if o.level != nil {
		sess = c.d.StaticSession(*o.level, *o.level)
	}
	c.d.be.Do(func() { start(sess, f.resolve) })
	if o.deadline > 0 {
		c.d.be.deadline(o.deadline, func() { f.resolve(fail(ErrDeadline)) })
	}
	return f
}

func (c *client) GetAsync(ctx context.Context, key string, opts ...OpOption) *ReadFuture {
	return issue(c, ctx, opts, func(err error) ReadResult { return ReadResult{Err: err, Key: key} },
		func(s Session, done func(ReadResult)) { s.Read(key, done) })
}

func (c *client) PutAsync(ctx context.Context, key string, value []byte, opts ...OpOption) *WriteFuture {
	return issue(c, ctx, opts, func(err error) WriteResult { return WriteResult{Err: err, Key: key} },
		func(s Session, done func(WriteResult)) { s.Write(key, value, done) })
}

func (c *client) DeleteAsync(ctx context.Context, key string, opts ...OpOption) *WriteFuture {
	return issue(c, ctx, opts, func(err error) WriteResult { return WriteResult{Err: err, Key: key} },
		func(s Session, done func(WriteResult)) { s.Delete(key, done) })
}

func (c *client) BatchGetAsync(ctx context.Context, keys []string, opts ...OpOption) *BatchGetFuture {
	return issue(c, ctx, opts, func(err error) []ReadResult { return failedBatchReads(keys, err) },
		func(s Session, done func([]ReadResult)) { s.BatchRead(keys, done) })
}

func (c *client) BatchPutAsync(ctx context.Context, ops []PutOp, opts ...OpOption) *BatchPutFuture {
	return issue(c, ctx, opts, func(err error) []WriteResult { return failedBatchWrites(ops, err) },
		func(s Session, done func([]WriteResult)) { s.BatchWrite(ops, done) })
}

func (c *client) Get(ctx context.Context, key string, opts ...OpOption) ReadResult {
	return c.GetAsync(ctx, key, opts...).Wait(ctx)
}

func (c *client) Put(ctx context.Context, key string, value []byte, opts ...OpOption) WriteResult {
	return c.PutAsync(ctx, key, value, opts...).Wait(ctx)
}

func (c *client) Delete(ctx context.Context, key string, opts ...OpOption) WriteResult {
	return c.DeleteAsync(ctx, key, opts...).Wait(ctx)
}

func (c *client) BatchGet(ctx context.Context, keys []string, opts ...OpOption) []ReadResult {
	return c.BatchGetAsync(ctx, keys, opts...).Wait(ctx)
}

func (c *client) BatchPut(ctx context.Context, ops []PutOp, opts ...OpOption) []WriteResult {
	return c.BatchPutAsync(ctx, ops, opts...).Wait(ctx)
}

// Run drives a workload to completion. The runner issues and accounts
// operations entirely under Do (Start inside it, completions inside engine
// handlers), so both backends drive the session identically.
func (c *client) Run(w Workload, o RunOptions) (*Metrics, error) {
	r, err := ycsb.NewRunner(c.sess, w, c.d.tr, c.d.Cluster.Config().Seed)
	if err != nil {
		return nil, err
	}
	r.OpCount = cmp.Or(o.Ops, r.OpCount) // 0 keeps the runner's default
	r.Threads = cmp.Or(o.Threads, r.Threads)
	r.BatchSize, r.WarmupOps, r.OpenLoopRate = o.BatchSize, o.WarmupOps, o.OpenLoopRate
	done := make(chan struct{})
	r.OnDone = func() { close(done) }
	c.d.be.Do(func() {
		if !o.NoPreload {
			c.d.Cluster.Preload(w.RecordCount, r.Keys, r.Value())
		}
		r.Start()
	})
	if err := c.d.be.awaitRun(done); err != nil {
		return nil, err
	}
	return r.Metrics(), nil
}
