package ycsb

import (
	"strings"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/stats"
)

func TestWorkloadValidate(t *testing.T) {
	w := WorkloadA(100)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.ValueSize != 1024 || w.ZipfTheta != stats.ZipfTheta || w.KeyPrefix != "user" {
		t.Errorf("defaults not filled: %+v", w)
	}
	bad := Workload{Name: "bad", RecordCount: 10, ReadProportion: 0.9, UpdateProportion: 0.5}
	if err := bad.Validate(); err == nil {
		t.Error("over-1 mix accepted")
	}
	empty := Workload{Name: "empty"}
	if err := empty.Validate(); err == nil {
		t.Error("zero records accepted")
	}
}

func TestWorkloadMixProportions(t *testing.T) {
	w := WorkloadB(1000) // 95% reads, 5% updates
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	src := stats.NewSource(1)
	counts := map[OpKind]int{}
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[w.NextOp(src)]++
	}
	readFrac := float64(counts[OpRead]) / draws
	if readFrac < 0.94 || readFrac > 0.96 {
		t.Errorf("read fraction %f, want ≈0.95", readFrac)
	}
	if counts[OpInsert] != 0 || counts[OpReadModifyWrite] != 0 {
		t.Error("workload B drew inserts or RMWs")
	}
}

func TestStandardWorkloadShapes(t *testing.T) {
	cases := []struct {
		w    Workload
		kind OpKind
	}{
		{WorkloadD(100), OpInsert},
		{WorkloadF(100), OpReadModifyWrite},
	}
	for _, c := range cases {
		if err := c.w.Validate(); err != nil {
			t.Fatal(err)
		}
		src := stats.NewSource(2)
		found := false
		for i := 0; i < 1000; i++ {
			if c.w.NextOp(src) == c.kind {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("workload %s never drew %v", c.w.Name, c.kind)
		}
	}
	if HeavyReadUpdate(10).UpdateProportion != 0.5 {
		t.Error("heavy read-update is not 50/50")
	}
	m := Mix(10, 0.7, DistUniform, 0.9)
	if m.ReadProportion != 0.7 || m.UpdateProportion < 0.299 || m.UpdateProportion > 0.301 {
		t.Errorf("mix wrong: %+v", m)
	}
}

func TestKeyspaceFormatting(t *testing.T) {
	w := WorkloadC(100)
	w.Validate()
	ks := newKeyspace(w)
	k := ks.Key(7)
	if k != "user000000000007" {
		t.Errorf("key = %q", k)
	}
	if ks.Key(7) != k {
		t.Error("cache returned different key")
	}
	if !strings.HasPrefix(ks.Key(99), "user") {
		t.Error("prefix lost")
	}
}

func TestKeyspaceInsertAdvancesDomain(t *testing.T) {
	w := WorkloadD(100)
	w.Validate()
	ks := newKeyspace(w)
	k := ks.InsertKey()
	if k != ks.Key(100) {
		t.Errorf("first insert key = %q", k)
	}
	k2 := ks.InsertKey()
	if k2 != ks.Key(101) {
		t.Errorf("second insert key = %q", k2)
	}
	// Latest distribution must now be able to draw the inserted keys.
	src := stats.NewSource(3)
	sawNew := false
	for i := 0; i < 10000; i++ {
		if ks.NextKey(src) >= ks.Key(100) {
			sawNew = true
			break
		}
	}
	if !sawNew {
		t.Error("latest distribution never drew inserted keys")
	}
}

// fakeStore is an instant in-process Session for driver tests: every
// operation completes synchronously after advancing the fake clock.
type fakeStore struct {
	clock  *fakeClock
	reads  int
	writes int
	stale  bool
	err    error
	lat    time.Duration
}

type fakeClock struct {
	now   time.Duration
	queue []fakeEvent
}

type fakeEvent struct {
	at time.Duration
	fn func()
}

func (c *fakeClock) Now() time.Duration { return c.now }
func (c *fakeClock) Schedule(d time.Duration, fn func()) {
	c.queue = append(c.queue, fakeEvent{at: c.now + d, fn: fn})
}

// run processes queued events in arrival order.
func (c *fakeClock) run() {
	for len(c.queue) > 0 {
		e := c.queue[0]
		c.queue = c.queue[1:]
		if e.at > c.now {
			c.now = e.at
		}
		e.fn()
	}
}

func (s *fakeStore) Read(key string, cb func(res kv.ReadResult)) {
	s.reads++
	s.clock.now += s.lat
	cb(kv.ReadResult{Key: key, Latency: s.lat, Stale: s.stale, Exists: true, Err: s.err})
}

func (s *fakeStore) Write(key string, value []byte, cb func(res kv.WriteResult)) {
	s.writes++
	s.clock.now += s.lat
	cb(kv.WriteResult{Key: key, Latency: s.lat, Err: s.err})
}

func (s *fakeStore) Delete(key string, cb func(res kv.WriteResult)) {
	s.Write(key, nil, cb)
}

func (s *fakeStore) BatchRead(keys []string, cb func([]kv.ReadResult)) {
	out := make([]kv.ReadResult, len(keys))
	s.clock.now += s.lat // one round trip for the whole batch
	for i, k := range keys {
		s.reads++
		out[i] = kv.ReadResult{Key: k, Latency: s.lat, Stale: s.stale, Exists: true, Err: s.err}
	}
	cb(out)
}

func (s *fakeStore) BatchWrite(ops []kv.BatchOp, cb func([]kv.WriteResult)) {
	out := make([]kv.WriteResult, len(ops))
	s.clock.now += s.lat
	for i, op := range ops {
		s.writes++
		out[i] = kv.WriteResult{Key: op.Key, Latency: s.lat, Err: s.err}
	}
	cb(out)
}

func TestRunnerClosedLoopCompletesExactly(t *testing.T) {
	clock := &fakeClock{}
	store := &fakeStore{clock: clock, lat: time.Millisecond}
	r, err := NewRunner(store, WorkloadA(100), clock, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.OpCount = 1000
	r.Threads = 8
	r.Start()
	clock.run()
	if !r.Finished() {
		t.Fatal("runner did not finish")
	}
	m := r.Metrics()
	if m.Ops != 1000 {
		t.Errorf("measured ops = %d", m.Ops)
	}
	if store.reads+store.writes != 1000 {
		t.Errorf("store saw %d ops", store.reads+store.writes)
	}
	if m.Throughput() <= 0 {
		t.Error("no throughput computed")
	}
}

func TestRunnerWarmupExcluded(t *testing.T) {
	clock := &fakeClock{}
	store := &fakeStore{clock: clock, lat: time.Millisecond}
	r, _ := NewRunner(store, WorkloadC(100), clock, 1)
	r.OpCount = 500
	r.Threads = 4
	r.WarmupOps = 100
	r.Start()
	clock.run()
	if m := r.Metrics(); m.Ops != 400 {
		t.Errorf("measured ops = %d, want 400 after warmup", m.Ops)
	}
}

func TestRunnerCountsStaleAndErrors(t *testing.T) {
	clock := &fakeClock{}
	store := &fakeStore{clock: clock, lat: time.Millisecond, stale: true}
	r, _ := NewRunner(store, WorkloadC(100), clock, 1)
	r.OpCount = 100
	r.Threads = 2
	r.Start()
	clock.run()
	m := r.Metrics()
	if m.StaleReads != 100 || m.StaleRate() != 1 {
		t.Errorf("stale accounting: %d (%f)", m.StaleReads, m.StaleRate())
	}

	clock2 := &fakeClock{}
	store2 := &fakeStore{clock: clock2, lat: time.Millisecond, err: kv.ErrTimeout}
	r2, _ := NewRunner(store2, WorkloadA(100), clock2, 1)
	r2.OpCount = 100
	r2.Threads = 2
	r2.Start()
	clock2.run()
	if got := r2.Metrics().Timeouts; got != 100 {
		t.Errorf("timeouts = %d", got)
	}
}

func TestRunnerRMWIssuesReadAndWrite(t *testing.T) {
	clock := &fakeClock{}
	store := &fakeStore{clock: clock, lat: time.Millisecond}
	w := Workload{Name: "rmw", RecordCount: 50, RMWProportion: 1.0}
	r, _ := NewRunner(store, w, clock, 1)
	r.OpCount = 100
	r.Threads = 2
	r.Start()
	clock.run()
	if store.reads != 100 || store.writes != 100 {
		t.Errorf("RMW issued %d reads, %d writes; want 100/100", store.reads, store.writes)
	}
	if m := r.Metrics(); m.RMWs != 100 {
		t.Errorf("RMW count = %d", m.RMWs)
	}
}

func TestRunnerOpenLoopRate(t *testing.T) {
	clock := &fakeClock{}
	store := &fakeStore{clock: clock, lat: 0}
	r, _ := NewRunner(store, WorkloadC(1000), clock, 1)
	r.OpCount = 2000
	r.OpenLoopRate = 1000 // ops/s
	r.Start()
	clock.run()
	if !r.Finished() {
		t.Fatal("open loop did not finish")
	}
	m := r.Metrics()
	elapsed := m.Elapsed().Seconds()
	if elapsed < 1.5 || elapsed > 2.6 {
		t.Errorf("2000 ops at 1000/s took %.2fs, want ≈2s", elapsed)
	}
}

func TestRunnerRejectsBadWorkload(t *testing.T) {
	clock := &fakeClock{}
	if _, err := NewRunner(&fakeStore{clock: clock}, Workload{Name: "x"}, clock, 1); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestMetricsString(t *testing.T) {
	var m Metrics
	if !strings.Contains(m.String(), "ops=0") {
		t.Errorf("metrics string: %s", m.String())
	}
}

func TestRunnerBatchedModeCompletesExactly(t *testing.T) {
	clock := &fakeClock{}
	store := &fakeStore{clock: clock, lat: time.Millisecond}
	r, err := NewRunner(store, WorkloadA(100), clock, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.OpCount = 1000
	r.Threads = 8
	r.BatchSize = 16 // does not divide 1000: the tail batch must shrink
	r.Start()
	clock.run()
	if !r.Finished() {
		t.Fatal("batched runner did not finish")
	}
	m := r.Metrics()
	if m.Ops != 1000 {
		t.Errorf("measured ops = %d", m.Ops)
	}
	if store.reads+store.writes != 1000 {
		t.Errorf("store saw %d item ops", store.reads+store.writes)
	}
}

func TestRunnerBatchedRMWAndInserts(t *testing.T) {
	clock := &fakeClock{}
	store := &fakeStore{clock: clock, lat: time.Millisecond}
	r, _ := NewRunner(store, WorkloadF(100), clock, 1) // 50% RMW
	r.OpCount = 400
	r.Threads = 4
	r.BatchSize = 8
	r.Start()
	clock.run()
	if !r.Finished() {
		t.Fatal("runner did not finish")
	}
	m := r.Metrics()
	if m.Ops != 400 {
		t.Errorf("ops = %d", m.Ops)
	}
	if m.RMWs == 0 {
		t.Error("no RMWs recorded in batched mode")
	}
	d, _ := NewRunner(store, WorkloadD(100), clock, 1) // 5% inserts
	d.OpCount = 400
	d.Threads = 4
	d.BatchSize = 8
	d.Start()
	clock.run()
	if !d.Finished() || d.Metrics().Inserts == 0 {
		t.Errorf("batched inserts: finished=%v inserts=%d", d.Finished(), d.Metrics().Inserts)
	}
}

// TestKeyspaceKeyFormat pins the key layout (prefix + id zero-padded to
// twelve digits, longer ids and prefixes unpadded and untruncated) and
// that formatting a key allocates the string alone.
func TestKeyspaceKeyFormat(t *testing.T) {
	long := strings.Repeat("p", 60)
	for _, tc := range []struct {
		prefix string
		id     uint64
		want   string
	}{
		{"user", 0, "user000000000000"},
		{"user", 42, "user000000000042"},
		{"user", 999_999_999_999, "user999999999999"},
		{"user", 1_234_567_890_123, "user1234567890123"},
		{"user", 1<<64 - 1, "user18446744073709551615"},
		{long, 7, long + "000000000007"},
	} {
		w := WorkloadA(10)
		w.KeyPrefix = tc.prefix
		if got := newKeyspace(w).Key(tc.id); got != tc.want {
			t.Errorf("Key(%d) with prefix %q = %q, want %q", tc.id, tc.prefix, got, tc.want)
		}
	}
	ks := newKeyspace(WorkloadA(10))
	id := uint64(1000) // past the cache: every call formats
	if got := testing.AllocsPerRun(100, func() { id++; _ = ks.Key(id) }); got != 1 {
		t.Errorf("Key allocates %.0f times, want 1 (the string)", got)
	}
}

var keySink string

// BenchmarkKeyspaceKey measures formatting one record id as a key, past
// the per-runner key cache (what the first touch of every record pays).
func BenchmarkKeyspaceKey(b *testing.B) {
	ks := newKeyspace(WorkloadA(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keySink = ks.Key(uint64(i) + 1)
	}
}
