package kv_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/kv"
	"repro/internal/netsim"
)

func (h *harness) batchRead(keys []string, lvl kv.Level) []kv.ReadResult {
	var out []kv.ReadResult
	done := false
	h.cluster.ReadBatch(keys, lvl, func(r []kv.ReadResult) { out = r; done = true })
	for !done && h.eng.Step() {
	}
	if !done {
		panic("batch read never completed")
	}
	return out
}

func (h *harness) batchWrite(ops []kv.BatchOp, lvl kv.Level) []kv.WriteResult {
	var out []kv.WriteResult
	done := false
	h.cluster.WriteBatch(ops, lvl, func(r []kv.WriteResult) { out = r; done = true })
	for !done && h.eng.Step() {
	}
	if !done {
		panic("batch write never completed")
	}
	return out
}

func batchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("bk%03d", i)
	}
	return keys
}

func TestBatchWriteThenBatchReadQuorum(t *testing.T) {
	h := newHarness(netsim.G5KTwoSites(6), quietConfig(31))
	keys := batchKeys(12)
	ops := make([]kv.BatchOp, len(keys))
	for i, k := range keys {
		ops[i] = kv.BatchOp{Key: k, Value: []byte("v-" + k)}
	}
	ws := h.batchWrite(ops, kv.Quorum)
	if len(ws) != len(ops) {
		t.Fatalf("got %d write results for %d ops", len(ws), len(ops))
	}
	for i, w := range ws {
		if w.Err != nil || w.Key != keys[i] {
			t.Fatalf("batch write item %d: %+v", i, w)
		}
	}
	rs := h.batchRead(keys, kv.Quorum)
	if len(rs) != len(keys) {
		t.Fatalf("got %d read results for %d keys", len(rs), len(keys))
	}
	for i, r := range rs {
		if r.Err != nil || !r.Exists || string(r.Value) != "v-"+keys[i] || r.Stale {
			t.Fatalf("batch read item %d: %+v", i, r)
		}
	}
}

func TestBatchReadMatchesSingleReads(t *testing.T) {
	h := newHarness(netsim.SingleDC(5), quietConfig(32))
	keys := batchKeys(8)
	for i, k := range keys {
		h.write(k, []byte(fmt.Sprintf("val%d", i)), kv.All)
	}
	rs := h.batchRead(keys, kv.Quorum)
	for i, k := range keys {
		single := h.read(k, kv.Quorum)
		if string(rs[i].Value) != string(single.Value) || rs[i].Exists != single.Exists {
			t.Errorf("key %s: batch %q vs single %q", k, rs[i].Value, single.Value)
		}
	}
	// A key missing from the store must come back Exists=false in order.
	mixed := h.batchRead([]string{keys[0], "absent", keys[1]}, kv.One)
	if !mixed[0].Exists || mixed[1].Exists || !mixed[2].Exists {
		t.Errorf("mixed batch existence wrong: %+v", mixed)
	}
}

func TestBatchWriteMixedDeletes(t *testing.T) {
	h := newHarness(netsim.SingleDC(4), quietConfig(33))
	h.write("keep", []byte("old"), kv.Quorum)
	h.write("gone", []byte("old"), kv.Quorum)
	ws := h.batchWrite([]kv.BatchOp{
		{Key: "keep", Value: []byte("new")},
		{Key: "gone", Delete: true},
		{Key: "fresh", Value: []byte("born")},
	}, kv.Quorum)
	for i, w := range ws {
		if w.Err != nil {
			t.Fatalf("batch item %d: %v", i, w.Err)
		}
	}
	if r := h.read("keep", kv.Quorum); string(r.Value) != "new" {
		t.Errorf("keep = %+v", r)
	}
	if r := h.read("gone", kv.Quorum); r.Exists {
		t.Errorf("gone still exists: %+v", r)
	}
	if r := h.read("fresh", kv.Quorum); string(r.Value) != "born" {
		t.Errorf("fresh = %+v", r)
	}
}

func TestBatchReadReturnsFreshestVersion(t *testing.T) {
	h := newHarness(netsim.SingleDC(3), quietConfig(34))
	h.write("k", []byte("v1"), kv.All)
	// A ONE write completes after a single ack; the ALL batch read races
	// its propagation and must still fold the freshest version.
	var w kv.WriteResult
	wdone := false
	h.cluster.Write("k", []byte("v2"), kv.One, func(r kv.WriteResult) { w = r; wdone = true })
	for !wdone && h.eng.Step() {
	}
	if w.Err != nil {
		t.Fatal(w.Err)
	}
	rs := h.batchRead([]string{"k"}, kv.All)
	if string(rs[0].Value) != "v2" || rs[0].Version != w.Version {
		t.Errorf("ALL batch read missed freshest: %+v (want version %v)", rs[0], w.Version)
	}
}

// TestBatchOneAdmissionOneMessagePerReplica pins the acceptance
// property: a K-key batch costs one coordinator admission and at most
// one request message per replica — not K independent operations.
func TestBatchOneAdmissionOneMessagePerReplica(t *testing.T) {
	topo := netsim.SingleDC(5)
	h := newHarness(topo, quietConfig(35))
	keys := batchKeys(32)
	for _, k := range keys {
		h.write(k, []byte("v"), kv.All)
	}
	n := topo.N()

	coord0 := h.cluster.Usage().CoordOps
	msg0 := totalMessages(h)
	h.batchRead(keys, kv.Quorum)
	if d := h.cluster.Usage().CoordOps - coord0; d != 1 {
		t.Errorf("batch read admissions = %d, want 1", d)
	}
	// Client→coordinator, ≤1 request and ≤1 response per replica, one
	// reply to the client: everything else would mean per-key fan-out.
	if d := totalMessages(h) - msg0; d > uint64(2+2*n) {
		t.Errorf("batch read sent %d messages, want ≤ %d", d, 2+2*n)
	}

	ops := make([]kv.BatchOp, len(keys))
	for i, k := range keys {
		ops[i] = kv.BatchOp{Key: k, Value: []byte("w")}
	}
	coord0 = h.cluster.Usage().CoordOps
	msg0 = totalMessages(h)
	h.batchWrite(ops, kv.Quorum)
	h.eng.Run() // drain late acks so the message count is stable
	if d := h.cluster.Usage().CoordOps - coord0; d != 1 {
		t.Errorf("batch write admissions = %d, want 1", d)
	}
	if d := totalMessages(h) - msg0; d > uint64(2+2*n) {
		t.Errorf("batch write sent %d messages, want ≤ %d", d, 2+2*n)
	}
}

func totalMessages(h *harness) uint64 {
	var sum uint64
	m := h.tr.Meter()
	for _, c := range m.Messages {
		sum += c
	}
	return sum
}

func TestBatchUnavailableWhenLevelUnreachable(t *testing.T) {
	h := newHarness(netsim.SingleDC(3), quietConfig(36))
	keys := batchKeys(4)
	for _, k := range keys {
		h.write(k, []byte("v"), kv.All)
	}
	h.cluster.Fail(1)
	h.eng.RunFor(2 * h.cluster.Config().DetectionDelay)
	for i, r := range h.batchRead(keys, kv.All) {
		if !errors.Is(r.Err, kv.ErrUnavailable) {
			t.Errorf("read item %d: err = %v, want unavailable", i, r.Err)
		}
	}
	ops := []kv.BatchOp{{Key: keys[0], Value: []byte("x")}}
	for i, w := range h.batchWrite(ops, kv.All) {
		if !errors.Is(w.Err, kv.ErrUnavailable) {
			t.Errorf("write item %d: err = %v, want unavailable", i, w.Err)
		}
	}
	// A batch whose every item failed admission has nothing left to wait
	// for: its context must not outlive the reply (nor arm a timeout).
	for _, id := range h.cluster.Members() {
		if c := h.cluster.Node(id).CoordContexts(); c != 0 {
			t.Errorf("node %d tracks %d contexts after an all-unavailable batch", id, c)
		}
	}
}

func TestBatchEmptyAndSingleItem(t *testing.T) {
	h := newHarness(netsim.SingleDC(3), quietConfig(37))
	called := false
	h.cluster.ReadBatch(nil, kv.One, func(r []kv.ReadResult) {
		called = true
		if len(r) != 0 {
			t.Errorf("empty batch returned %d results", len(r))
		}
	})
	if !called {
		t.Error("empty batch callback never ran")
	}
	h.write("k", []byte("v"), kv.Quorum)
	rs := h.batchRead([]string{"k"}, kv.Quorum)
	if len(rs) != 1 || string(rs[0].Value) != "v" {
		t.Errorf("one-item batch: %+v", rs)
	}
}

// benchGroup runs b.N groups of K reads (or writes), batched or as K
// sequential singles, and reports virtual-time throughput.
func benchGroup(b *testing.B, batched, writes bool) {
	const K = 16
	topo := netsim.G5KTwoSites(12)
	h := newHarness(topo, quietConfig(1))
	keys := batchKeys(256)
	for _, k := range keys {
		h.write(k, []byte("valuevaluevalue!"), kv.Quorum)
	}
	group := make([]string, K)
	ops := make([]kv.BatchOp, K)
	b.ResetTimer()
	start := h.eng.Now()
	for i := 0; i < b.N; i++ {
		for j := 0; j < K; j++ {
			group[j] = keys[(i*K+j)%len(keys)]
			ops[j] = kv.BatchOp{Key: group[j], Value: []byte("w")}
		}
		switch {
		case batched && writes:
			h.batchWrite(ops, kv.Quorum)
		case batched:
			h.batchRead(group, kv.Quorum)
		case writes:
			for j := 0; j < K; j++ {
				h.write(ops[j].Key, ops[j].Value, kv.Quorum)
			}
		default:
			for j := 0; j < K; j++ {
				h.read(group[j], kv.Quorum)
			}
		}
	}
	b.StopTimer()
	elapsed := h.eng.Now() - start
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*K)/elapsed.Seconds(), "vops/vsec")
	}
	b.ReportMetric(float64(h.eng.Events())/float64(b.N*K), "events/op")
}

// BenchmarkBatchGet vs BenchmarkSequentialGets (and the Put pair)
// demonstrate the acceptance property end to end: one admission and one
// round trip per batch beats K sequential singles on both virtual-time
// throughput and simulator events per operation.
func BenchmarkBatchGet(b *testing.B)       { benchGroup(b, true, false) }
func BenchmarkSequentialGets(b *testing.B) { benchGroup(b, false, false) }
func BenchmarkBatchPut(b *testing.B)       { benchGroup(b, true, true) }
func BenchmarkSequentialPuts(b *testing.B) { benchGroup(b, false, true) }
