package main

import (
	"bytes"
	"math"
	"testing"
	"time"
)

func TestParseReply(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		kind    replyKind
		payload string
		n       int
		bad     bool
	}{
		{"nil", "$-1\r\n", replyNil, "", 5, false},
		{"bulk", "$5\r\nhello\r\n+OK\r\n", replyBulk, "hello", 11, false},
		{"empty bulk", "$0\r\n\r\n", replyBulk, "", 6, false},
		{"bulk holding crlf", "$4\r\na\r\nb\r\n", replyBulk, "a\r\nb", 10, false},
		{"simple", "+OK\r\n", replySimple, "OK", 5, false},
		{"error", "-ERR unavailable\r\n", replyError, "ERR unavailable", 18, false},
		{"integer", ":42\r\n", replyInt, "42", 5, false},
		{"empty", "", 0, "", 0, false},
		{"partial line", "$5\r", 0, "", 0, false},
		{"partial bulk", "$5\r\nhel", 0, "", 0, false},
		{"partial bulk tail", "$5\r\nhello\r", 0, "", 0, false},
		{"bad type", "?what\r\n", 0, "", 0, true},
		{"bare newline", "+OK\n", 0, "", 0, true},
		{"bad length", "$5x\r\nhello\r\n", 0, "", 0, true},
		{"bad bulk tail", "$5\r\nhelloXX", 0, "", 0, true},
		{"array", "*1\r\n$1\r\na\r\n", 0, "", 0, true},
	}
	for _, c := range cases {
		kind, payload, n, err := parseReply([]byte(c.in))
		if (err != nil) != c.bad {
			t.Errorf("%s: err = %v, want error %v", c.name, err, c.bad)
			continue
		}
		if kind != c.kind || string(payload) != c.payload || n != c.n {
			t.Errorf("%s: got (%d, %q, %d), want (%d, %q, %d)", c.name, kind, payload, n, c.kind, c.payload, c.n)
		}
	}
}

func TestGetReplyVerifierCatchesSwappedReply(t *testing.T) {
	keys := newKeyTable(4)
	enc := newEncoder(keys, 64)
	mine := enc.appendValue(nil, 1, 7)
	other := enc.appendValue(nil, 2, 7)
	if len(mine) != 64 {
		t.Fatalf("value is %d bytes, want 64", len(mine))
	}
	if !getReplyOK(replyBulk, mine, keys.key(1)) {
		t.Error("a key's own value was rejected")
	}
	if getReplyOK(replyBulk, other, keys.key(1)) {
		t.Error("another key's value was accepted")
	}
	if getReplyOK(replyNil, nil, keys.key(1)) {
		t.Error("nil was accepted for a stored key")
	}
	if getReplyOK(replyBulk, keys.key(1), keys.key(1)) {
		t.Error("a value without the separator was accepted")
	}
}

func TestRequestEncoding(t *testing.T) {
	enc := newEncoder(newKeyTable(12), 24)
	if got, want := string(enc.appendGet(nil, 11)), "*2\r\n$3\r\nGET\r\n$16\r\nuser000000000011\r\n"; got != want {
		t.Errorf("GET = %q, want %q", got, want)
	}
	want := "*3\r\n$3\r\nSET\r\n$16\r\nuser000000000003\r\n$24\r\nuser000000000003|95xxxxx\r\n"
	if got := string(enc.appendSet(nil, 3, 95)); got != want {
		t.Errorf("SET = %q, want %q", got, want)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	samples := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0, 10}, {0.5, 60}, {0.9, 100}, {0.99, 100}, {1, 100}} {
		if got := percentile(samples, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median odd = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 9, 2}); got != 3 {
		t.Errorf("median even = %v, want 3", got)
	}
	// One wild value must not move a median (setup_s, the ceiling's slices).
	if got := median([]float64{100, 101, 99, 100, 1000}); got != 100 {
		t.Errorf("median with an outlier = %v, want 100", got)
	}
}

// TestReportFollowsTheReference pins what a serve run reports: the
// store's figure over the reference's times the nominal figure, with
// throughput as all operations over all the time, so a host that slows
// both sides alike does not move it.
func TestReportFollowsTheReference(t *testing.T) {
	for _, host := range []float64{1, 2} { // the host's slowness
		rep := &serveReport{Stats: make(map[string]pairedStat), store: newSide(false, 0), ref: newSide(true, 0)}
		us := func(v float64) int64 { return int64(v * host * 1e3) }
		for i := 0; i < 3; i++ {
			lat := &slice{ops: 4, elapsed: time.Second, get: []int64{us(12), us(12), us(30)}, set: []int64{us(18)}}
			lat.all = append(append([]int64(nil), lat.get...), lat.set...)
			rep.store.add(lat, 1)
			rep.ref.add(&slice{ops: 2, elapsed: time.Second, all: []int64{us(6), us(6)}}, 1)
			// The store's second slice is a slow one (a compaction): it
			// counts in full.
			elapsed := time.Duration(float64(time.Second) * host)
			rep.store.add(&slice{ops: uint64(1000 + 500*(i%2)), elapsed: elapsed}, maxDepth)
			rep.ref.add(&slice{ops: 10_000, elapsed: elapsed}, maxDepth)
		}
		rep.reduce()
		if got := rep.Stats["get_p50_us"]; got.Value != 12 || got.Samples != 9 || len(got.Stores) != 3 {
			t.Errorf("host x%v: get_p50_us = %+v, want value 12 from 9 samples in 3 slices", host, got)
		}
		if got := rep.Stats["set_p95_us"].Value; got != 18.0/6*nominalP95us {
			t.Errorf("host x%v: set_p95_us = %v, want %v", host, got, 18.0/6*nominalP95us)
		}
		want := 3500.0 / 30_000 * nominalOpsPerS
		if got := rep.Stats["ops_per_s"].Value; math.Abs(got-want) > 1e-6 {
			t.Errorf("host x%v: ops_per_s = %v, want %v", host, got, want)
		}
	}
}

func TestOpStreamRepeatsForASeed(t *testing.T) {
	w := findWorkload("serve-read-heavy")
	z := newZipfian(w.keys, zipfTheta)
	a, b, other := newOpStream(w, z, 7, 0), newOpStream(w, z, 7, 0), newOpStream(w, z, 8, 0)
	same, sets := true, 0
	for i := 0; i < 10_000; i++ {
		ka, sa := a.next()
		kb, sb := b.next()
		ko, _ := other.next()
		if ka != kb || sa != sb {
			t.Fatalf("op %d differs between two streams of one seed", i)
		}
		if ka < 0 || ka >= w.keys {
			t.Fatalf("key %d outside the key space", ka)
		}
		same = same && ka == ko
		if sa {
			sets++
		}
	}
	if same {
		t.Error("another seed produced the same keys")
	}
	if sets < 400 || sets > 600 {
		t.Errorf("%d SETs in 10000 ops, want about 5%%", sets)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "leaf", Start: 10, End: 40, Parent: 0, N: 3},
		{Name: "leaf", Start: 50, End: 80, Parent: 0, N: 3},
	}}
	self := tr.selfTimes()
	if got := self["root"].Ns; got != 40 {
		t.Errorf("root self time = %d, want 40", got)
	}
	if got := self["leaf"].perCall(); got != 10 {
		t.Errorf("leaf ns per call = %v, want 10", got)
	}
}

// TestRequestPathAllocatesNothing pins request generation, encoding and
// reply parsing at zero allocations, so allocs_per_op measured around a
// run reflects the program and not the generator.
func TestRequestPathAllocatesNothing(t *testing.T) {
	w := findWorkload("serve-read-heavy")
	keys := newKeyTable(w.keys)
	enc := newEncoder(keys, w.valueSize)
	ops := newOpStream(w, newZipfian(w.keys, zipfTheta), 1, 0)
	out := make([]byte, 0, 4096)
	value := enc.appendValue(nil, 5, 1)
	reply := append(append([]byte("$64\r\n"), value...), "\r\n+OK\r\n"...)
	allocs := testing.AllocsPerRun(1000, func() {
		out = out[:0]
		for i := 0; i < maxDepth; i++ {
			key, set := ops.next()
			if set {
				out = enc.appendSet(out, key, uint64(i))
			} else {
				out = enc.appendGet(out, key)
			}
		}
		kind, payload, n, err := parseReply(reply)
		if err != nil || !getReplyOK(kind, payload, keys.key(5)) {
			t.Fatal("bulk reply rejected")
		}
		if kind, _, _, err = parseReply(reply[n:]); err != nil || kind != replySimple {
			t.Fatal("simple reply rejected")
		}
	})
	if allocs != 0 {
		t.Errorf("request path allocates %v times per batch, want 0", allocs)
	}
}

// TestStubServerRoundTrip drives the ceiling stub with the real client,
// which also covers the client's buffering on a live socket.
func TestStubServerRoundTrip(t *testing.T) {
	stub, err := newStubServer()
	if err != nil {
		t.Fatal(err)
	}
	w := workload{keys: 500, valueSize: 2048, setShare: 0.5}
	keys := newKeyTable(w.keys + readBackKeys)
	c, err := connect(stub.addr(), &w, keys, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stub.close()
	defer c.close()
	if err := c.setRange(0, w.keys, 0); err != nil {
		t.Fatal(err)
	}
	// Values of 2 KiB at depth 16 overflow nothing but do wrap the
	// client's 64 KiB read buffer many times.
	if err := c.run(4000, maxDepth); err != nil {
		t.Fatal(err)
	}
	if err := c.readBack(w.keys, 100, 9); err != nil {
		t.Fatal(err)
	}
	if c.failed != 0 || c.attempted == 0 {
		t.Fatalf("attempted %d, failed %d", c.attempted, c.failed)
	}
	// A value stored under another key is a mismatch.
	c.out = c.enc.appendSet(c.out, w.keys, 1)
	c.out = c.out[:bytes.LastIndex(c.out, []byte("user"))] // cut the value...
	c.out = c.enc.appendValue(c.out, w.keys+1, 1)          // ...and store key+1's instead
	c.out = append(c.out, '\r', '\n')
	c.pend[0] = pending{w.keys, true}
	if _, err := c.flush(1); err != nil {
		t.Fatal(err)
	}
	c.out = c.enc.appendGet(c.out, w.keys)
	c.pend[0] = pending{w.keys, false}
	before := c.failed
	if _, err := c.flush(1); err != nil {
		t.Fatal(err)
	}
	if c.failed != before+1 {
		t.Error("a GET answered with another key's value was not counted as failed")
	}
}

// TestContractNamesTheWorkloads keeps BENCHMARK.json and the workload
// table in step; the metric names are checked by every run itself.
func TestContractNamesTheWorkloads(t *testing.T) {
	c, err := readContract("../" + contractPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
	}
}
