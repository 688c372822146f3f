package kv_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/netsim"
)

// multiDCConfig builds a two-DC cluster with explicit per-DC replica
// placement (NetworkTopologyStrategy) and LOCAL_QUORUM-friendly routing.
func multiDCHarness(seed uint64, localDC string) *harness {
	topo := netsim.G5KTwoSites(8)
	cfg := quietConfig(seed)
	cfg.RF = 0
	cfg.PerDC = map[string]int{topo.DCOf(0): 2, topo.DCOf(netsim.NodeID(topo.N() - 1)): 2}
	cfg.Coordinators = topo.NodesInDC(localDC)
	return newHarness(topo, cfg)
}

func TestNetworkTopologyPlacementInCluster(t *testing.T) {
	h := multiDCHarness(30, "")
	if h.cluster.RF() != 4 {
		t.Fatalf("RF = %d", h.cluster.RF())
	}
	for _, key := range []string{"a", "b", "c", "d"} {
		perDC := map[string]int{}
		for _, id := range h.cluster.Strategy().Replicas(key) {
			perDC[h.topo.DCOf(id)]++
		}
		for dc, n := range perDC {
			if n != 2 {
				t.Errorf("key %s: %d replicas in %s, want 2", key, n, dc)
			}
		}
	}
}

func TestLocalQuorumStaysLocal(t *testing.T) {
	topo := netsim.G5KTwoSites(8)
	local := topo.DCOf(0)
	h := multiDCHarness(31, local)

	w := h.write("k", []byte("v"), kv.LocalQuorum)
	if w.Err != nil {
		t.Fatalf("LOCAL_QUORUM write: %v", w.Err)
	}
	r := h.read("k", kv.LocalQuorum)
	if r.Err != nil || !r.Exists {
		t.Fatalf("LOCAL_QUORUM read: %+v", r)
	}
	// Local quorum never waits on the remote site: latency stays well
	// under the ~20 ms inter-site round trip.
	if r.Latency > 15*time.Millisecond {
		t.Errorf("LOCAL_QUORUM read crossed sites: %v", r.Latency)
	}
	if w.Latency > 15*time.Millisecond {
		t.Errorf("LOCAL_QUORUM write crossed sites: %v", w.Latency)
	}
}

func TestLocalQuorumReadYourWritesWithinDC(t *testing.T) {
	topo := netsim.G5KTwoSites(8)
	local := topo.DCOf(0)
	h := multiDCHarness(32, local)
	for i := 0; i < 30; i++ {
		w := h.write("k", []byte{byte(i)}, kv.LocalQuorum)
		r := h.read("k", kv.LocalQuorum)
		if r.Stale {
			t.Fatalf("iteration %d: LOCAL_QUORUM read-your-writes violated (v=%v, got %v)",
				i, w.Version, r.Version)
		}
	}
}

// TestMultiDCJoinDecommission pins elastic membership under per-DC
// placement: with PerDC 2+2 and three founding members per DC, a join
// in the first DC and a decommission in the second each stream and
// flip, every key stays readable at ALL, and a second decommission that
// would leave the second DC below its replica count is refused and
// changes nothing.
// The transcript (reads, Usage, transport meter, final placement) is
// pinned by hash.
func TestMultiDCJoinDecommission(t *testing.T) {
	topo := netsim.G5KTwoSites(8)
	dc1, dc2 := topo.NodesInDC(topo.DCOf(0)), topo.NodesInDC(topo.DCOf(7))
	cfg := quietConfig(34)
	cfg.RF = 0
	cfg.PerDC = map[string]int{topo.DCOf(0): 2, topo.DCOf(7): 2}
	cfg.InitialMembers = append(append([]netsim.NodeID(nil), dc1[:3]...), dc2[:3]...)
	h := newHarness(topo, cfg)

	var lines []string
	for i := 0; i < 60; i++ {
		w := h.write(mkey(i), []byte("payload"), kv.All)
		if w.Err != nil {
			t.Fatal(w.Err)
		}
		lines = append(lines, writeLine(w))
	}
	settle := func(step string) {
		h.eng.Run()
		if !h.cluster.MembershipSettled() {
			t.Fatalf("%s: membership not settled", step)
		}
	}
	h.join(dc1[3])
	settle("join")
	h.decommission(dc2[0])
	settle("decommission")
	if got := len(h.cluster.Members()); got != 6 {
		t.Fatalf("members = %d after join and decommission, want 6", got)
	}
	if u := h.cluster.Usage(); u.Joins != 1 || u.Decommissions != 1 || u.StreamedCells == 0 {
		t.Fatalf("membership accounting: %+v", u)
	}

	before := h.cluster.Members()
	if err := h.cluster.Decommission(dc2[1]); err == nil {
		t.Fatal("decommission below the DC's replica count was accepted")
	}
	if after := h.cluster.Members(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("refused decommission changed members: %v -> %v", before, after)
	}

	for i := 0; i < 60; i++ {
		r := h.read(mkey(i), kv.All)
		if r.Err != nil || !r.Exists || r.Stale {
			t.Fatalf("read %s at ALL after membership changes: %+v", mkey(i), r)
		}
		lines = append(lines, readLine(r))
	}
	m := h.tr.Meter()
	lines = append(lines, fmt.Sprintf("usage %+v", h.cluster.Usage()),
		fmt.Sprintf("meter msgs=%v bytes=%v dropped=%d", m.Messages, m.Bytes, m.Dropped))
	for _, rp := range h.cluster.Strategy().Ranges() {
		lines = append(lines, fmt.Sprintf("range %v", rp))
	}
	sum := sha256.New()
	for _, l := range lines {
		sum.Write([]byte(l + "\n"))
	}
	const want = "72c6a11aebca2b697cac9e1f215914ad59c3a60611b1195c47c8249c954d74ec"
	if got := hex.EncodeToString(sum.Sum(nil)); got != want {
		t.Errorf("transcript hash = %s, want %s", got, want)
	}
}

func TestEachQuorumRequiresEveryDC(t *testing.T) {
	h := multiDCHarness(33, "")
	w := h.write("k", []byte("v"), kv.EachQuorum)
	if w.Err != nil {
		t.Fatalf("EACH_QUORUM write: %v", w.Err)
	}
	// EACH_QUORUM waits for the remote site: latency at least one
	// inter-site trip.
	if w.Latency < 5*time.Millisecond {
		t.Errorf("EACH_QUORUM too fast to have crossed sites: %v", w.Latency)
	}

	// Kill one DC entirely: EACH_QUORUM becomes unavailable, LOCAL_QUORUM
	// (from the surviving DC) keeps working.
	remote := h.topo.DCOf(netsim.NodeID(h.topo.N() - 1))
	for _, id := range h.topo.NodesInDC(remote) {
		h.cluster.Fail(id)
	}
	h.eng.RunFor(3 * time.Second)

	w = h.write("k", []byte("v2"), kv.EachQuorum)
	if w.Err == nil {
		t.Error("EACH_QUORUM succeeded with a dead DC")
	}
	w = h.write("k", []byte("v3"), kv.LocalQuorum)
	if w.Err != nil {
		t.Errorf("LOCAL_QUORUM should survive a remote-DC outage: %v", w.Err)
	}
}
