package netsim

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func twoDCTopo() *Topology {
	t := NewTopology()
	t.AddDC("dc1", "r1", 2)
	t.AddDC("dc2", "r1", 2)
	t.AddDC("dc3", "r2", 2)
	return t
}

func TestLinkClassification(t *testing.T) {
	topo := twoDCTopo()
	cases := []struct {
		from, to NodeID
		want     LinkClass
	}{
		{0, 0, Loopback},
		{0, 1, IntraDC},
		{0, 2, InterDC},
		{0, 4, InterRegion},
		{ClientID, 3, IntraDC},
		{3, ClientID, IntraDC},
	}
	for _, c := range cases {
		if got := topo.Class(c.from, c.to); got != c.want {
			t.Errorf("Class(%d,%d) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestTopologyAccessors(t *testing.T) {
	topo := twoDCTopo()
	if topo.N() != 6 {
		t.Errorf("N = %d", topo.N())
	}
	if got := len(topo.NodesInDC("dc2")); got != 2 {
		t.Errorf("dc2 nodes = %d", got)
	}
	if topo.DCOf(0) != "dc1" || topo.DCOf(ClientID) != "" {
		t.Error("DCOf wrong")
	}
	if len(topo.DCs()) != 3 {
		t.Errorf("DCs = %v", topo.DCs())
	}
	if topo.Node(5).Region != "r2" {
		t.Error("node region wrong")
	}
}

func TestMeanLatencyOrdering(t *testing.T) {
	topo := twoDCTopo()
	intra := topo.MeanLatency(0, 1)
	inter := topo.MeanLatency(0, 2)
	wan := topo.MeanLatency(0, 4)
	if !(intra < inter && inter < wan) {
		t.Errorf("latency ordering broken: %v %v %v", intra, inter, wan)
	}
}

func TestTransportDelivery(t *testing.T) {
	eng := sim.New(1)
	topo := twoDCTopo()
	tr := NewTransport(eng, topo)
	var gotFrom NodeID
	var gotPayload any
	var at time.Duration
	tr.Register(1, func(from NodeID, payload any) {
		gotFrom, gotPayload, at = from, payload, eng.Now()
	})
	tr.Send(0, 1, "hi", 100)
	eng.Run()
	if gotFrom != 0 || gotPayload != "hi" {
		t.Fatalf("delivery wrong: from=%v payload=%v", gotFrom, gotPayload)
	}
	if at <= 0 {
		t.Error("delivery had no latency")
	}
	m := tr.Meter()
	if m.Messages[IntraDC] != 1 || m.Bytes[IntraDC] != 100 {
		t.Errorf("meter = %+v", m)
	}
}

func TestTransportDropsToDownNode(t *testing.T) {
	eng := sim.New(1)
	tr := NewTransport(eng, twoDCTopo())
	delivered := false
	tr.Register(1, func(NodeID, any) { delivered = true })
	tr.Fail(1)
	tr.Send(0, 1, "x", 10)
	eng.Run()
	if delivered {
		t.Error("message delivered to failed node")
	}
	if tr.Meter().Dropped != 1 {
		t.Errorf("dropped = %d", tr.Meter().Dropped)
	}
	tr.Recover(1)
	tr.Send(0, 1, "y", 10)
	eng.Run()
	if !delivered {
		t.Error("message not delivered after recovery")
	}
}

func TestTransportFailsMidFlight(t *testing.T) {
	eng := sim.New(1)
	tr := NewTransport(eng, twoDCTopo())
	var got []any
	tr.Register(4, func(_ NodeID, payload any) { got = append(got, payload) })
	tr.Send(0, 4, "x", 10)        // inter-region: tens of ms in flight
	tr.Send(4, 4, "loopback", 10) // a network message even to itself
	tr.SendLocal(4, "timer", 50*time.Microsecond)
	eng.Schedule(time.Microsecond, func() { tr.Fail(4) })
	eng.Run()
	// The node's own timer is not network traffic: no down re-check, no
	// meter. Both messages die with the node and are metered as dropped.
	if len(got) != 1 || got[0] != "timer" {
		t.Errorf("node that died mid-flight received %v, want only its own timer", got)
	}
	if m := tr.Meter(); m.Dropped != 2 || m.Messages[InterRegion] != 1 || m.Messages[Loopback] != 1 {
		t.Errorf("meter = %+v, want both in-flight messages counted and dropped", m)
	}
}

// TestRouteSurvivesPacking: an in-flight message's endpoints ride packed
// in the engine event's integer argument; the client pseudo-node (-1) and
// the largest id of a 256-node topology must come back out as they went
// in, on every kind of send.
func TestRouteSurvivesPacking(t *testing.T) {
	const last = NodeID(255)
	for _, c := range []struct {
		from, to NodeID
		local    bool
	}{
		{ClientID, last, false}, {last, ClientID, false}, {ClientID, ClientID, true},
		{last, last, true}, {last, last, false}, {0, 0, false}, {0, last, false},
	} {
		if from, to, local := Unroute(Route(c.from, c.to, c.local)); from != c.from || to != c.to || local != c.local {
			t.Errorf("Unroute(Route(%d, %d, %v)) = %d, %d, %v", c.from, c.to, c.local, from, to, local)
		}
	}

	eng := sim.New(1)
	topo := SingleDC(256)
	tr := NewTransport(eng, topo)
	type arrival struct {
		at, from NodeID
		payload  any
	}
	var got []arrival
	for _, id := range []NodeID{ClientID, 0, last} {
		id := id
		tr.Register(id, func(from NodeID, payload any) { got = append(got, arrival{id, from, payload}) })
	}
	topo.Latency.IntraDC = Constant(time.Millisecond)
	tr.Send(ClientID, last, "request", 10)
	eng.Run()
	tr.Send(last, ClientID, "reply", 10)
	eng.Run()
	tr.Send(0, last, "peer", 10)
	eng.Run()
	tr.SendLocal(last, "timer", time.Millisecond)
	eng.Run()
	tr.SendLocal(ClientID, "client timer", time.Millisecond)
	eng.Run()
	want := []arrival{
		{last, ClientID, "request"}, {ClientID, last, "reply"}, {last, 0, "peer"},
		{last, last, "timer"}, {ClientID, ClientID, "client timer"},
	}
	if len(got) != len(want) {
		t.Fatalf("arrivals = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("arrival %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTransportPartitionAndHeal(t *testing.T) {
	eng := sim.New(1)
	tr := NewTransport(eng, twoDCTopo())
	count := 0
	tr.Register(2, func(NodeID, any) { count++ })
	tr.Partition([]NodeID{0, 1}, []NodeID{2, 3})
	tr.Send(0, 2, "x", 10)
	eng.Run()
	if count != 0 {
		t.Error("partitioned message delivered")
	}
	tr.Heal()
	tr.Send(0, 2, "y", 10)
	eng.Run()
	if count != 1 {
		t.Error("message not delivered after heal")
	}
}

func TestTransportLoss(t *testing.T) {
	eng := sim.New(1)
	tr := NewTransport(eng, twoDCTopo())
	got := 0
	tr.Register(1, func(NodeID, any) { got++ })
	tr.SetLossProbability(0.5)
	for i := 0; i < 1000; i++ {
		tr.Send(0, 1, i, 10)
	}
	eng.Run()
	if got < 350 || got > 650 {
		t.Errorf("loss rate off: delivered %d/1000 at p=0.5", got)
	}
}

func TestSendLocalBypassesNetwork(t *testing.T) {
	eng := sim.New(1)
	tr := NewTransport(eng, twoDCTopo())
	fired := time.Duration(-1)
	tr.Register(0, func(from NodeID, payload any) {
		if from != 0 {
			t.Errorf("self-message from %v", from)
		}
		fired = eng.Now()
	})
	tr.Fail(0) // even a failed node's local timers run
	tr.SendLocal(0, "tick", 7*time.Millisecond)
	eng.Run()
	if fired != 7*time.Millisecond {
		t.Errorf("timer at %v, want 7ms", fired)
	}
	m := tr.Meter()
	if m.TotalBytes() != 0 {
		t.Error("SendLocal metered as traffic")
	}
}

func TestBandwidthAddsSerializationDelay(t *testing.T) {
	eng := sim.New(1)
	topo := twoDCTopo()
	topo.Latency.IntraDC = Constant(time.Millisecond)
	tr := NewTransport(eng, topo)
	tr.Bandwidth[IntraDC] = 1 << 20 // 1 MiB/s
	var at time.Duration
	tr.Register(1, func(NodeID, any) { at = eng.Now() })
	tr.Send(0, 1, "big", 1<<20)
	eng.Run()
	want := time.Millisecond + time.Second
	if at < want-time.Millisecond || at > want+time.Millisecond {
		t.Errorf("delivery at %v, want ≈%v", at, want)
	}
}

func TestMeterSub(t *testing.T) {
	var a, b TrafficMeter
	a.Count(IntraDC, 100)
	a.Count(InterDC, 50)
	b = a.Snapshot()
	a.Count(InterDC, 25)
	d := a.Sub(b)
	if d.Bytes[InterDC] != 25 || d.Bytes[IntraDC] != 0 {
		t.Errorf("sub = %+v", d)
	}
	dc, region := a.BilledBytes()
	if dc != 75 || region != 0 {
		t.Errorf("billed = %d,%d", dc, region)
	}
}

func TestPresetsShape(t *testing.T) {
	ec2 := EC2TwoAZ(18)
	if ec2.N() != 18 || len(ec2.DCs()) != 2 {
		t.Errorf("EC2 preset: %d nodes, %d DCs", ec2.N(), len(ec2.DCs()))
	}
	g5k := G5KTwoSites(84)
	if g5k.N() != 84 || len(g5k.DCs()) != 2 {
		t.Errorf("G5K preset: %d nodes, %d DCs", g5k.N(), len(g5k.DCs()))
	}
	// G5K inter-site latency must dominate EC2 inter-AZ latency.
	if g5k.MeanLatency(0, NodeID(g5k.N()-1)) <= ec2.MeanLatency(0, NodeID(ec2.N()-1)) {
		t.Error("G5K inter-site should exceed EC2 inter-AZ latency")
	}
	geo := GeoRegions(3, "us", "eu")
	if geo.N() != 6 || geo.Class(0, 3) != InterRegion {
		t.Error("geo preset wrong")
	}
	single := SingleDC(4)
	if single.Class(0, 3) != IntraDC {
		t.Error("single-DC preset wrong")
	}
}

func TestLinkClassString(t *testing.T) {
	if Loopback.String() != "loopback" || InterRegion.String() != "inter-region" {
		t.Error("LinkClass names wrong")
	}
}
