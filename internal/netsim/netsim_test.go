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

// TestClassMatchesNames checks Class, which compares DC and region
// indexes, against its definition over the names, for every pair of every
// preset with the client and loopback pairs included.
func TestClassMatchesNames(t *testing.T) {
	for _, c := range []struct {
		name string
		topo *Topology
	}{
		{"SingleDC", SingleDC(3)},
		{"EC2TwoAZ", EC2TwoAZ(5)},
		{"G5KTwoSites", G5KTwoSites(6)},
		{"GeoRegions", GeoRegions(2, "eu", "us", "ap")},
		{"twoDC", twoDCTopo()},
	} {
		name, topo := c.name, c.topo
		ids := append([]NodeID{ClientID}, topo.Nodes()...)
		for _, from := range ids {
			for _, to := range ids {
				want := IntraDC
				switch {
				case from == to:
					want = Loopback
				case from == ClientID || to == ClientID:
				case topo.Node(from).DC == topo.Node(to).DC:
				case topo.Node(from).Region == topo.Node(to).Region:
					want = InterDC
				default:
					want = InterRegion
				}
				if got := topo.Class(from, to); got != want {
					t.Errorf("%s: Class(%d, %d) = %v, want %v", name, from, to, got, want)
				}
			}
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
	tr.Send(0, 1, "no store: counted, no bytes")
	eng.Run()
	tr.Carry(&countingCodec{})
	tr.Send(0, 1, "hi")
	eng.Run()
	if gotFrom != 0 || gotPayload != "hi" {
		t.Fatalf("delivery wrong: from=%v payload=%v", gotFrom, gotPayload)
	}
	if at <= 0 {
		t.Error("delivery had no latency")
	}
	m := tr.Meter()
	if m.Messages[IntraDC] != 2 || m.Bytes[IntraDC] != 2 {
		t.Errorf("meter = %+v, want two messages and the carried codec's 2 bytes", m)
	}
}

func TestTransportDropsToDownNode(t *testing.T) {
	eng := sim.New(1)
	tr := NewTransport(eng, twoDCTopo())
	delivered := false
	tr.Register(1, func(NodeID, any) { delivered = true })
	tr.Fail(1)
	tr.Send(0, 1, "x")
	eng.Run()
	if delivered {
		t.Error("message delivered to failed node")
	}
	if tr.Meter().Dropped != 1 {
		t.Errorf("dropped = %d", tr.Meter().Dropped)
	}
	tr.Recover(1)
	tr.Send(0, 1, "y")
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
	tr.Send(0, 4, "x")        // inter-region: tens of ms in flight
	tr.Send(4, 4, "loopback") // a network message even to itself
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

// countingCodec is a carried store that records what the transport hands
// back; it frames nothing, and sizes a string payload at its length.
type countingCodec struct{ released []any }

func (c *countingCodec) ReleaseMessage(payload any) { c.released = append(c.released, payload) }

func (*countingCodec) MarshalMessage(buf []byte, _, _ NodeID, _ any) ([]byte, bool) {
	return buf, false
}

func (*countingCodec) UnmarshalMessage(byte, []byte) (NodeID, NodeID, any, error) {
	return 0, 0, nil, nil
}

func (*countingCodec) MessageSize(_, _ NodeID, payload any) int {
	s, _ := payload.(string)
	return len(s)
}

// TestTransportReleasesRefused: a message the transport refuses goes back
// to the carried store whether it is refused at departure (either end
// failed) or on arrival (the destination failed in flight, or has no
// handler); a delivered one is the handler's and is not released.
func TestTransportReleasesRefused(t *testing.T) {
	eng := sim.New(1)
	tr := NewTransport(eng, twoDCTopo())
	codec := &countingCodec{}
	tr.Carry(codec)
	if tr.Codec() != codec || tr.Remote(1) {
		t.Fatal("Carry/Codec/Remote")
	}
	var got []any
	tr.Register(1, func(_ NodeID, payload any) { got = append(got, payload) })
	tr.Fail(1)
	tr.Send(0, 1, "departure")
	tr.Recover(1)
	tr.Send(0, 1, "arrival")
	tr.Fail(1)
	eng.Run()
	tr.Recover(1)
	tr.Send(0, 1, "delivered")
	tr.Send(0, 2, "no handler")
	eng.Run()
	want := []any{"departure", "arrival", "no handler"}
	if len(codec.released) != len(want) || len(got) != 1 || got[0] != "delivered" {
		t.Fatalf("released %v and delivered %v, want %v and [delivered]", codec.released, got, want)
	}
	for i := range want {
		if codec.released[i] != want[i] {
			t.Fatalf("released %v, want %v", codec.released, want)
		}
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
		if from, to, local := unroute(route(c.from, c.to, c.local)); from != c.from || to != c.to || local != c.local {
			t.Errorf("unroute(route(%d, %d, %v)) = %d, %d, %v", c.from, c.to, c.local, from, to, local)
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
	tr.Send(ClientID, last, "request")
	eng.Run()
	tr.Send(last, ClientID, "reply")
	eng.Run()
	tr.Send(0, last, "peer")
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
	tr.Send(0, 2, "x")
	eng.Run()
	if count != 0 {
		t.Error("partitioned message delivered")
	}
	tr.Heal()
	tr.Send(0, 2, "y")
	eng.Run()
	if count != 1 {
		t.Error("message not delivered after heal")
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
