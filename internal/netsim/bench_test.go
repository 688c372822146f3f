package netsim

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkTransportSend measures the full send→deliver cycle between two
// registered nodes with no partitions, loss or failures configured — the
// hot path every simulated message takes. The payload is preallocated so
// the number reported is the transport's own overhead; it must not
// allocate per message.
func BenchmarkTransportSend(b *testing.B) {
	eng := sim.New(1)
	topo := SingleDC(8)
	tr := NewTransport(eng, topo)
	sink := func(from NodeID, payload any) {}
	for _, id := range topo.Nodes() {
		tr.Register(id, sink)
	}
	payload := &struct{ a, b uint64 }{1, 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Send(0, 1, payload)
		eng.Step()
	}
}

// BenchmarkTransportSendLocal measures the self-message (timer) path.
func BenchmarkTransportSendLocal(b *testing.B) {
	eng := sim.New(1)
	topo := SingleDC(4)
	tr := NewTransport(eng, topo)
	sink := func(from NodeID, payload any) {}
	for _, id := range topo.Nodes() {
		tr.Register(id, sink)
	}
	payload := &struct{ x uint64 }{7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.SendLocal(2, payload, 1)
		eng.Step()
	}
}
