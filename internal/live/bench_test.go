package live

import (
	"testing"

	"repro/internal/netsim"
)

// BenchmarkDirectSend is the serve path's per-message cost on a direct
// engine: one Do that sends 64 messages among three registered nodes —
// each through the transport's Admit, the run queue and Deliver — and
// drains them.
func BenchmarkDirectSend(b *testing.B) {
	e, err := NewMesh(netsim.SingleDC(3), 1, MeshConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	delivered := 0
	e.Do(func() {
		for id := netsim.NodeID(0); id < 3; id++ {
			e.Register(id, func(netsim.NodeID, any) { delivered++ })
		}
	})
	payload := &struct{ a, b uint64 }{1, 2}
	send := func() {
		for i := 0; i < 64; i++ {
			e.Send(netsim.NodeID(i%3), netsim.NodeID((i+1)%3), payload)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Do(send)
	}
	b.StopTimer()
	if delivered != 64*b.N {
		b.Fatalf("delivered %d of %d messages", delivered, 64*b.N)
	}
}
