package kv

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Stage work and admissions whose modelled cost is zero (ServingDefaults'
// laws) run as calls — submit and coordWork in node.go — instead of as
// zero-delay workDone/coordExec self-messages. These tests pin that
// mechanism under the simulator: the deliveries a served operation
// takes, and the order and accounting of a stage, whose counters are the
// ones the self-message path produced on the same script.
//
// Mutation check: with `st.busy < st.conc` dropped from submit's call
// path, TestZeroCostWorkQueuesBehindBusyStage fails — the zero-cost unit
// overtakes the unit holding the only slot.

// countingTransport counts the messages the simulated transport hands to
// a handler: node actors and the client endpoint alike.
type countingTransport struct {
	*netsim.Transport
	delivered int
}

func (c *countingTransport) Register(id netsim.NodeID, h netsim.Handler) {
	c.Transport.Register(id, func(from netsim.NodeID, payload any) {
		c.delivered++
		h(from, payload)
	})
}

// TestZeroCostOpDeliveries: at RF 3 on zero laws, a QUORUM read is the
// client request, two replica reads, their two answers and the reply (6;
// an admission and two stage completions more as self-messages, 9), and
// a QUORUM write the request, three replica writes, three acks and the
// reply (8; 12 as self-messages).
func TestZeroCostOpDeliveries(t *testing.T) {
	topo := netsim.SingleDC(3)
	eng := sim.New(1)
	tr := &countingTransport{Transport: netsim.NewTransport(eng, topo)}
	cfg := DefaultConfig()
	cfg.ReadService = netsim.Constant(0)
	cfg.WriteService = netsim.Constant(0)
	cfg.CoordOverhead = netsim.Constant(0)
	cfg.GlobalRepairChance = 0 // every read asks exactly its quorum
	cfg.HintReplayInterval = 0 // no periodic self-messages: Run must drain
	cl := New(topo, tr, cfg)

	for i, key := range []string{"a", "b", "c"} {
		var werr, rerr error
		tr.delivered = 0
		cl.Write(key, []byte("v"), Quorum, func(r WriteResult) { werr = r.Err })
		eng.Run()
		if werr != nil || tr.delivered != 8 {
			t.Errorf("write %d: err %v, %d deliveries, want nil and 8", i, werr, tr.delivered)
		}
		tr.delivered = 0
		cl.Read(key, Quorum, func(r ReadResult) { rerr = r.Err })
		eng.Run()
		if rerr != nil || tr.delivered != 6 {
			t.Errorf("read %d: err %v, %d deliveries, want nil and 6", i, rerr, tr.delivered)
		}
	}
}

// TestZeroCostWorkQueuesBehindBusyStage runs one script of zero- and
// non-zero-cost units on a node with one slot per stage: a zero-cost unit
// on a free stage runs inside submit; behind a busy one it queues FIFO
// and, on the mutation stage, is shed like any other unit that waited
// past the threshold. The stage counters are the self-message path's.
func TestZeroCostWorkQueuesBehindBusyStage(t *testing.T) {
	eng, n := newShedHarness(t, 1, 10*time.Millisecond)
	var ran []string
	unit := func(name string) func() { return func() { ran = append(ran, name) } }

	n.submitRead(0, unit("a"))
	if !reflect.DeepEqual(ran, []string{"a"}) {
		t.Fatalf("zero-cost unit on a free stage: ran %v, want [a] before any event", ran)
	}
	eng.Run()

	n.submitRead(5*time.Millisecond, unit("slow"))
	n.submitRead(0, unit("b"))
	n.submitRead(0, unit("c"))
	if len(ran) != 1 {
		t.Fatalf("zero-cost units behind a busy stage ran at once: %v", ran)
	}
	eng.Run()

	n.submitWrite(50*time.Millisecond, unit("w1"))
	n.submitWrite(0, unit("shed1"))
	n.submitWrite(0, unit("shed2"))
	eng.Run()
	n.submitWrite(0, unit("w2"))
	eng.Run()

	if want := []string{"a", "slow", "b", "c", "w1", "w2"}; !reflect.DeepEqual(ran, want) {
		t.Errorf("ran %v, want %v", ran, want)
	}
	type counters struct {
		done     uint64
		busyTime time.Duration
		peak     int
		dropped  uint64
	}
	for _, c := range []struct {
		name string
		st   *stage
		want counters
	}{
		{"read", &n.readStage, counters{done: 4, busyTime: 5 * time.Millisecond, peak: 2}},
		{"write", &n.writeStage, counters{done: 2, busyTime: 50 * time.Millisecond, peak: 2, dropped: 2}},
	} {
		got := counters{c.st.done, c.st.busyTime, c.st.peak, c.st.dropped}
		if got != c.want || c.st.busy != 0 || c.st.qlen() != 0 {
			t.Errorf("%s stage: %+v busy %d queued %d, want %+v and idle", c.name, got, c.st.busy, c.st.qlen(), c.want)
		}
	}
}
