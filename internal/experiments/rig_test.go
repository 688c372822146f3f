package experiments

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/harmony"
	"repro/internal/kv"
	"repro/internal/ycsb"
)

// TestRigWindows pins the window arithmetic every study's table rests
// on: windows partition the rig's counters from the preload to the last
// close, a window's times are its phase's own, and work the cluster does
// during a settle is counted in the window that closes next.
func TestRigWindows(t *testing.T) {
	p := smallPlatform(t, "recovery")
	rg := newRig(p, 3, nil, nil)
	rg.control(harmony.New(0.10, rg.cl.RF()), 100*time.Millisecond)
	w := ycsb.HeavyReadUpdate(p.Records)
	w.ValueSize = p.ValueBytes
	keys, value := rg.preload(w)
	rg.ctl.Start()

	loaded := rg.mark
	if loaded.Stale+loaded.Fresh+loaded.Failed != 0 || loaded.Traffic.TotalBytes() != 0 {
		t.Fatalf("the preload judged reads or sent traffic: %+v", loaded)
	}
	if loaded.Usage.StoredBytes == 0 {
		t.Fatal("the preload stored nothing")
	}

	first := rg.run(rg.studyPhase("first", w, 0, 12, nil))
	firstClose := rg.mark

	// One write at ALL while no client load runs: its replica writes and
	// messages happen inside the settle.
	rg.cl.Write(keys(0), value, kv.All, func(kv.WriteResult) {})
	rg.settle(time.Second)
	settled := rg.read().since(firstClose)
	if settled.Usage.ReplicaWrites < uint64(rg.cl.RF()) || settled.Traffic.TotalBytes() == 0 {
		t.Fatalf("the settle did no work to attribute: %d replica writes, %d bytes",
			settled.Usage.ReplicaWrites, settled.Traffic.TotalBytes())
	}

	second := rg.run(rg.studyPhase("second", w, 1, 12, nil))
	rg.ctl.Stop()
	final := rg.read()

	if first.counters != firstClose.since(loaded) {
		t.Errorf("first window does not run from the preload to its close:\n got %+v\nwant %+v",
			first.counters, firstClose.since(loaded))
	}
	if second.counters != final.since(firstClose) {
		t.Errorf("second window does not run from the first close, settle included:\n got %+v\nwant %+v",
			second.counters, final.since(firstClose))
	}
	if second.Usage.ReplicaWrites < settled.Usage.ReplicaWrites+second.Metrics.Writes {
		t.Errorf("second window counts %d replica writes: fewer than the settle's %d plus one per write of its own %d",
			second.Usage.ReplicaWrites, settled.Usage.ReplicaWrites, second.Metrics.Writes)
	}

	// The windows partition the run: oracle verdicts and traffic add up
	// to the final reading less the post-preload one.
	stale, fresh, failed := rg.cl.Oracle().Counts()
	if s, f, x := first.Stale+second.Stale, first.Fresh+second.Fresh, first.Failed+second.Failed; s != stale || f != fresh || x != failed {
		t.Errorf("windows judged %d stale / %d fresh / %d failed, the oracle %d / %d / %d", s, f, x, stale, fresh, failed)
	}
	if first.Stale+first.Fresh == 0 || second.Stale+second.Fresh == 0 {
		t.Error("a window judged no reads")
	}
	meter := rg.tr.Meter()
	total := meter.Sub(loaded.Traffic)
	for c := range total.Bytes {
		if got := first.Traffic.Bytes[c] + second.Traffic.Bytes[c]; got != total.Bytes[c] {
			t.Errorf("link class %d: windows carried %d bytes, the meter %d", c, got, total.Bytes[c])
		}
		if got := first.Traffic.Messages[c] + second.Traffic.Messages[c]; got != total.Messages[c] {
			t.Errorf("link class %d: windows carried %d messages, the meter %d", c, got, total.Messages[c])
		}
	}

	// Times and gauges are the phase's own, not differenced.
	if first.Start != 0 || first.End != first.Metrics.End || second.Start != first.End+time.Second ||
		second.End != second.Metrics.End {
		t.Errorf("window times: first [%v, %v) second [%v, %v), metrics end %v and %v",
			first.Start, first.End, second.Start, second.End, first.Metrics.End, second.Metrics.End)
	}
	if second.Usage.StoredBytes != final.Usage.StoredBytes || second.Usage.Nodes != p.Nodes || second.Members != p.Nodes {
		t.Errorf("gauges must read as at the close: stored %d (final %d), nodes %d, members %d",
			second.Usage.StoredBytes, final.Usage.StoredBytes, second.Usage.Nodes, second.Members)
	}
	if first.AvgReadK < 1 || first.AvgReadK > float64(p.RF) || first.Metrics.Throughput() <= 0 {
		t.Errorf("first window: avg read k %.2f, throughput %.0f", first.AvgReadK, first.Metrics.Throughput())
	}
}

// TestCountersSinceSplitsUsage pins which kv.Usage fields a window keeps
// as read and which it differences: with every field at 3 now and 1
// earlier, a gauge still reads 3 and a counter 2. A new Usage field
// lands on one side or the other here before any study reads it.
func TestCountersSinceSplitsUsage(t *testing.T) {
	fill := func(n int64) (c counters) {
		u := reflect.ValueOf(&c.Usage).Elem()
		for i := 0; i < u.NumField(); i++ {
			switch f := u.Field(i); f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(n)
			case reflect.Uint64:
				f.SetUint(uint64(n))
			default:
				t.Fatalf("kv.Usage.%s is a %v: teach counters.since and this test what to do with it",
					u.Type().Field(i).Name, f.Kind())
			}
		}
		return c
	}
	d := reflect.ValueOf(fill(3).since(fill(1)).Usage)
	kept := []string{}
	for i := 0; i < d.NumField(); i++ {
		switch v := d.Field(i).Convert(reflect.TypeOf(int64(0))).Int(); v {
		case 3:
			kept = append(kept, d.Type().Field(i).Name)
		case 2:
		default:
			t.Errorf("kv.Usage.%s: 3 since 1 reads %d", d.Type().Field(i).Name, v)
		}
	}
	sort.Strings(kept)
	if want := []string{"HotKeysNow", "Nodes", "StoredBytes"}; !reflect.DeepEqual(kept, want) {
		t.Errorf("since keeps %v as gauges, want exactly %v", kept, want)
	}
}
