package kv

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/storage"
)

func ver(seq uint64) storage.Version {
	return storage.Version{Timestamp: time.Duration(seq), Seq: seq}
}

func TestOracleJudgeSemantics(t *testing.T) {
	o := NewOracle(3)
	v1, v2 := ver(1), ver(2)

	// Returned the newest acknowledged version: fresh.
	if o.Judge(v1, v1, v1) {
		t.Error("matching version judged stale")
	}
	// Returned older than acknowledged: stale.
	if !o.Judge(v2, v2, v1) {
		t.Error("older version judged fresh")
	}
	// Fresh against acknowledged but missing an in-flight write: fresh,
	// counted as overlap.
	if o.Judge(v1, v2, v1) {
		t.Error("overlap read judged stale")
	}
	stale, fresh, _ := o.Counts()
	if stale != 1 || fresh != 2 {
		t.Errorf("counts: stale=%d fresh=%d", stale, fresh)
	}
	if o.OverlapReads() != 1 {
		t.Errorf("overlap = %d", o.OverlapReads())
	}
	if got := o.StaleRate(); got < 0.33 || got > 0.34 {
		t.Errorf("stale rate = %f", got)
	}
}

func TestOraclePropagationTracking(t *testing.T) {
	o := NewOracle(3)
	v := ver(1)
	o.WriteStarted("k", v, 3, 0)
	if o.InFlight() != 1 {
		t.Fatalf("in flight = %d", o.InFlight())
	}
	o.Applied(0, "k", v, 2*time.Millisecond)
	o.Applied(0, "k", v, 3*time.Millisecond) // duplicate: ignored
	o.Applied(1, "k", v, 5*time.Millisecond)
	o.Applied(2, "k", v, 9*time.Millisecond)
	if o.InFlight() != 0 {
		t.Errorf("in flight after full propagation = %d", o.InFlight())
	}
	if got := o.Propagation().Max(); got < 8*time.Millisecond || got > 10*time.Millisecond {
		t.Errorf("propagation max = %v", got)
	}
	if o.RankDelay(1).Count() != 1 || o.RankDelay(3).Count() != 1 {
		t.Error("rank delays not recorded")
	}
}

func TestOracleVisibleVsIssued(t *testing.T) {
	o := NewOracle(3)
	v1, v2 := ver(1), ver(2)
	id := o.WriteStarted("k", v1, 3, 0)
	o.WriteVisible(id, v1)
	o.WriteStarted("k", v2, 3, time.Millisecond) // issued, not yet visible
	if visible, issued := o.Latest("k"); visible != v1 || issued != v2 {
		t.Errorf("visible = %v, issued = %v", visible, issued)
	}
	// Acking an older version later must not regress the ledger.
	o.WriteVisible(id, v2)
	o.WriteVisible(id, v1)
	if visible, _ := o.Latest("k"); visible != v2 {
		t.Error("visible regressed")
	}
}

// mapOracle is the oracle's ledger as it was kept in Go maps: the
// watermarks in a map by key, the in-flight writes in a map by version.
// It is the model FuzzOracle holds Oracle to.
type mapOracle struct {
	latest  map[string]latestVersions
	pending map[storage.Version]modelWrite

	propagation stats.Histogram
	rankDelays  []stats.Histogram

	writes, staleReads, freshReads, overlapReads, failedReads uint64
}

type latestVersions struct{ issued, visible storage.Version }

type modelWrite struct {
	key      string
	start    time.Duration
	replicas int
	applied  map[netsim.NodeID]bool
}

func newMapOracle(rf int) *mapOracle {
	return &mapOracle{
		latest:     make(map[string]latestVersions),
		pending:    make(map[storage.Version]modelWrite),
		rankDelays: make([]stats.Histogram, rf),
	}
}

func (o *mapOracle) WriteStarted(key string, v storage.Version, replicas int, now time.Duration) {
	o.writes++
	if l := o.latest[key]; v.After(l.issued) {
		l.issued = v
		o.latest[key] = l
	}
	o.pending[v] = modelWrite{key: key, start: now, replicas: replicas, applied: map[netsim.NodeID]bool{}}
}

func (o *mapOracle) WriteVisible(key string, v storage.Version) {
	if l := o.latest[key]; v.After(l.visible) {
		l.visible = v
		o.latest[key] = l
	}
}

func (o *mapOracle) writeEverywhere(key string, v storage.Version, replicas int) {
	o.writes++
	l := o.latest[key]
	if v.After(l.issued) {
		l.issued = v
	}
	if v.After(l.visible) {
		l.visible = v
	}
	o.latest[key] = l
	for rank := 0; rank < replicas && rank < len(o.rankDelays); rank++ {
		o.rankDelays[rank].Record(0)
	}
	o.propagation.Record(0)
}

func (o *mapOracle) Applied(node netsim.NodeID, v storage.Version, now time.Duration) {
	p, ok := o.pending[v]
	if !ok || p.applied[node] {
		return
	}
	p.applied[node] = true
	rank := len(p.applied)
	if rank <= len(o.rankDelays) {
		o.rankDelays[rank-1].Record(now - p.start)
	}
	if rank >= p.replicas {
		o.propagation.Record(now - p.start)
		delete(o.pending, v)
	}
}

func (o *mapOracle) Latest(key string) (visible, issued storage.Version) {
	l := o.latest[key]
	return l.visible, l.issued
}

func (o *mapOracle) Judge(visibleAtStart, issuedAtStart, returned storage.Version) bool {
	stale := visibleAtStart.After(returned)
	if stale {
		o.staleReads++
	} else {
		o.freshReads++
		if issuedAtStart.After(returned) {
			o.overlapReads++
		}
	}
	return stale
}

// oracleState is an oracle's ledger in a canonical, layout-free form:
// per key by name its watermarks and its in-flight writes in version
// order, each with its start, replica count and applied set; then the
// write count, the verdict tallies and the histograms.
type oracleState struct {
	keys                                  map[string]keyState
	writes, stale, fresh, overlap, failed uint64
	propagation                           stats.Histogram
	rankDelays                            []stats.Histogram
}

type keyState struct {
	issued, visible storage.Version
	pending         []pendingState
}

type pendingState struct {
	version  storage.Version
	start    time.Duration
	replicas int
	applied  []netsim.NodeID // ascending
}

func (o *Oracle) state() oracleState {
	st := oracleState{
		keys:   make(map[string]keyState, o.keys.Len()),
		writes: o.writes, stale: o.staleReads, fresh: o.freshReads,
		overlap: o.overlapReads, failed: o.failedReads,
		propagation: o.propagation, rankDelays: o.rankDelays,
	}
	for id := range o.keys.Len() {
		l := o.keys.Val(id)
		ks := keyState{issued: l.issued, visible: l.visible}
		for i := l.pending; i != 0; i = o.pending[i-1].next {
			p := &o.pending[i-1]
			var applied []netsim.NodeID
			for node := netsim.NodeID(0); node < 256; node++ {
				if p.applied[node/64]&(1<<(uint(node)%64)) != 0 {
					applied = append(applied, node)
				}
			}
			applied = append(applied, p.overflow...)
			slices.Sort(applied)
			ks.pending = append(ks.pending, pendingState{p.version, p.start, p.replicas, applied})
		}
		slices.SortFunc(ks.pending, byVersion)
		st.keys[o.keys.Key(id)] = ks
	}
	return st
}

func (o *mapOracle) state() oracleState {
	st := oracleState{
		keys:   make(map[string]keyState, len(o.latest)),
		writes: o.writes, stale: o.staleReads, fresh: o.freshReads,
		overlap: o.overlapReads, failed: o.failedReads,
		propagation: o.propagation, rankDelays: o.rankDelays,
	}
	for key, l := range o.latest {
		st.keys[key] = keyState{issued: l.issued, visible: l.visible}
	}
	for v, p := range o.pending {
		var applied []netsim.NodeID
		for node := range p.applied {
			applied = append(applied, node)
		}
		slices.Sort(applied)
		ks := st.keys[p.key]
		ks.pending = append(ks.pending, pendingState{v, p.start, p.replicas, applied})
		st.keys[p.key] = ks
	}
	for _, ks := range st.keys {
		slices.SortFunc(ks.pending, byVersion)
	}
	return st
}

func byVersion(a, b pendingState) int { return a.version.Compare(b.version) }

// diffOracleStates names the first difference between two ledgers, or
// returns "" when they are equal.
func diffOracleStates(got, want oracleState) string {
	keys := make([]string, 0, len(got.keys)+len(want.keys))
	for k := range got.keys {
		keys = append(keys, k)
	}
	for k := range want.keys {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range slices.Compact(keys) {
		g, gok := got.keys[k]
		w, wok := want.keys[k]
		if gok != wok || !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("key %q: %v %+v, want %v %+v", k, gok, g, wok, w)
		}
	}
	if g, w := [5]uint64{got.writes, got.stale, got.fresh, got.overlap, got.failed},
		[5]uint64{want.writes, want.stale, want.fresh, want.overlap, want.failed}; g != w {
		return fmt.Sprintf("writes and stale/fresh/overlap/failed reads %v, want %v", g, w)
	}
	hist := func(name string, g, w *stats.Histogram) string {
		if *g == *w {
			return ""
		}
		return fmt.Sprintf("%s: %d samples max %v, want %d max %v", name, g.Count(), g.Max(), w.Count(), w.Max())
	}
	if d := hist("propagation", &got.propagation, &want.propagation); d != "" {
		return d
	}
	if len(got.rankDelays) != len(want.rankDelays) {
		return fmt.Sprintf("%d ranks, want %d", len(got.rankDelays), len(want.rankDelays))
	}
	for i := range want.rankDelays {
		if d := hist(fmt.Sprintf("rank %d delay", i+1), &got.rankDelays[i], &want.rankDelays[i]); d != "" {
			return d
		}
	}
	return ""
}

// checkLedger checks what the canonical form does not show: the key
// table's index invariants, that every slab entry is on exactly one list
// (a key's in-flight writes or the free list), and the in-flight count.
func (o *Oracle) checkLedger(t *testing.T) {
	t.Helper()
	if err := o.keys.Verify(); err != nil {
		t.Fatal(err)
	}
	on := make([]bool, len(o.pending))
	walk := func(head int32, what string) (n int) {
		for i := head; i != 0; i = o.pending[i-1].next {
			if i < 0 || int(i) > len(o.pending) || on[i-1] {
				t.Fatalf("%s reaches slab entry %d twice or out of range", what, i)
			}
			on[i-1] = true
			n++
		}
		return n
	}
	live := 0
	for id := range o.keys.Len() {
		live += walk(o.keys.Val(id).pending, o.keys.Key(id))
	}
	free := walk(o.free, "the free list")
	if live != o.InFlight() || live+free != len(o.pending) {
		t.Fatalf("%d in flight and %d free in a slab of %d, InFlight %d", live, free, len(o.pending), o.InFlight())
	}
}

// FuzzOracle drives Oracle and the map model with the same calls. Each
// byte picks a call, the bytes after it its arguments: WriteStarted and
// writeEverywhere of a fresh version on one of six keys (one to four
// replicas against RF 3), WriteVisible of any started write, Applied of
// any started write by any of twelve nodes (two of them past the
// bitset), so duplicate and repair applications and ones after
// completion all occur, through the key or through the ledger id,
// Applied of versions never ledgered (on known and unknown keys), Latest
// and Judge, ReadFailed, and time passing. Writes that never complete
// stay in flight. After every call the ledgers' canonical forms must be
// equal and checkLedger must pass.
func FuzzOracle(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 4, 1, 0, 4, 2, 0, 5, 0, 1, 6, 1})
	f.Add([]byte{0, 0, 3, 0, 0, 2, 0, 3, 0, 1, 3, 0, 2, 3, 0, 10, 3, 0, 11, 7, 0, 0, 0})
	f.Add([]byte{8, 2, 3, 0, 2, 0, 0, 2, 4, 1, 4, 3, 9, 5, 6, 0, 0, 2, 1, 7, 2, 0})
	keys := []string{"a", "b", "c", "d", "e", "f", "unseen"}
	nodes := []netsim.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8, 63, 300, 301}
	f.Fuzz(func(t *testing.T, data []byte) {
		type started struct {
			key string
			v   storage.Version
			id  int
		}
		got, want := NewOracle(3), newMapOracle(3)
		var writes []started
		var now time.Duration
		seq := uint64(0)
		arg := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		fresh := func() storage.Version {
			seq++
			return storage.Version{Timestamp: now, Seq: seq}
		}
		for step := 0; len(data) > 0; step++ {
			switch op := arg(); op % 10 {
			case 0, 1:
				key, v, replicas := keys[arg()%6], fresh(), 1+arg()%4
				id := got.WriteStarted(key, v, replicas, now)
				want.WriteStarted(key, v, replicas, now)
				if got.keys.Key(id) != key {
					t.Fatalf("step %d: WriteStarted(%q) gave the ledger of %q", step, key, got.keys.Key(id))
				}
				writes = append(writes, started{key, v, id})
			case 2:
				key, v, replicas := keys[arg()%6], fresh(), 1+arg()%4
				got.writeEverywhere(key, v, replicas)
				want.writeEverywhere(key, v, replicas)
			case 3:
				if len(writes) > 0 {
					w := writes[arg()%len(writes)]
					got.WriteVisible(w.id, w.v)
					want.WriteVisible(w.key, w.v)
				}
			case 4, 5:
				if len(writes) > 0 {
					w, node := writes[arg()%len(writes)], nodes[arg()%len(nodes)]
					if op%10 == 4 {
						got.Applied(node, w.key, w.v, now)
					} else {
						got.appliedAt(w.id, node, w.v, now)
					}
					want.Applied(node, w.v, now)
				}
			case 6:
				key, node := keys[arg()%len(keys)], nodes[arg()%len(nodes)]
				v := storage.Version{Timestamp: now, Seq: 1<<40 + uint64(arg())}
				got.Applied(node, key, v, now)
				want.Applied(node, v, now)
			case 7:
				key := keys[arg()%len(keys)]
				gv, gi := got.Latest(key)
				wv, wi := want.Latest(key)
				if gv != wv || gi != wi {
					t.Fatalf("step %d: Latest(%q) = %v %v, want %v %v", step, key, gv, gi, wv, wi)
				}
				var returned storage.Version
				if len(writes) > 0 && arg()%4 != 0 {
					returned = writes[arg()%len(writes)].v
				}
				if g, w := got.Judge(gv, gi, returned), want.Judge(wv, wi, returned); g != w {
					t.Fatalf("step %d: Judge = %v, want %v", step, g, w)
				}
			case 8:
				got.ReadFailed()
				want.failedReads++
			case 9:
				now += time.Duration(arg()) * time.Millisecond
			}
			if d := diffOracleStates(got.state(), want.state()); d != "" {
				t.Fatalf("step %d: %s", step, d)
			}
			if got.InFlight() != len(want.pending) {
				t.Fatalf("step %d: InFlight %d, want %d", step, got.InFlight(), len(want.pending))
			}
			got.checkLedger(t)
		}
	})
}
