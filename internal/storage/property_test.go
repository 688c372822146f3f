package storage

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/keytab"
	"repro/internal/ring"
)

// engineUnderTest builds each engine kind with settings that exercise
// its structure (tiny flush limit so the LSM engine actually seals runs
// and compacts mid-sequence).
var engineUnderTest = []struct {
	name  string
	build func() Engine
}{
	{"mem", func() Engine { return NewMemEngine(0) }},
	{"lsm", func() Engine { return NewLSMEngine(Options{FlushLimit: 200, SyncBytes: 0, MaxRuns: 3}) }},
}

// snapshot captures the full observable state: every key's resident cell
// via scanAll (sorted, tombstones included).
func snapshot(e Engine) string {
	out := ""
	for _, ent := range scanAll(e) {
		c := ent.cell
		out += fmt.Sprintf("%s=%v:%q:%v;", ent.key, c.Version, c.Value, c.Tombstone)
	}
	return out
}

// TestApplyCommutativeIdempotentAcrossEngines is the replica-application
// property the repair paths rely on, asserted for BOTH engines: applying
// any permutation of a write set — with duplicated (idempotence) and
// tombstone entries — converges every engine to the identical resident
// state, and the two engines agree with each other.
func TestApplyCommutativeIdempotentAcrossEngines(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		count := int(n%24) + 4
		type write struct {
			key  string
			cell Cell
		}
		writes := make([]write, count)
		for i := range writes {
			c := Cell{
				// Timestamp collisions on purpose: Seq breaks ties.
				Version: Version{Timestamp: time.Duration(i / 3), Seq: uint64(i)},
				Value:   []byte(fmt.Sprintf("v%d-%d", seed%97, i)),
			}
			if i%6 == 5 {
				c.Tombstone = true
				c.Value = nil
			}
			writes[i] = write{key: fmt.Sprintf("key%d", i%5), cell: c}
		}
		// Duplicate a random sample (idempotence under redelivery).
		for i := 0; i < count/3; i++ {
			writes = append(writes, writes[rng.IntN(count)])
		}

		apply := func(build func() Engine, perm []int) string {
			e := build()
			for _, idx := range perm {
				e.Apply(writes[idx].key, writes[idx].cell)
			}
			return snapshot(e)
		}

		base := make([]int, len(writes))
		for i := range base {
			base[i] = i
		}
		want := apply(engineUnderTest[0].build, base)
		for trial := 0; trial < 4; trial++ {
			perm := append([]int(nil), base...)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			for _, eng := range engineUnderTest {
				if got := apply(eng.build, perm); got != want {
					t.Logf("%s diverged:\n got %s\nwant %s", eng.name, got, want)
					return false
				}
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestEnginesAgreeAfterCrashRecovery: with per-record sync the LSM
// engine must come back from a crash holding exactly what a never-crashed
// engine holds, and after a flush, a compaction and each recovery, keys
// it never held — below, between and above the resident ones — must miss.
func TestEnginesAgreeAfterCrashRecovery(t *testing.T) {
	mem := NewMemEngine(0)
	lsm := NewLSMEngine(Options{FlushLimit: 300, SyncBytes: 0, MaxRuns: 3})
	var seq uint64
	write := func(k, v string, tomb bool) {
		seq++
		c := Cell{Version: Version{Timestamp: time.Duration(seq), Seq: seq}, Tombstone: tomb}
		if !tomb {
			c.Value = []byte(v)
		}
		mem.Apply(k, c)
		lsm.Apply(k, c)
	}
	absent := []string{"", "a", "k", "k1\x00", "k10a", "k4x", "k99", "z"}
	agree := func(stage string) {
		t.Helper()
		if got, want := snapshot(lsm), snapshot(mem); got != want {
			t.Fatalf("%s: state diverged:\n got %s\nwant %s", stage, got, want)
		}
		for _, k := range absent {
			if c, ok := lsm.Get(k); ok {
				t.Fatalf("%s: absent key %q read %+v", stage, k, c)
			}
		}
	}
	for i := 0; i < 50; i++ {
		write(fmt.Sprintf("k%d", i%11), fmt.Sprintf("v%d", i), i%7 == 6)
		switch {
		case i%12 == 11: // the third flush compacts
			lsm.Flush()
			agree(fmt.Sprintf("flush after write %d", i))
		case i == 25:
			lsm.Crash()
			lsm.Recover()
			agree("mid-run recovery")
		}
	}
	if st := lsm.Stats(); st.Compactions == 0 || st.Runs < 2 {
		t.Fatalf("sequence left no compacted run under a newer one: %+v", st)
	}
	lsm.Crash()
	lsm.Recover()
	agree("post-recovery")
}

// mergeRunsReference is the compaction merge by key: every entry into a
// map of winners (oldest run first, a later entry replacing the winner
// only when strictly After), then all keys sorted. Kept as the oracle the
// id merge must equal once its output is sorted by key.
func mergeRunsReference(runs []run) run {
	winners := make(map[string]runEntry)
	for i := range runs {
		for _, ent := range runs[i].entries {
			if old, ok := winners[ent.key]; !ok || ent.cell.Version.After(old.cell.Version) {
				winners[ent.key] = ent
			}
		}
	}
	keys := make([]string, 0, len(winners))
	for k := range winners {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	merged := make([]runEntry, 0, len(keys))
	for _, k := range keys {
		merged = append(merged, winners[k])
	}
	return sealRun(merged)
}

// TestMergeRunsEqualsMapSortMerge: on 1–8 random runs that overwrite each
// other, each in a shuffled (write) order, their keys given ids by one
// keytab.Table — version ties across runs, out-of-order versions and
// tombstones included — the id merge, sorted by key, yields the
// reference's entries and byte count exactly, with no spare capacity,
// and leaves its scratch (shared by every case) all zero.
func TestMergeRunsEqualsMapSortMerge(t *testing.T) {
	var ids keytab.Table[struct{}]
	var pos []int32
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 11))
		universe := 1 + rng.IntN(40)
		runs := make([]run, 1+rng.IntN(8))
		for r := range runs {
			var entries []runEntry
			for k := 0; k < universe; k++ {
				if rng.IntN(3) == 0 {
					continue
				}
				c := Cell{
					// Few distinct versions: ties and newer-in-older-run both occur.
					Version: Version{Timestamp: time.Duration(rng.IntN(4)), Seq: uint64(rng.IntN(3))},
					Value:   []byte(fmt.Sprintf("r%d-k%d", r, k)), // names its run: a wrong winner on a tie shows
				}
				if rng.IntN(5) == 0 {
					c.Tombstone, c.Value = true, nil
				}
				key := fmt.Sprintf("key%03d", k)
				id, _ := ids.Insert(key)
				entries = append(entries, runEntry{key: key, cell: c, id: int32(id)})
			}
			runs[r] = sealRun(entries)
		}
		for r := range runs {
			rng.Shuffle(len(runs[r].entries), func(i, j int) {
				runs[r].entries[i], runs[r].entries[j] = runs[r].entries[j], runs[r].entries[i]
			})
		}
		if n := ids.Len(); len(pos) < n {
			pos = append(pos, make([]int32, n-len(pos))...)
		}
		got, want := mergeRuns(runs, pos), mergeRunsReference(runs)
		spare := cap(got.entries) - len(got.entries)
		sortEntries(got.entries)
		if !reflect.DeepEqual(got, want) || spare != 0 || slices.ContainsFunc(pos, func(p int32) bool { return p != 0 }) {
			t.Logf("seed %d:\n got %d bytes %+v (%d spare)\nwant %d bytes %+v\nscratch %v",
				seed, got.bytes, got.entries, spare, want.bytes, want.entries, pos)
			return false
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestReserveAndApplyAtMatchApply: a sized engine fed tokens by its caller
// ends exactly where an engine that grew and hashed on its own does —
// cells, counters, insertion order and the token of every indexed key —
// whether Reserve found the engine empty or already holding data.
func TestReserveAndApplyAtMatchApply(t *testing.T) {
	for _, eng := range engineUnderTest {
		plain, sized := eng.build(), eng.build()
		seq := uint64(0)
		for round, n := range []int{0, 40, 25} {
			sized.Reserve(n)
			for i := 0; i < n; i++ {
				seq++
				// Overlapping rounds and an older resend: inserts,
				// replacements and refusals all occur.
				key := fmt.Sprintf("key%03d", (i*7+round*11)%60)
				c := Cell{Version: Version{Timestamp: time.Duration(seq % 5), Seq: seq}, Value: []byte(key)}
				if got, want := sized.ApplyAt(key, ring.KeyToken(key), c), plain.Apply(key, c); got != want {
					t.Fatalf("%s: ApplyAt(%s) = %v, Apply = %v", eng.name, key, got, want)
				}
			}
		}
		if got, want := engineDump(sized), engineDump(plain); got != want {
			t.Errorf("%s: engines differ:\n got %s\nwant %s", eng.name, got, want)
		}
	}
}

// engineDump renders what an engine shows through its interface, layout
// free: Stats and Bytes, then in KeyAt order every key with its Peek cell
// and whether a snapshot of the one-token arc ending at the key's ring
// token streams it (the token the engine filed the key under). Taking
// snapshots flushes an LSM memtable, so the counters come first.
func engineDump(e Engine) string {
	out := fmt.Sprintf("stats %+v bytes %d keys %d\n", e.Stats(), e.Bytes(), e.KeyCount())
	for i := 0; i < e.KeyCount(); i++ {
		k := e.KeyAt(i)
		c, ok := e.Peek(k)
		out += fmt.Sprintf("%s=%v:%v:%q:%v;", k, ok, c.Version, c.Value, c.Tombstone)
	}
	for i := 0; i < e.KeyCount(); i++ {
		k := e.KeyAt(i)
		tok := ring.KeyToken(k)
		streamed := false
		it := e.SnapshotRanges([]ring.Range{{Start: tok - 1, End: tok}})
		for sk, _, ok := it.Next(); ok; sk, _, ok = it.Next() {
			streamed = streamed || sk == k
		}
		out += fmt.Sprintf("%s@%v;", k, streamed)
	}
	return out
}
