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
// via Scan (sorted, tombstones included).
func snapshot(e Engine) string {
	out := ""
	e.Scan("", "", func(k string, c Cell) bool {
		out += fmt.Sprintf("%s=%v:%q:%v;", k, c.Version, c.Value, c.Tombstone)
		return true
	})
	return out
}

// TestApplyCommutativeIdempotentAcrossEngines is the replica-application
// property the repair paths rely on, asserted for BOTH engines: applying
// any permutation of a write set — with duplicated (idempotence) and
// tombstone entries — converges every engine to the identical Get/Scan
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
// engine holds.
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
	for i := 0; i < 50; i++ {
		write(fmt.Sprintf("k%d", i%11), fmt.Sprintf("v%d", i), i%7 == 6)
		if i == 25 {
			lsm.Crash()
			lsm.Recover()
		}
	}
	lsm.Crash()
	lsm.Recover()
	if got, want := snapshot(lsm), snapshot(mem); got != want {
		t.Fatalf("post-recovery state diverged:\n got %s\nwant %s", got, want)
	}
}

// mergeRunsReference is the compaction merge as it was before the linear
// k-way merge: every entry into a map of winners (oldest run first, a
// later entry replacing the winner only when strictly After), then all
// keys re-sorted. Kept as the oracle mergeRuns must equal.
func mergeRunsReference(runs []run) run {
	winners := make(map[string]Cell)
	for i := range runs {
		for _, ent := range runs[i].entries {
			if old, ok := winners[ent.key]; !ok || ent.cell.Version.After(old.Version) {
				winners[ent.key] = ent.cell
			}
		}
	}
	keys := make([]string, 0, len(winners))
	for k := range winners {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	merged := run{entries: make([]runEntry, 0, len(keys))}
	for _, k := range keys {
		c := winners[k]
		merged.entries = append(merged.entries, runEntry{key: k, cell: c})
		merged.bytes += int64(c.Size())
	}
	return merged
}

// TestMergeRunsEqualsMapSortMerge: on 1–8 random sorted runs that
// overwrite each other — version ties across runs, out-of-order versions
// and tombstones included — the linear merge yields the reference's
// entries and byte count exactly.
func TestMergeRunsEqualsMapSortMerge(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 11))
		universe := 1 + rng.IntN(40)
		runs := make([]run, 1+rng.IntN(8))
		for r := range runs {
			for k := 0; k < universe; k++ { // ascending: the run comes out sorted
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
				runs[r].entries = append(runs[r].entries, runEntry{key: fmt.Sprintf("key%03d", k), cell: c})
				runs[r].bytes += int64(c.Size())
			}
		}
		got, want := mergeRuns(runs), mergeRunsReference(runs)
		if got.bytes != want.bytes || !reflect.DeepEqual(got.entries, want.entries) {
			t.Logf("seed %d:\n got %d bytes %+v\nwant %d bytes %+v", seed, got.bytes, got.entries, want.bytes, want.entries)
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
	index := func(e Engine) *keyIndex {
		if m, ok := e.(*MemEngine); ok {
			return &m.keys
		}
		return &e.(*LSMEngine).keys
	}
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
		if got, want := snapshot(sized), snapshot(plain); got != want {
			t.Errorf("%s: cells differ:\n got %s\nwant %s", eng.name, got, want)
		}
		if got, want := sized.Stats(), plain.Stats(); got != want {
			t.Errorf("%s: stats %+v, want %+v", eng.name, got, want)
		}
		if sized.Len() != plain.Len() || sized.Bytes() != plain.Bytes() {
			t.Errorf("%s: Len/Bytes %d/%d, want %d/%d", eng.name, sized.Len(), sized.Bytes(), plain.Len(), plain.Bytes())
		}
		got, want := index(sized), index(plain)
		if !slices.Equal(got.list, want.list) || !slices.Equal(got.toks, want.toks) {
			t.Errorf("%s: key index differs:\n got %v %v\nwant %v %v", eng.name, got.list, got.toks, want.list, want.toks)
		}
	}
}
