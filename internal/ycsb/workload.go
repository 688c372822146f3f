// Package ycsb reimplements the core of the Yahoo! Cloud Serving
// Benchmark used throughout the paper's evaluation: the standard workload
// mixes (A–D, F, plus the paper's heavy read-update workload), YCSB's key
// popularity distributions, and closed- and open-loop client drivers with
// latency/throughput/staleness accounting.
package ycsb

import (
	"fmt"
	"strconv"

	"repro/internal/stats"
)

// OpKind enumerates the operation types of the core workloads.
type OpKind int

// Operation kinds.
const (
	OpRead OpKind = iota
	OpUpdate
	OpInsert
	OpReadModifyWrite
)

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpInsert:
		return "insert"
	case OpReadModifyWrite:
		return "rmw"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Distribution selects the key-popularity law.
type Distribution int

// Key distributions, as in YCSB's requestdistribution property.
const (
	DistZipfian Distribution = iota // scrambled zipfian over the record space
	DistUniform
	DistLatest // skewed toward recently inserted records
)

// Workload is a YCSB workload definition.
type Workload struct {
	Name        string
	RecordCount uint64 // records loaded before the run
	ValueSize   int    // bytes per value

	// Operation mix; proportions must sum to ≤ 1, the remainder being
	// reads.
	ReadProportion   float64
	UpdateProportion float64
	InsertProportion float64
	RMWProportion    float64

	Dist      Distribution
	ZipfTheta float64

	KeyPrefix string
}

// Validate checks the mix sums and fills defaults.
func (w *Workload) Validate() error {
	if w.RecordCount == 0 {
		return fmt.Errorf("ycsb: workload %q has no records", w.Name)
	}
	sum := w.ReadProportion + w.UpdateProportion + w.InsertProportion + w.RMWProportion
	if sum > 1.0001 {
		return fmt.Errorf("ycsb: workload %q proportions sum to %.3f > 1", w.Name, sum)
	}
	if w.ValueSize <= 0 {
		w.ValueSize = 1024
	}
	if w.ZipfTheta == 0 {
		w.ZipfTheta = stats.ZipfTheta
	}
	if w.KeyPrefix == "" {
		w.KeyPrefix = "user"
	}
	return nil
}

// Standard workloads. Value size defaults to 1 KB (YCSB uses 10 fields of
// 100 bytes).

// WorkloadA is the update-heavy mix: 50% reads, 50% updates, zipfian.
// It is the paper's "heavy read-update workload".
func WorkloadA(records uint64) Workload {
	return Workload{Name: "A", RecordCount: records,
		ReadProportion: 0.5, UpdateProportion: 0.5, Dist: DistZipfian}
}

// WorkloadB is the read-mostly mix: 95% reads, 5% updates, zipfian.
func WorkloadB(records uint64) Workload {
	return Workload{Name: "B", RecordCount: records,
		ReadProportion: 0.95, UpdateProportion: 0.05, Dist: DistZipfian}
}

// WorkloadC is read-only, zipfian.
func WorkloadC(records uint64) Workload {
	return Workload{Name: "C", RecordCount: records,
		ReadProportion: 1.0, Dist: DistZipfian}
}

// WorkloadD is read-latest: 95% reads, 5% inserts, latest distribution.
func WorkloadD(records uint64) Workload {
	return Workload{Name: "D", RecordCount: records,
		ReadProportion: 0.95, InsertProportion: 0.05, Dist: DistLatest}
}

// WorkloadF is read-modify-write: 50% reads, 50% RMW, zipfian.
func WorkloadF(records uint64) Workload {
	return Workload{Name: "F", RecordCount: records,
		ReadProportion: 0.5, RMWProportion: 0.5, Dist: DistZipfian}
}

// HeavyReadUpdate is the paper's evaluation workload: an update-heavy
// read/update mix over a zipfian-popular record space (YCSB workload A).
func HeavyReadUpdate(records uint64) Workload {
	w := WorkloadA(records)
	w.Name = "heavy-read-update"
	return w
}

// Mix returns a copy of w with a custom read/update split (used by the
// Bismar access-pattern sweeps).
func Mix(records uint64, readProp float64, dist Distribution, theta float64) Workload {
	return Workload{
		Name:           fmt.Sprintf("mix-r%.2f", readProp),
		RecordCount:    records,
		ReadProportion: readProp, UpdateProportion: 1 - readProp,
		Dist: dist, ZipfTheta: theta,
	}
}

// keyspace produces key names and popularity draws for a workload.
type keyspace struct {
	w       Workload
	zipf    *stats.ScrambledZipfian
	latest  *stats.Latest
	inserts uint64 // records inserted beyond RecordCount
	cache   []string
}

const keyCacheLimit = 1 << 22

func newKeyspace(w Workload) *keyspace {
	ks := &keyspace{w: w}
	switch w.Dist {
	case DistZipfian:
		ks.zipf = stats.NewScrambledZipfian(w.RecordCount, w.ZipfTheta)
	case DistLatest:
		ks.latest = stats.NewLatest(w.RecordCount, w.ZipfTheta)
	}
	if w.RecordCount <= keyCacheLimit {
		ks.cache = make([]string, w.RecordCount)
	}
	return ks
}

// Key formats record id i as a YCSB-style key.
func (ks *keyspace) Key(i uint64) string {
	if ks.cache != nil && i < uint64(len(ks.cache)) {
		if k := ks.cache[i]; k != "" {
			return k
		}
	}
	// Built in stack buffers (a longer prefix spills to the heap): the
	// key string is the only allocation.
	var buf [48]byte
	var digits [20]byte
	b := append(buf[:0], ks.w.KeyPrefix...)
	d := strconv.AppendUint(digits[:0], i, 10)
	for pad := 12 - len(d); pad > 0; pad-- {
		b = append(b, '0')
	}
	k := string(append(b, d...))
	if ks.cache != nil && i < uint64(len(ks.cache)) {
		ks.cache[i] = k
	}
	return k
}

// NextKey draws a key according to the workload distribution.
func (ks *keyspace) NextKey(src *stats.Source) string {
	total := ks.w.RecordCount + ks.inserts
	switch ks.w.Dist {
	case DistUniform:
		return ks.Key(src.Uint64N(total))
	case DistLatest:
		return ks.Key(ks.latest.Next(src))
	default:
		// The scrambled zipfian domain is the initially loaded records;
		// later inserts join the uniform tail implicitly.
		return ks.Key(ks.zipf.Next(src))
	}
}

// InsertKey allocates the next inserted record's key.
func (ks *keyspace) InsertKey() string {
	id := ks.w.RecordCount + ks.inserts
	ks.inserts++
	if ks.latest != nil {
		ks.latest.Advance(1)
	}
	return ks.Key(id)
}

// NextOp draws the next operation kind from the mix.
func (w Workload) NextOp(src *stats.Source) OpKind {
	u := src.Float64()
	switch {
	case u < w.UpdateProportion:
		return OpUpdate
	case u < w.UpdateProportion+w.InsertProportion:
		return OpInsert
	case u < w.UpdateProportion+w.InsertProportion+w.RMWProportion:
		return OpReadModifyWrite
	default:
		return OpRead
	}
}
