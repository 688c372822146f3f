// Package storage implements the per-node storage engines of the
// replicated store: versioned last-write-wins cells behind a common
// Engine interface. Conflict resolution follows Cassandra's model: the
// cell with the highest (timestamp, sequence) wins regardless of arrival
// order, which makes replica application commutative and idempotent — the
// property anti-entropy and hinted handoff rely on, whichever engine
// holds the data.
//
// Two engines implement the interface:
//
//   - MemEngine: the original volatile map with flush *accounting* only.
//     Crash loses everything; Recover starts empty.
//   - LSMEngine: a durable LSM-lite — append-only WAL, an in-memory
//     memtable that flushes to immutable sorted runs, merge-reads across
//     runs with tombstone handling, and size-tiered compaction. Crash
//     loses only the un-fsynced WAL tail; Recover reloads the runs and
//     replays the durable WAL prefix.
package storage

import "repro/internal/ring"

// Engine is a single node's key-value storage. It is not safe for
// concurrent use; node actors access it from one goroutine/event at a
// time.
//
// The lifecycle methods model the process, not the network: Flush forces
// a durability point, Crash kills the process (volatile state is lost;
// what survives depends on the engine), Recover rebuilds from whatever
// survived. Network-level failure (traffic dropped, state intact) is the
// transport's Fail/Recover, not the engine's.
type Engine interface {
	// Get returns the resident cell for key, counting the read.
	// Tombstones are returned with ok=true; callers decide visibility.
	Get(key string) (Cell, bool)
	// Peek is Get without touching the read counters (used by repair and
	// anti-entropy bookkeeping).
	Peek(key string) (Cell, bool)
	// Apply merges cell into the engine under last-write-wins and
	// reports whether it became the resident version.
	Apply(key string, c Cell) bool
	// ApplyAt is Apply for a caller that has already placed the key on
	// the ring: tok must be ring.KeyToken(key), which the engine would
	// otherwise hash itself the first time it sees the key.
	ApplyAt(key string, tok ring.Token, c Cell) bool
	// Reserve is the sizing hint of a bulk load: the caller is about to
	// apply n records, so the engine makes room for n more keys now
	// instead of growing while they arrive. It changes no observable
	// state.
	Reserve(n int)
	// Delete applies a tombstone with the given version.
	Delete(key string, v Version) bool

	// Len reports the number of resident keys (tombstones included).
	Len() int
	// Bytes reports the live data size in bytes (resident cells only,
	// superseded versions in older runs excluded).
	Bytes() int64
	// KeyCount reports the number of distinct keys ever inserted (map
	// iteration order is nondeterministic in Go, so deterministic
	// sampling goes through the insertion-ordered key list instead).
	KeyCount() int
	// KeyAt returns the i-th key in insertion order.
	KeyAt(i int) string
	// Keys returns all resident keys in sorted order. Callers must not
	// mutate the returned slice.
	Keys() []string
	// Scan calls fn for resident cells with from <= key < to in sorted
	// key order until fn returns false; empty bounds are unbounded.
	// Tombstones are included.
	Scan(from, to string, fn func(key string, c Cell) bool)
	// Range calls fn for every resident cell in unspecified order until
	// fn returns false. Mutating the engine during Range is not allowed.
	Range(fn func(key string, c Cell) bool)
	// SnapshotRanges returns a point-in-time iterator over the resident
	// cells whose key token (ring.KeyToken) falls inside one of the given
	// arcs, in sorted key order — the snapshot-streaming source for
	// bootstrap and rejoin. The list must follow ring's ordering
	// invariant (ascending by end token, at most one wrapping arc and
	// that one first — the shape ring.Diff emits); an empty range set
	// yields an empty snapshot. The LSM engine seals its memtable first;
	// the mem engine copies its cells out. Mutations after the call do
	// not appear.
	SnapshotRanges(ranges []ring.Range) SnapshotIter

	// Stats reports the engine's operation and durability counters.
	Stats() Stats
	// Flush forces a durability point: the LSM engine seals its memtable
	// into a sorted run; the mem engine only accounts the flush.
	Flush()
	// Crash simulates a process kill: volatile state is dropped. The
	// engine must not be used again until Recover.
	Crash()
	// Recover rebuilds the engine from its durable state (runs plus the
	// fsynced WAL prefix for the LSM engine; nothing for the mem engine)
	// and reports what was recovered. Without a preceding Crash it is a
	// no-op.
	Recover() RecoverStats
	// Close releases external resources (the file-backed WAL); the
	// engine must not be used afterwards.
	Close() error
}

// Stats aggregates an engine's operation and durability counters.
// Counters are metering infrastructure and survive Crash/Recover (the
// experiments bill cumulative resource usage, not per-incarnation usage).
type Stats struct {
	Reads    uint64 // Get calls
	Writes   uint64 // Apply calls
	Rejected uint64 // writes dropped as older than the resident cell

	Flushes      uint64 // memtable seals (LSM) or flush-accounting events (mem)
	FlushedBytes uint64 // cumulative bytes written out by flushes
	Crashes      uint64
	Replays      uint64 // Recover calls

	// LSM-only counters; zero for MemEngine.
	WALAppends     uint64 // records appended to the WAL
	WALBytes       uint64 // bytes appended to the WAL
	WALSyncs       uint64 // durability points: one write + one fdatasync each on the file WAL
	LostRecords    uint64 // un-fsynced records dropped by crashes
	Runs           int    // resident sorted runs
	RunEntries     int    // entries across resident runs (superseded included)
	Compactions    uint64
	CompactedBytes uint64 // bytes rewritten by compaction
}

// RecoverStats reports what one Recover call rebuilt.
type RecoverStats struct {
	RunsLoaded int    // durable sorted runs found
	RunEntries int    // entries across those runs
	WALRecords uint64 // records replayed from the durable WAL prefix
	WALBytes   uint64 // bytes of WAL replayed
	TornTail   bool   // replay stopped at a torn or corrupt record
	Keys       int    // distinct keys resident after recovery
}

// Kind selects a storage engine implementation.
type Kind int

const (
	// Mem is the volatile map engine (the default): flush accounting
	// only, a crash loses every write.
	Mem Kind = iota
	// LSM is the durable WAL + LSM-lite engine: a crash loses only the
	// un-fsynced WAL tail.
	LSM
)

// String names the kind for tables and flags.
func (k Kind) String() string {
	if k == LSM {
		return "lsm"
	}
	return "mem"
}

// Options parameterizes engine construction. The zero value is a valid
// MemEngine configuration.
type Options struct {
	// FlushLimit is the memtable flush threshold in bytes; 0 disables
	// flushing (the LSM engine then keeps everything in memtable + WAL).
	FlushLimit int64
	// SyncBytes is the LSM WAL sync cadence: records gather in memory
	// until the unsynced tail reaches this many bytes, then one sync
	// makes them durable together (on the file WAL: one write and one
	// fdatasync for the whole window). 0 syncs every record (nothing is
	// ever lost to a crash).
	SyncBytes int64
	// MaxRuns triggers size-tiered compaction when the number of sorted
	// runs reaches it; 0 defaults to 4.
	MaxRuns int
	// Path, when set, backs the LSM WAL with a real file (the live
	// engine maps WAL latencies to real I/O this way); empty keeps the
	// WAL as a deterministic in-memory byte log (simulation). The file
	// is one recycled segment: truncated at open, rewound (not cut) by
	// every memtable flush, so it holds the size of the longest log one
	// memtable generation wrote. It backs crash recovery within this
	// process only; no later process reads it.
	Path string
}

// New builds an engine of the given kind.
func New(kind Kind, opts Options) Engine {
	if kind == LSM {
		return NewLSMEngine(opts)
	}
	return NewMemEngine(opts.FlushLimit)
}
