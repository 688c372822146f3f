package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/harmony"
	"repro/internal/kv"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/wire"
	"repro/internal/ycsb"
)

// The layer probes of the traced run. Each one feeds a workload's own
// keys, values and mix to one layer's public functions and records
// spans around the calls. Every program function called from here is
// listed in README.md ("Pinned API surface"): a refactor that moves one
// must move the benchmark with it, deliberately.

// chunk is how many calls one leaf span covers.
const chunk = 256

// shape is what a probe needs of a workload: its op stream and keys.
type shape struct {
	w      *workload
	seed   uint64
	keys   keyTable
	keyStr []string // keys as strings, for the store's string-keyed API
}

func newShape(w *workload, seed uint64, keys keyTable) *shape {
	s := &shape{w: w, seed: seed, keys: keys, keyStr: make([]string, w.keys)}
	for i := range s.keyStr {
		s.keyStr[i] = string(keys.key(i))
	}
	return s
}

// stream returns connection 0's op stream from its beginning: every
// probe replays the same operations.
func (s *shape) stream() *opStream {
	var zipf *zipfian
	if s.w.zipfian {
		zipf = newZipfian(s.w.keys, zipfTheta)
	}
	return newOpStream(s.w, zipf, s.seed, 0)
}

func (s *shape) value(enc *encoder, key int, seq uint64) []byte {
	return enc.appendValue(make([]byte, 0, s.w.valueSize), key, seq)
}

// roundBatches is how many batches one level runs before the other
// takes its turn (see traceRun.storeLevels).
const roundBatches = 64

// probeLoopback replays one round of batches over a RESP connection at
// a fixed depth, one span per batch.
func probeLoopback(tr *tracer, name string, c *client, depth int) error {
	root := tr.begin(name, -1)
	for i := 0; i < roundBatches; i++ {
		id := tr.begin(name+".batch", root)
		_, _, err := c.batch(depth)
		tr.end(id, depth)
		if err != nil {
			return err
		}
	}
	tr.end(root, 0)
	return nil
}

// directReplay issues the workload's operations straight into the
// engine, as the server's execute does: one Engine.Do per batch, session
// reads and writes inside it, and a wait for the last completion
// (immediate in a single process, from peer frames on the mesh).
type directReplay struct {
	d      *repro.Live
	sess   repro.Session
	sh     *shape
	enc    *encoder
	ops    *opStream
	depth  int
	round  []directOp // one round's operations, generated before it is timed
	failed atomic.Uint64
}

type directOp struct {
	key string
	val []byte // nil: read
}

func newDirectReplay(d *repro.Live, sh *shape, depth int) *directReplay {
	return &directReplay{
		d:     d,
		sess:  d.StaticSession(repro.Quorum, repro.Quorum),
		sh:    sh,
		enc:   newEncoder(sh.keys, sh.w.valueSize),
		ops:   sh.stream(),
		depth: depth,
		round: make([]directOp, roundBatches*depth),
	}
}

// run replays one round of batches, one span per batch.
func (r *directReplay) run(tr *tracer, name string) {
	for i := range r.round {
		key, set := r.ops.next()
		r.round[i] = directOp{key: r.sh.keyStr[key]}
		if set {
			r.ops.seq++
			r.round[i].val = r.sh.value(r.enc, key, r.ops.seq)
		}
	}
	root := tr.begin(name, -1)
	for b := 0; b < roundBatches; b++ {
		batch := r.round[b*r.depth : (b+1)*r.depth]
		var remaining atomic.Int32
		remaining.Store(int32(len(batch)))
		finished := make(chan struct{})
		dec := func() {
			if remaining.Add(-1) == 0 {
				close(finished)
			}
		}
		id := tr.begin(name+".batch", root)
		r.d.Engine.Do(func() {
			for i := range batch {
				o := &batch[i]
				if o.val == nil {
					r.sess.Read(o.key, func(res repro.ReadResult) {
						if res.Err != nil || len(res.Value) < len(o.key) || string(res.Value[:len(o.key)]) != o.key {
							r.failed.Add(1)
						}
						dec()
					})
				} else {
					r.sess.Write(o.key, o.val, func(res repro.WriteResult) {
						if res.Err != nil {
							r.failed.Add(1)
						}
						dec()
					})
				}
			}
		})
		<-finished
		tr.end(id, len(batch))
	}
	tr.end(root, 0)
}

// probeDoEmpty times the engine's dispatch alone: the lock, an empty
// function and the run-queue drain.
func probeDoEmpty(tr *tracer, d *repro.Live, n int) {
	for done := 0; done < n; done += chunk {
		id := tr.begin("live.do_empty", -1)
		for i := 0; i < chunk; i++ {
			d.Engine.Do(func() {})
		}
		tr.end(id, chunk)
	}
}

// probeStorage builds the workload's engine on its own, preloads every
// key and replays n operations as Get and Apply calls, timing the two
// kinds in separate spans per chunk.
func probeStorage(tr *tracer, sh *shape, n int, dir string) error {
	kind, opts := storage.Mem, storage.Options{}
	if sh.w.lsm {
		kind = storage.LSM
		def := kv.DefaultConfig()
		opts = storage.Options{
			FlushLimit: sh.w.flushLimit,
			SyncBytes:  def.WALSyncBytes,
			MaxRuns:    def.MaxRuns,
			Path:       filepath.Join(dir, "probe-wal.log"),
		}
	}
	eng := storage.New(kind, opts)
	enc := newEncoder(sh.keys, sh.w.valueSize)
	seq := uint64(0)
	cell := func(key int) storage.Cell {
		seq++
		return storage.Cell{
			Version: storage.Version{Timestamp: time.Duration(seq), Seq: seq},
			Value:   sh.value(enc, key, seq),
		}
	}
	for k := 0; k < sh.w.keys; k++ {
		eng.Apply(sh.keyStr[k], cell(k))
	}
	ops := sh.stream()
	gets := make([]string, 0, chunk)
	type put struct {
		key  string
		cell storage.Cell
	}
	puts := make([]put, 0, chunk)
	missing := 0
	for done := 0; done < n; done += chunk {
		gets, puts = gets[:0], puts[:0]
		for i := 0; i < chunk; i++ {
			key, set := ops.next()
			if set {
				puts = append(puts, put{sh.keyStr[key], cell(key)})
			} else {
				gets = append(gets, sh.keyStr[key])
			}
		}
		id := tr.begin("storage.get", -1)
		for _, k := range gets {
			if _, ok := eng.Get(k); !ok {
				missing++
			}
		}
		tr.end(id, len(gets))
		id = tr.begin("storage.apply", -1)
		for i := range puts {
			eng.Apply(puts[i].key, puts[i].cell)
		}
		tr.end(id, len(puts))
	}
	if err := eng.Close(); err != nil {
		return err
	}
	if missing > 0 {
		return fmt.Errorf("storage probe: %d preloaded keys missing", missing)
	}
	return nil
}

// probeRing times replica placement for the workload's keys on the
// ring the store builds (3 nodes, default vnodes, seed 1, RF 3).
func probeRing(tr *tracer, sh *shape, n int) {
	cfg := kv.DefaultConfig()
	nodes := []netsim.NodeID{0, 1, 2}
	var strategy ring.Strategy = ring.NewSimpleStrategy(ring.New(nodes, cfg.VNodes, 1), 3)
	ops := sh.stream()
	sink := 0
	for done := 0; done < n; done += chunk {
		id := tr.begin("ring.replicas", -1)
		for i := 0; i < chunk; i++ {
			key, _ := ops.next()
			sink += len(strategy.Replicas(sh.keyStr[key]))
		}
		tr.end(id, chunk)
	}
	if sink != 3*((n+chunk-1)/chunk)*chunk {
		panic("ring probe: a key without three replicas")
	}
}

// probeWire times the program's RESP codec on the workload's own
// command bytes and reply shapes, and the mesh frame codec at its value
// size.
func probeWire(tr *tracer, sh *shape, n int) error {
	enc := newEncoder(sh.keys, sh.w.valueSize)
	ops := sh.stream()
	var cmds []byte
	sets := make([]bool, 0, n)
	for i := 0; i < n; i++ {
		key, set := ops.next()
		sets = append(sets, set)
		if set {
			cmds = enc.appendSet(cmds, key, uint64(i))
		} else {
			cmds = enc.appendGet(cmds, key)
		}
	}
	r := wire.NewRESPReader(bytes.NewReader(cmds))
	for done := 0; done < n; {
		id := tr.begin("wire.resp_decode", -1)
		k := 0
		for ; k < chunk && done < n; k, done = k+1, done+1 {
			args, err := r.ReadCommand()
			if err != nil {
				return fmt.Errorf("wire probe: command %d: %w", done, err)
			}
			if want := 2 + b2i(sets[done]); len(args) != want {
				return fmt.Errorf("wire probe: command %d has %d arguments, want %d", done, len(args), want)
			}
		}
		tr.end(id, k)
	}

	w := wire.NewRESPWriter(io.Discard)
	value := sh.value(enc, 0, 1)
	for done := 0; done < n; {
		id := tr.begin("wire.resp_encode", -1)
		k := 0
		for ; k < chunk && done < n; k, done = k+1, done+1 {
			if sets[done] {
				w.SimpleString("OK")
			} else {
				w.Bulk(value)
			}
			if k%maxDepth == maxDepth-1 {
				if err := w.Flush(); err != nil {
					return err
				}
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		tr.end(id, k)
	}

	var buf []byte
	for done := 0; done < n; done += chunk {
		id := tr.begin("wire.frame_roundtrip", -1)
		for i := 0; i < chunk; i++ {
			var err error
			if buf, err = kv.WireBenchRoundTrip(buf, uint64(done+i), value); err != nil {
				return fmt.Errorf("wire probe: %w", err)
			}
		}
		tr.end(id, chunk)
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// probeClock is the monitor's clock under the probe: it advances a
// fixed step per operation so the rate windows rotate as they would
// under load.
type probeClock struct{ now time.Duration }

func (c *probeClock) Now() time.Duration { return c.now }

// probeMonitor calls the hook functions the monitor registers on the
// cluster in the pattern one operation produces (a read: started and
// completed; a write: started, one ack per replica, completed), then
// times Snapshot and the Harmony tuner's decision on it.
func probeMonitor(tr *tracer, sh *shape, n int, opInterval time.Duration) {
	const rf = 3
	clock := &probeClock{}
	mon := monitor.New(rf, clock, monitor.DefaultOptions())
	hooks := mon.Hooks()
	ops := sh.stream()
	for done := 0; done < n; done += chunk {
		id := tr.begin("monitor.observe", -1)
		for i := 0; i < chunk; i++ {
			key, set := ops.next()
			k := sh.keyStr[key]
			clock.now += opInterval
			now := clock.now
			if set {
				hooks.WriteStarted(now, k, storage.Version{Timestamp: now, Seq: uint64(done + i)}, rf)
				for rank := 1; rank <= rf; rank++ {
					hooks.WriteAck(now, k, rank, time.Duration(rank)*opInterval)
				}
				hooks.WriteCompleted(now, kv.WriteResult{Key: k, Latency: opInterval, Acked: 2})
			} else {
				hooks.ReadStarted(now, k)
				hooks.ReadCompleted(now, kv.ReadResult{Key: k, Exists: true, Latency: opInterval, Replicas: 2})
			}
		}
		tr.end(id, chunk)
	}

	const rounds = 256
	var snap monitor.Snapshot
	id := tr.begin("monitor.snapshot", -1)
	for i := 0; i < rounds; i++ {
		snap = mon.Snapshot()
	}
	tr.end(id, rounds)

	tuner := harmony.New(harmonyAlpha, rf)
	id = tr.begin("harmony.decide", -1)
	for i := 0; i < rounds; i++ {
		tuner.Decide(snap)
	}
	tr.end(id, rounds)
}

// probeYCSB times the simulator's workload generator: the op-kind draw,
// the scrambled-Zipfian key draw and key formatting, for the paper's
// heavy read-update mix.
func probeYCSB(tr *tracer, sh *shape, n int) error {
	w := ycsb.HeavyReadUpdate(uint64(sh.w.keys))
	w.ValueSize = sh.w.valueSize
	if err := w.Validate(); err != nil {
		return err
	}
	src := stats.NewSource(sh.seed).Stream("benchmark")
	zipf := stats.NewScrambledZipfian(w.RecordCount, w.ZipfTheta)
	sink := 0
	for done := 0; done < n; done += chunk {
		id := tr.begin("ycsb.gen", -1)
		for i := 0; i < chunk; i++ {
			sink += int(w.NextOp(src))
			sink += len(sh.keyStr[zipf.Next(src)])
		}
		tr.end(id, chunk)
	}
	if sink == 0 {
		return fmt.Errorf("ycsb probe drew nothing")
	}
	return nil
}
