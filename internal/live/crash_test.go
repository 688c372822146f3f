package live

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// newLiveLSMCluster builds a live deployment on the LSM engine with
// file-backed WALs in dir: every sync window pays a real file write,
// and the sync cadence maps to real fdatasync calls — the WAL and flush
// latencies of the model become actual I/O here.
func newLiveLSMCluster(seed uint64, dir string) (*Engine, *kv.Cluster) {
	topo := netsim.SingleDC(4)
	eng := New(topo, seed)
	eng.Scale = 0.2
	cfg := kv.DefaultConfig()
	cfg.Seed = seed
	cfg.HintReplayInterval = 0
	cfg.AntiEntropyInterval = 0
	cfg.DetectionDelay = 200 * time.Millisecond
	cfg.Engine = storage.LSM
	cfg.WALSyncBytes = 0 // sync every record: the crash below loses nothing
	cfg.WALDir = dir
	var cl *kv.Cluster
	eng.Do(func() { cl = kv.New(topo, eng, cfg) })
	return eng, cl
}

// TestLiveLSMFileWALCrashRestart drives real file I/O through the live
// engine: writes land in and sync per-node WAL files on disk, a crash
// drops the victim's unsynced tail, and restart replays the file's
// durable prefix back to full state.
func TestLiveLSMFileWALCrashRestart(t *testing.T) {
	dir := t.TempDir()
	eng, cl := newLiveLSMCluster(21, dir)
	defer eng.Do(func() { cl.Close() })
	defer eng.Close()

	versions := make(map[string]storage.Version)
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("live%02d", i)
		w := blockingWrite(eng, cl, k, []byte("durable-payload"), kv.All)
		if w.Err != nil {
			t.Fatalf("write: %v", w.Err)
		}
		versions[k] = w.Version
	}

	// The WAL files must exist and carry bytes.
	var victim netsim.NodeID
	eng.Do(func() { victim = cl.Strategy().Replicas("live00")[0] })
	walFile := filepath.Join(dir, fmt.Sprintf("wal-%d.log", victim))
	if fi, err := os.Stat(walFile); err != nil || fi.Size() == 0 {
		t.Fatalf("WAL file missing or empty: %v", err)
	}

	eng.Do(func() { cl.Crash(victim) })
	time.Sleep(100 * time.Millisecond)
	var rs storage.RecoverStats
	eng.Do(func() { rs, _ = cl.Recover(victim) })
	if rs.WALRecords == 0 && rs.RunsLoaded == 0 {
		t.Fatalf("file-backed restart recovered nothing: %+v", rs)
	}

	// Per-record sync: every ALL-acked write the victim replicates must
	// be back.
	eng.Do(func() {
		e := cl.Node(victim).Engine()
		for k, v := range versions {
			mine := false
			for _, r := range cl.Strategy().Replicas(k) {
				if r == victim {
					mine = true
					break
				}
			}
			if !mine {
				continue
			}
			if cell, ok := e.Peek(k); !ok || cell.Version != v {
				t.Errorf("key %s not recovered from file WAL: ok=%v %+v", k, ok, cell)
			}
		}
	})
	time.Sleep(300 * time.Millisecond) // detector marks the node up again
	if r := blockingRead(eng, cl, "live00", kv.All); r.Err != nil || r.Stale {
		t.Fatalf("ALL read after restart: %+v", r)
	}
}
