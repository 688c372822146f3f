package main

// workload is one named set of inputs. The serve workloads describe a
// RESP traffic mix against a booted store; sim-harmony is a fixed
// simulated platform (see simrun.go) and uses none of the traffic
// fields except as the shape its layer probes run with.
type workload struct {
	name string
	why  string // one line, mirrored in BENCHMARK.json and the README

	sim  bool // sim-harmony: experiments.Run, no sockets
	lsm  bool // LSM engine with a file-backed WAL (else the Mem engine)
	mesh bool // three one-node deployments meshed over loopback TCP

	keys      int     // preloaded key count
	valueSize int     // bytes per stored value
	setShare  float64 // share of SETs; the rest are GETs
	zipfian   bool    // scrambled Zipfian θ=0.99 (else uniform)
	warmup    int     // requests per connection at depth 16 before measuring, about a second's worth

	// LSM only: memtable flush threshold. Small against the data set so
	// flushes and compactions cycle many times within one run and GETs
	// merge-read across runs. WAL fsync cadence and MaxRuns stay at the
	// store's defaults (16 KiB, 4).
	flushLimit int64
}

const zipfTheta = 0.99

var workloads = []workload{
	{
		name: "serve-read-heavy",
		why:  "storeserve defaults (Mem, QUORUM) under 95/5 Zipfian: RESP codec, server batching and kv fan-out dominate, storage is a map lookup",
		keys: 100_000, valueSize: 64, setShare: 0.05, zipfian: true, warmup: 80_000,
	},
	{
		name: "serve-write-durable",
		why:  "LSM engine with a real file WAL, 50/50 uniform over data far larger than the memtable: storage does most of the work, writes sit beside merge-reads",
		lsm:  true,
		keys: 40_000, valueSize: 256, setShare: 0.5, warmup: 20_000, flushLimit: 1 << 20,
	},
	{
		name: "serve-mesh-mixed",
		why:  "three one-node deployments meshed over loopback TCP, 50/50 Zipfian: the only workload where message marshalling and the mesh loops do work",
		mesh: true,
		keys: 100_000, valueSize: 64, setShare: 0.5, zipfian: true, warmup: 40_000,
	},
	{
		name: "sim-harmony",
		why:  "the paper's Grid'5000 Harmony evaluation in the simulator: same kv code under sim+netsim, bypasses wire/server/live, prices the bill",
		sim:  true,
		// Shape of the paper's heavy read-update workload, used by the
		// layer probes of the traced run.
		keys: 100_000, valueSize: 1024, setShare: 0.5, zipfian: true, warmup: 40_000,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
