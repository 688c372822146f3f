// Command benchmark is the repository's benchmark: four named
// workloads, end-to-end metrics a client of the store observes, and a
// separate traced run that gives per-layer metrics. BENCHMARK.json at
// the repository root is its contract; README.md explains every metric.
//
//	bash benchmark/run.sh --workload serve-read-heavy --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh --workload serve-read-heavy --seed 1 --seconds 25 --trace 1
//	bash benchmark/run.sh --check
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Everything else a reader
// needs (per-slice values, sample counts, environment) is printed
// before it and saved under .bench_build/results/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// buildDir is the only directory the benchmark writes to, relative to
// the working directory (the checkout root). run.sh builds here too.
const buildDir = ".bench_build"

// watchdog is the longest one run may take before it gives up, safely
// inside the contract's 180 s.
const watchdog = 170 * time.Second

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last-line object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment records what is needed to read a result file later.
type environment struct {
	Commit      string `json:"commit"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GOGC        string `json:"gogc"`
	Kernel      string `json:"kernel"`
	Loop        string `json:"loop"`
	FlushPolicy string `json:"flush_policy,omitempty"`
}

func readEnvironment(w *workload) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       os.Getenv("GOGC"),
		Kernel:     "unknown",
		Loop:       fmt.Sprintf("closed, 1 connection x depth 1 / %d, store and reference slices of %v / %v in turn", maxDepth, storeSlice, refSlice),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	if env.GOGC == "" {
		env.GOGC = "400 (set by the benchmark, as cmd/storeserve does)"
		if w.sim {
			env.GOGC = "100 (runtime default)"
		}
	}
	if w.sim {
		env.Loop = fmt.Sprintf("closed, %d simulated client threads", simThreads)
	}
	if w.lsm {
		env.FlushPolicy = fmt.Sprintf("file WAL, fsync every 16 KiB (WALSyncBytes default), memtable flush at %d bytes, MaxRuns 4", w.flushLimit)
	}
	return env
}

// resultFile is what one run saves: the contract's result plus
// everything needed to interpret it.
type resultFile struct {
	Workload    string      `json:"workload"`
	Why         string      `json:"why"`
	Seed        uint64      `json:"seed"`
	Seconds     int         `json:"seconds"`
	Trace       bool        `json:"trace"`
	Environment environment `json:"environment"`
	WallS       float64     `json:"wall_s"`
	Result      result      `json:"result"`
	Detail      any         `json:"detail"`
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Uint64("seed", 1, "seed of the key/op stream (RunSpec.Seed for sim-harmony)")
	seconds := flag.Int("seconds", 25, "seconds of measurement")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	check := flag.Bool("check", false, "run every workload twice and compare the two sets against the bounds")
	flag.Parse()

	if *check {
		os.Exit(runCheck(*seed, *seconds))
	}
	w := findWorkload(*name)
	if w == nil {
		fatalf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	os.Exit(run(w, *seed, *seconds, *trace != 0))
}

// run performs one run in this process and returns its exit code: 0
// only when the run completed and every correctness check passed.
func run(w *workload, seed uint64, seconds int, trace bool) int {
	time.AfterFunc(watchdog, func() { fatalf("run exceeded %v", watchdog) })
	// One core for the store, the load generator and the reference
	// together, as the repository's own serving figures were measured:
	// the store runs every operation under one engine lock, and on a
	// shared host a second thread adds the wake-ups between two virtual
	// CPUs to every request, which repeat far worse than the program.
	if !w.sim && os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
	c, err := readContract(contractPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: run from the repository root: %v\n", err)
		return 1
	}

	// WAL files and other scratch live under the build directory and go
	// when the run ends.
	scratch := filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	start := time.Now()
	runner := endToEnd
	if trace {
		runner = traced
	}
	res, detail, err := runner(w, seed, seconds, scratch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}

	// The contract and the code must name the same metrics.
	if err := c.verify(res, trace); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}

	file := resultFile{
		Workload: w.name, Why: w.why, Seed: seed, Seconds: seconds, Trace: trace,
		Environment: readEnvironment(w), WallS: time.Since(start).Seconds(),
		Result: res, Detail: detail,
	}
	pretty, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(pretty))
	t := 0
	if trace {
		t = 1
	}
	path := filepath.Join(buildDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, t))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		err = os.WriteFile(path, append(pretty, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: result file not saved: %v\n", err)
	}

	last, _ := json.Marshal(res)
	fmt.Println(string(last))
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEnd runs one untraced run and maps its report onto the
// end-to-end metrics of BENCHMARK.json.
func endToEnd(w *workload, seed uint64, seconds int, scratch string) (result, any, error) {
	if w.sim {
		rep, err := runSim(seed, seconds)
		if err != nil {
			return result{}, nil, err
		}
		res := result{Metrics: map[string]metric{
			"setup_s":           {median(rep.SetupS), "s"},
			"ops_per_s":         {rep.over(func(r simReplay) float64 { return float64(r.MeasuredOps) / r.WallS }), "1/s"},
			"get_p50_us":        {rep.GetP50us, "us"},
			"get_p95_us":        {rep.GetP95us, "us"},
			"set_p50_us":        {rep.SetP50us, "us"},
			"set_p95_us":        {rep.SetP95us, "us"},
			"cost_usd_per_mops": {rep.over(func(r simReplay) float64 { return r.CostPerM }), "USD/Mops"},
		}}
		// Harmony must hold the stale rate under alpha on every seed
		// without failing an operation.
		res.Correct = true
		for _, r := range rep.Replays {
			res.Attempted += r.MeasuredOps
			res.Failed += r.Failed
			res.Correct = res.Correct && r.Failed == 0 && r.StaleRate <= harmonyAlpha
		}
		return res, rep, nil
	}
	rep, err := runServe(w, seed, seconds, scratch)
	if err != nil {
		return result{}, nil, err
	}
	res := result{
		Correct:   rep.Failed == 0 && rep.StaleRate == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics: map[string]metric{
			"setup_s":           {median(rep.SetupS), "s"},
			"ops_per_s":         {rep.Stats["ops_per_s"].Value, "1/s"},
			"get_p50_us":        {rep.Stats["get_p50_us"].Value, "us"},
			"get_p95_us":        {rep.Stats["get_p95_us"].Value, "us"},
			"set_p50_us":        {rep.Stats["set_p50_us"].Value, "us"},
			"set_p95_us":        {rep.Stats["set_p95_us"].Value, "us"},
			"cost_usd_per_mops": {rep.CostPerM, "USD/Mops"},
		},
	}
	return res, rep, nil
}
