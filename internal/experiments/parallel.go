package experiments

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// The parallel experiment driver. Every experiment table is a set of
// fully independent simulation runs (each builds its own engine, cluster,
// monitor and RNG streams from its spec), so the runs fan out across a
// worker pool while the rows merge back in input order — the output is
// byte-identical to the sequential loop, the wall-clock is divided by the
// core count. Individual simulations stay single-threaded; determinism is
// per-run by construction.

// Workers reports the worker-pool width used for fan-out: GOMAXPROCS by
// default, REPRO_WORKERS when set (tests force >1 on single-core boxes;
// 1 gives one worker for debugging and deterministic profiles).
func Workers() int {
	if s := os.Getenv("REPRO_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// parallelMap runs f over items on the worker pool and returns results in
// input order. A panic in any worker (e.g. a stalled workload) is
// re-raised in the caller once the pool has drained.
func parallelMap[T, R any](items []T, f func(T) R) []R {
	results := make([]R, len(items))
	if len(items) == 0 {
		return results
	}
	workers := Workers()
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		for i := range items {
			results[i] = f(items[i])
		}
		return results
	}
	var (
		next      atomic.Int64   //repolint:allow simpure fan-out driver: runs are independent, rows merge in spec order
		panicOnce sync.Once      //repolint:allow simpure fan-out driver: first panic wins, re-raised after drain
		wg        sync.WaitGroup //repolint:allow simpure fan-out driver: joins the worker pool before results are read
		panicked  any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1) //repolint:allow simpure fan-out driver: each worker owns disjoint result slots
		go func() {
			defer wg.Done() //repolint:allow simpure fan-out driver: pool join point
			for {
				i := int(next.Add(1)) - 1 //repolint:allow simpure fan-out driver: work-stealing index, not sim state
				if i >= len(items) {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicOnce.Do(func() { panicked = r }) //repolint:allow simpure fan-out driver: first panic wins
						}
					}()
					results[i] = f(items[i])
				}()
			}
		}()
	}
	wg.Wait() //repolint:allow simpure fan-out driver: barrier before deterministic merge
	if panicked != nil {
		panic(panicked)
	}
	return results
}

// RunAll executes independent experiment specs across the worker pool and
// returns their results in spec order.
func RunAll(specs []RunSpec) []RunResult {
	return parallelMap(specs, Run)
}
