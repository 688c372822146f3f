// Live cluster: the same store and Harmony middleware running over wall
// clock and goroutines instead of the simulator — what embedding the
// library in a real service looks like. The unified Client API is
// identical to the simulated one; the engine clock runs 10× faster than
// the wall so the demo finishes quickly, and the latencies it prints are
// in engine time, as a simulation would report them.
package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro"
)

func main() {
	topo := repro.EC2TwoAZ(8)
	cfg := repro.Defaults(topo)
	cfg.Seed = 5
	lv := repro.NewLive(topo, cfg, 0.1)
	defer lv.Close()
	ctx := context.Background()

	// Blocking single operations through a level-pinned client.
	cli := lv.StaticClient(repro.One, repro.Quorum)
	w := cli.Put(ctx, "user:42", []byte(`{"name":"ada"}`))
	fmt.Printf("write QUORUM acked in %v\n", w.Latency)
	r := cli.Get(ctx, "user:42")
	fmt.Printf("read ONE returned %q in %v\n", r.Value, r.Latency)

	// A multi-key batch is one coordinated round trip, and a per-op
	// deadline bounds the client-visible wait.
	br := cli.BatchGet(ctx, []string{"user:42", "user:43"}, repro.WithDeadline(2*time.Second))
	fmt.Printf("batch get: %d results in %v\n", len(br), br[0].Latency)

	// An adaptive client shared by concurrent goroutines.
	acli, ctl := lv.HarmonyClient(0.10) // re-tuned every 100 ms
	var wg sync.WaitGroup
	var mu sync.Mutex
	stale, total := 0, 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				key := fmt.Sprintf("item:%d", (g*31+i)%64)
				if i%2 == 0 {
					acli.Put(ctx, key, []byte("v"))
				} else {
					res := acli.Get(ctx, key)
					mu.Lock()
					total++
					if res.Stale {
						stale++
					}
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()

	// The controller ticks under the engine lock; read it there.
	var decisions int
	lv.Engine.Do(func() { decisions = len(ctl.Journal()) })
	fmt.Printf("live adaptive run: %d reads, %.1f%% stale, %d control decisions\n",
		total, 100*float64(stale)/float64(max(total, 1)), decisions)
}
