package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// contract is the part of BENCHMARK.json the benchmark reads back: the
// metric names it must report and the bounds by which an end-to-end
// metric may worsen.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// contractPath is BENCHMARK.json seen from the working directory of a
// run, the repository root.
const contractPath = "BENCHMARK.json"

func readContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// verify checks that a run reported exactly the metrics the contract
// lists for its kind, with their units.
func (c *contract) verify(res result, trace bool) error {
	want := c.EndToEnd
	if trace {
		want = c.PerLayer
	}
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("run reported %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s of BENCHMARK.json was not reported", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s reported in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		}
	}
	return nil
}

// runOnce runs one workload in a process of its own, as the driver
// does, and returns the last-line result.
func runOnce(exe, workload string, seed uint64, seconds int) (result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	return res, nil
}

// runCheck runs the full set of workloads twice on the same code and
// compares the two sets metric by metric: the second may not be worse
// than the first by more than the metric's bound, no operation may
// fail, and the simulator's virtual results must be bit-equal.
func runCheck(seed uint64, seconds int) int {
	c, err := readContract(contractPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: -check runs from the repository root: %v\n", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}

	start := time.Now()
	var sets [2]map[string]result
	for i := range sets {
		sets[i] = make(map[string]result)
		for _, w := range workloads {
			res, err := runOnce(exe, w.name, seed, seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
			sets[i][w.name] = res
		}
	}

	ok := true
	fmt.Printf("%-20s %-18s %14s %14s %8s %7s  %s\n", "workload", "metric", "first", "second", "worse", "bound", "")
	for _, w := range workloads {
		a, b := sets[0][w.name], sets[1][w.name]
		for _, m := range c.EndToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			// Virtual time repeats exactly for a seed; wall time does not.
			exact := w.sim && m.Name != "ops_per_s" && m.Name != "setup_s"
			switch {
			case exact && va != vb:
				verdict = "FAIL: not bit-equal"
			case worse > m.Bound:
				verdict = "FAIL: beyond the bound"
			case exact:
				verdict = "ok, bit-equal"
			}
			ok = ok && verdict[:2] == "ok"
			fmt.Printf("%-20s %-18s %14.6g %14.6g %+7.1f%% %6.0f%%  %s\n", w.name, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
		if a.Failed+b.Failed > 0 || !a.Correct || !b.Correct {
			fmt.Printf("%-20s FAIL: failed operations %d and %d, correct %v and %v\n", w.name, a.Failed, b.Failed, a.Correct, b.Correct)
			ok = false
		}
	}
	fmt.Printf("wall time of both sets: %.0f s\n", time.Since(start).Seconds())
	if !ok {
		return 1
	}
	return 0
}
