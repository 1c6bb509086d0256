package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the A/A check and the
// tests read.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	return &b, json.Unmarshal(raw, &b)
}

// runAA is the A/A check: n timed invocations of every workload, each
// with another seed, alternately assigned to two sets of the same code.
// It prints, per workload and end-to-end metric, both set medians, their
// difference and the bound, and returns non-zero if a difference exceeds
// its bound. The output is markdown (bench/AA_RESULTS.md is one).
func runAA(n, seconds int) int {
	root, err := findRoot()
	var bf *benchmarkFile
	var self string
	if err == nil {
		bf, err = readBenchmarkFile(root)
	}
	if err == nil {
		self, err = os.Executable()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// sets[workload][metric][set] holds the values of one set's runs.
	sets := map[string]map[string][2][]float64{}
	for i := 0; i < n; i++ {
		for _, wl := range workloads {
			cmd := exec.Command(self, "--workload", wl.name, "--seed", strconv.Itoa(i+1), "--seconds", strconv.Itoa(seconds))
			cmd.Dir = root
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: A/A run %d of %s: %v\n", i+1, wl.name, err)
				return 1
			}
			var res result
			if err := json.Unmarshal(lastLine(bytes.TrimSpace(out)), &res); err != nil {
				fmt.Fprintf(os.Stderr, "bench: A/A run %d of %s: %v\n", i+1, wl.name, err)
				return 1
			}
			if sets[wl.name] == nil {
				sets[wl.name] = map[string][2][]float64{}
			}
			for name, m := range res.Metrics {
				s := sets[wl.name][name]
				s[i%2] = append(s[i%2], m.Value)
				sets[wl.name][name] = s
			}
			fmt.Fprintf(os.Stderr, "bench: A/A run %d/%d of %s done (set %c)\n", i+1, n, wl.name, 'A'+rune(i%2))
		}
	}
	fmt.Printf("A/A check: %d runs of each workload at --seconds %d, seeds 1..%d, odd seeds in set A and even seeds in set B.\n\n", n, seconds, n)
	fmt.Println("Spread is the distance between the quartiles of all runs' values over their median: what the host and the seed do to one number.")
	fmt.Println()
	fmt.Println("| workload | metric | unit | median A | median B | difference | bound | within | spread |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	bad := 0
	for _, wl := range workloads {
		for _, m := range bf.EndToEnd {
			s := sets[wl.name][m.Name]
			a, b := median(s[0]), median(s[1])
			diff := math.Abs(b-a) / a
			verdict := "yes"
			if !(diff <= m.Bound) {
				verdict = "NO"
				bad++
			}
			fmt.Printf("| %s | %s | %s | %.4f | %.4f | %.1f%% | %.0f%% | %s | %.1f%% |\n",
				wl.name, m.Name, m.Unit, a, b, 100*diff, 100*m.Bound, verdict, spreadPct(append(s[0], s[1]...)))
		}
	}
	fmt.Printf("\n%d of %d comparisons outside their bound.\n", bad, len(workloads)*len(bf.EndToEnd))
	if bad > 0 {
		return 1
	}
	return 0
}

// spreadPct is the distance between the first and the third quartile
// as a percentage of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) (the "exclusive" method), which is
// how the benchmark's acceptance measures a metric's spread.
func spreadPct(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1 // 0-based
		lo := min(max(int(math.Floor(pos)), 0), len(s)-2)
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return 100 * (q(0.75) - q(0.25)) / median(s)
}
