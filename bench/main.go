// Command bench is the repository's benchmark: four workloads that
// drive the public functions of internal/* from outside, measured end
// to end and layer by layer. It claims no gain; it is the ruler later
// changes are judged with. See README.md for what each workload and
// metric is for, and BENCHMARK.json for the names the driver checks.
//
//	go run ./bench --workload sim_join_paper --seed 1 --seconds 20 --trace 0
//
// One run measures one workload for --seconds, checks that the outputs
// are correct, prints every metric by name with its unit, and ends with
// one JSON line {correct, attempted, failed, metrics}. --trace 0 reports
// the end-to-end metrics; --trace 1 runs with spans and a CPU profile
// and reports the per-layer metrics. The exit code is non-zero when a
// correctness check or an operation failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "one of: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "workload seed; round r uses seed*1000+r")
		seconds = flag.Float64("seconds", 20, "how long the run measures")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: spans, CPU profile and per-layer metrics")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := run(w(full), config{seed: *seed, seconds: *seconds, trace: *traced != 0, traceDir: "bench/out", name: *name})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("%-40s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, f := range res.failures {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", *name, f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
