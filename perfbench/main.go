// Command perfbench is the repository's benchmark. One process runs one
// named workload and prints every metric by name and unit; the last line of
// standard output is a JSON object with the keys correct, attempted, failed
// and metrics. Every answer a timed phase produced is checked against the
// reference engine outside the timed phases.
//
//	bash perfbench/run.sh --workload local-zipf --seed 1 --seconds 16 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// "end_to_end"); with --trace 1 the run records spans around every call into
// a layer and prints the per-layer metrics instead. See README.md for the
// workloads, their inputs and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Metric is one printed measurement.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Options are one run's command-line settings.
type Options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// SpanFile receives the traced run's spans (JSON lines).
	SpanFile string
	// Short shrinks set-up (fewer repeats, smaller warm-up and samples) for
	// the benchmark's own test; timed phases still run for Seconds.
	Short bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(Options) (*Result, error){
	"local-zipf":     runLocal,
	"cluster-zipf":   runCluster,
	"engine-prefill": runEngine,
}

func main() {
	var opts Options
	var trace int
	flag.StringVar(&opts.Workload, "workload", "", "workload: local-zipf, cluster-zipf or engine-prefill")
	flag.Int64Var(&opts.Seed, "seed", 1, "input seed (same seed, same inputs)")
	flag.Float64Var(&opts.Seconds, "seconds", 24, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&opts.SpanFile, "span-file", "", "where a traced run writes its spans (default .bench_build/spans-<workload>-<seed>.jsonl)")
	flag.Parse()
	opts.Trace = trace == 1
	run, ok := workloads[opts.Workload]
	if !ok || opts.Seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if opts.Trace && opts.SpanFile == "" {
		opts.SpanFile = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", opts.Workload, opts.Seed))
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s seed=%d workload=%s seconds=%g trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), opts.Seed, opts.Workload, opts.Seconds, trace)
	res, err := run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
