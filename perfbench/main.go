// Command perfbench is the repository benchmark: three seeded
// workloads driven through the public entry points (repro.NewServer,
// repro.NewCluster, repro.DistributedAggregateByKey), end-to-end
// metrics measured with the benchmark's tracing off, and per-layer
// metrics from a separate traced run. See README.md.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/run.sh --workload q1-local --seed 42 --seconds 20 --trace 0
//	bash perfbench/run.sh --selfcheck
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is
// non-zero when any answer fails the correctness gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool   // self-check sizes, set by runSelfCheck only: every workload runs in about a second
	corrupt  bool   // flip one bit of one timed answer before the gate sees it
	traceOut string // where the traced run writes its spans
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line the benchmark prints.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(config) (*report, error){
	"q1-local":         runQ1Local,
	"shuffle-highcard": runShuffle,
	"serve-cluster":    runServeCluster,
}

func main() {
	// Worker processes of the serve-cluster workload re-execute this
	// binary; they never return from here.
	repro.InitWorkerProcess()

	var cfg config
	var traceFlag int
	var selfcheck bool
	flag.StringVar(&cfg.workload, "workload", "", "q1-local, shuffle-highcard or serve-cluster")
	flag.Uint64Var(&cfg.seed, "seed", 42, "workload seed; the program only sees inputs generated from it")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.BoolVar(&cfg.corrupt, "corrupt", false, "corrupt one timed answer; the correctness gate must fail the run")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "span file of the traced run (default .bench_build/traces/<workload>-<seed>.json)")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload once at tiny size and check the benchmark itself")
	flag.Parse()
	cfg.trace = traceFlag == 1

	if selfcheck {
		if err := runSelfCheck(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: selfcheck:", err)
			os.Exit(1)
		}
		fmt.Println("perfbench: selfcheck passed")
		return
	}
	run, ok := workloads[cfg.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --trace 0|1 and --seconds > 0\n", workloadNames())
		os.Exit(2)
	}
	if cfg.trace && cfg.traceOut == "" {
		cfg.traceOut = fmt.Sprintf(".bench_build/traces/%s-%d.json", cfg.workload, cfg.seed)
	}

	fp := fingerprint()
	fmt.Printf("perfbench: workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("fingerprint: %s\n", mustJSON(fp))
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := rep.outcome(cfg.trace)
	fmt.Printf("  %d answered queries, %d of them above the p90; host CPU steal %.1f%% during the timed phase\n",
		len(rep.lat), aboveCount(rep.lat, 0.90), rep.stealPct)
	printMetrics(out)
	fmt.Println(mustJSON(out))
	if !out.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d answers failed the correctness gate\n", out.Failed, out.Attempted)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// printMetrics writes one "name value unit" line per metric, sorted.
func printMetrics(o outcome) {
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, o.Metrics[n].Value, o.Metrics[n].Unit)
	}
	fmt.Printf("  attempted %d failed %d correct %v\n", o.Attempted, o.Failed, o.Correct)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, structs and numbers are marshalled
	}
	return string(b)
}
