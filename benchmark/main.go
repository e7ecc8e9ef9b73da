// Command benchmark is the one benchmark of this repository: six named
// workloads, end-to-end and per-layer metrics, and a traced latency
// budget. BENCHMARK.json at the repository root is its contract;
// README.md in this directory explains the workloads, the predictions
// and how to read the output.
//
//	bash benchmark/run.sh                       # all workloads, both passes
//	bash benchmark/run.sh -workload one-read-hot -trace 0 -seed 7
//	bash benchmark/run.sh -repeat 5 -out A.json
//	bash benchmark/run.sh compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"skute/internal/experiments"
)

func main() { os.Exit(benchMain()) }

// benchMain runs the workloads the flags select and returns the exit
// code: 0 when every operation succeeded and every output check passed,
// 1 when one did not, 2 when the run itself could not be made.
func benchMain() int {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all six)")
		seed         = flag.Int64("seed", 1, "seed of keys, operation mix and arrival times")
		contractPath = flag.String("contract", "BENCHMARK.json", "the contract: workloads, metric names, units, bounds, run_seconds")
		seconds      = flag.Int("seconds", 0, "length of the measured window in seconds (default: the contract's run_seconds; the driver passes it)")
		trace        = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics and the traced pass; -1: both")
		repeat       = flag.Int("repeat", 1, "run each workload this many times and report median and quartiles")
		out          = flag.String("out", "", "write every run's result to this JSON file (input of `compare`)")
		traceOut     = flag.String("trace-out", "", "write the traced pass's spans to this file (JSON lines)")
		workdir      = flag.String("workdir", "", "scratch directory for WAL files (default: a temporary directory)")
	)
	flag.Parse()
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
		return 2
	}
	if err := loadContract(*contractPath); err != nil {
		return fail("%v", err)
	}
	if *seconds == 0 {
		*seconds = runSeconds
	}
	if flag.Arg(0) == "compare" {
		return compareMain(flag.Args()[1:])
	}
	if flag.NArg() > 0 {
		return fail("unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 1 || *repeat < 1 || *trace < -1 || *trace > 1 {
		return fail("-seconds and -repeat must be at least 1, -trace one of -1, 0, 1")
	}
	run := specs
	if *workloadName != "" {
		sp := specByName(*workloadName)
		if sp == nil {
			return fail("unknown workload %q", *workloadName)
		}
		run = []spec{*sp}
	}
	if *workdir == "" {
		dir, err := os.MkdirTemp("", "skute-bench-")
		if err != nil {
			return fail("%v", err)
		}
		defer os.RemoveAll(dir)
		*workdir = dir
	} else if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return fail("%v", err)
	}
	e := env{
		shape:      fullShape,
		workdir:    *workdir,
		clients:    runtime.NumCPU(),
		setups:     3,
		warmup:     3 * time.Second,
		seconds:    time.Duration(*seconds) * time.Second,
		verifyKeys: 1000,
		simScale:   experiments.Paper,
		traceOut:   *traceOut,
	}
	printHeader(e, *seed)

	passes := []int{0, 1}
	if *trace >= 0 {
		passes = []int{*trace}
	}
	var results []*result
	ok := true
	for i := range run {
		sp := &run[i]
		for _, pass := range passes {
			for rep := 0; rep < *repeat; rep++ {
				runOne := runKV
				if sp.economy {
					runOne = runEconomy
				}
				res, err := runOne(sp, *seed, pass, e)
				if err != nil {
					return fail("%s: %v", sp.name, err)
				}
				results = append(results, res)
				printResult(res)
				ok = ok && res.Correct && res.Failed == 0
			}
		}
	}
	if *repeat > 1 {
		printSpread(results)
	}
	if *out != "" {
		if err := writeResults(*out, results); err != nil {
			return fail("%v", err)
		}
	}
	// The driver's contract: one workload, one pass, one run, and the
	// last line of standard output is its result.
	if len(results) == 1 {
		r := results[0]
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int64             `json:"attempted"`
			Failed    int64             `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics})
		if err != nil {
			return fail("%v", err)
		}
		fmt.Println(string(line))
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: an operation failed or an output check did not pass")
		return 1
	}
	return 0
}
