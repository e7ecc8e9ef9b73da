package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// The human-readable report goes to standard output ahead of the result
// line; everything in it is also in the -out file.

func printHeader(e env, seed int64) {
	fmt.Printf("skute benchmark: commit %s, %s, GOMAXPROCS %d, nproc %d, cpu %q\n",
		commit(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
	fmt.Printf("  seed %d, %d clients, window %v after %v warm-up, WAL directory %s on %s\n",
		seed, e.clients, e.seconds, e.warmup, e.workdir, walFilesystem(e.workdir))
	fmt.Println("  nodes, clients and generator share this process; loopback adds no delay; fsync is this sandbox's, not a device's")
}

// commit names the checkout's commit, or "unknown" outside a git
// repository (the driver's checkouts are not one).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// defsOf is the metric list a pass reports.
func defsOf(trace int) []metricDef {
	if trace == 1 {
		return perLayer
	}
	return endToEnd
}

func printResult(r *result) {
	pass := "end-to-end, tracing off"
	if r.Trace == 1 {
		pass = "per-layer and traced pass"
	}
	fmt.Printf("\n== %s (%s, seed %d, %.1fs wall) ==\n", r.Workload, pass, r.Seed, r.WallS)
	fmt.Printf("  why: %s\n", whyOf[r.Workload])
	fmt.Printf("  attempted %d, failed %d (failed_frac %.6f), outputs correct: %v\n",
		r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.Correct)
	for _, d := range defsOf(r.Trace) {
		m := r.Metrics[d.Name]
		fmt.Printf("  %-36s %14.4f %-5s", d.Name, m.Value, m.Unit)
		if p, ok := predictions[d.Name]; ok {
			fmt.Printf("  moves %s on %s", p.moves, p.on)
		}
		fmt.Println()
	}
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
}

// quartiles returns the first quartile, median and third quartile of
// vals the way Python's statistics.quantiles(vals, n=4) does (exclusive
// method), which is what the driver uses.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// runKey groups repeated runs.
type runKey struct {
	workload string
	trace    int
}

func groupRuns(results []*result) (keys []runKey, groups map[runKey][]*result) {
	groups = map[runKey][]*result{}
	for _, r := range results {
		k := runKey{r.Workload, r.Trace}
		if _, seen := groups[k]; !seen {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], r)
	}
	return keys, groups
}

func valuesOf(runs []*result, name string) []float64 {
	vals := make([]float64, 0, len(runs))
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

// printSpread reports median and quartiles of every metric over the
// repeated runs, and the quartile distance as a share of the median.
func printSpread(results []*result) {
	keys, groups := groupRuns(results)
	for _, k := range keys {
		runs := groups[k]
		fmt.Printf("\n== %s: spread over %d runs (trace %d) ==\n", k.workload, len(runs), k.trace)
		fmt.Printf("  %-36s %14s %14s %14s %8s\n", "metric", "q1", "median", "q3", "iqr/med")
		for _, d := range defsOf(k.trace) {
			vals := valuesOf(runs, d.Name)
			if len(vals) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(vals)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			fmt.Printf("  %-36s %14.4f %14.4f %14.4f %7.1f%%\n", d.Name, q1, q2, q3, 100*spread)
		}
	}
}

func writeResults(path string, results []*result) error {
	data, err := json.MarshalIndent(results, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []*result
	if err := json.Unmarshal(data, &results); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return results, nil
}
