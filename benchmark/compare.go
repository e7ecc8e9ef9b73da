package main

import (
	"fmt"
	"os"
	"slices"
)

// compareMain implements `compare A.json B.json`: A is the baseline, B
// the candidate, both written by -out. For every workload and
// end-to-end metric it prints both medians, their ratio (B over A, A
// being the base) and a verdict against the metric's bound:
//
//	worse       B's median is worse than A's by more than the bound
//	unresolved  the run-to-run spread of either side is wider than the
//	            bound, so the medians cannot be told apart
//	same        neither
//
// Run length is the benchmark's and the same on both sides: files whose
// runs measured different windows are refused. Different seeds are
// allowed (the issue's A/A procedure compares seed 1 with seed 2) and
// said out loud, because then the inputs differ and not only the code.
//
// It returns 1 on any "worse" or on a higher share of failed operations,
// 2 on unusable input.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare A.json B.json")
		return 2
	}
	a, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if err := sameWindow(a, b); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	rows, bad := compareRuns(a, b)
	fmt.Printf("base A = %s, B = %s, window %gs\n", args[0], args[1], a[0].Seconds)
	if sa, sb := seedsOf(a), seedsOf(b); !slices.Equal(sa, sb) {
		fmt.Printf("seeds differ: A ran %v, B ran %v; the two sides had different inputs\n", sa, sb)
	}
	fmt.Printf("%-26s %-18s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "A median", "B median", "B/A", "spread", "bound", "verdict")
	for _, r := range rows {
		fmt.Printf("%-26s %-18s %14.4f %14.4f %8.4f %6.1f%% %6.1f%%  %s\n",
			r.workload, r.metric, r.a, r.b, r.ratio, 100*r.spread, 100*r.bound, r.verdict)
	}
	if bad {
		return 1
	}
	return 0
}

// sameWindow fails unless every run in both files measured the same
// window.
func sameWindow(a, b []*result) error {
	if len(a) == 0 || len(b) == 0 {
		return fmt.Errorf("a result file holds no runs")
	}
	for _, r := range append(append([]*result(nil), a...), b...) {
		if r.Seconds != a[0].Seconds {
			return fmt.Errorf("runs measured windows of %gs and %gs: run length must be the same on both sides", a[0].Seconds, r.Seconds)
		}
	}
	return nil
}

// seedsOf lists the distinct seeds of runs, ascending.
func seedsOf(runs []*result) []int64 {
	var seeds []int64
	for _, r := range runs {
		if !slices.Contains(seeds, r.Seed) {
			seeds = append(seeds, r.Seed)
		}
	}
	slices.Sort(seeds)
	return seeds
}

type compareRow struct {
	workload, metric string
	a, b             float64 // medians
	ratio            float64 // b / a
	spread           float64 // the wider side's quartile distance over its median
	bound            float64
	verdict          string
}

// failedFracSlack is how much the share of failed operations may rise
// (absolute) before compare rejects the candidate.
const failedFracSlack = 0.001

func failedFrac(runs []*result) float64 {
	var attempted, failed int64
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return ratio(float64(failed), float64(attempted))
}

func spreadOf(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(vals)
	return ratio(q3-q1, q2)
}

func compareRuns(a, b []*result) (rows []compareRow, bad bool) {
	keys, ga := groupRuns(a)
	_, gb := groupRuns(b)
	for _, k := range keys {
		if k.trace != 0 || len(gb[k]) == 0 {
			continue
		}
		for _, d := range endToEnd {
			va, vb := valuesOf(ga[k], d.Name), valuesOf(gb[k], d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			row := compareRow{workload: k.workload, metric: d.Name, a: median(va), b: median(vb), bound: d.Bound, verdict: "same"}
			row.ratio = ratio(row.b, row.a)
			row.spread = max(spreadOf(va), spreadOf(vb))
			worsening := ratio(row.b-row.a, row.a)
			if d.Better == "higher" {
				worsening = -worsening
			}
			switch {
			case row.spread > d.Bound:
				row.verdict = "unresolved"
			case worsening > d.Bound:
				row.verdict = "worse"
				bad = true
			}
			rows = append(rows, row)
		}
		fa, fb := failedFrac(ga[k]), failedFrac(gb[k])
		row := compareRow{workload: k.workload, metric: "failed_frac", a: fa, b: fb, ratio: ratio(fb, fa), bound: failedFracSlack, verdict: "same"}
		if fb > fa+failedFracSlack {
			row.verdict = "worse"
			bad = true
		}
		rows = append(rows, row)
	}
	return rows, bad
}
