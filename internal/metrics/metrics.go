// Package metrics holds the time-series and summary-statistics types the
// simulator and experiment drivers use to capture and render the series
// behind each figure of the paper (see EXPERIMENTS.md): Series, Summary
// and Table. A running node's live instruments are internal/telemetry's.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series is a named sequence of float64 samples indexed by epoch. Appends
// must be in epoch order; gaps are not supported because the simulator
// samples every epoch.
type Series struct {
	Name   string
	Values []float64
}

// Add appends a sample.
func (s *Series) Add(v float64) { s.Values = append(s.Values, v) }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// At returns the sample of the given epoch; it panics on out-of-range
// access like a slice would.
func (s *Series) At(epoch int) float64 { return s.Values[epoch] }

// Last returns the most recent sample, or 0 for an empty series.
func (s *Series) Last() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	return s.Values[len(s.Values)-1]
}

// Summary holds the usual descriptive statistics of a sample.
type Summary struct {
	N           int
	Mean        float64
	Stddev      float64
	Min         float64
	Max         float64
	P50, P95imp float64 // medians/percentiles by nearest-rank
}

// Summarize computes descriptive statistics; an empty sample yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	s.Stddev = math.Sqrt(sq / float64(s.N))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = sorted[(s.N-1)/2]
	s.P95imp = sorted[int(math.Ceil(0.95*float64(s.N)))-1]
	return s
}

// CV returns the coefficient of variation (stddev/mean), the simulator's
// balance metric; 0 when the mean is 0.
func (s Summary) CV() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.Stddev / s.Mean
}

// Table is an ordered collection of equally long series, rendered as CSV
// or an aligned text table with an epoch column. It is the exchange format
// between experiment drivers, the CLI and EXPERIMENTS.md.
type Table struct {
	series []*Series
	byName map[string]*Series
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{byName: make(map[string]*Series)}
}

// Series returns (creating on first use) the series with the name,
// preserving insertion order for rendering.
func (t *Table) Series(name string) *Series {
	if s, ok := t.byName[name]; ok {
		return s
	}
	s := &Series{Name: name}
	t.series = append(t.series, s)
	t.byName[name] = s
	return s
}

// Rows returns the maximum series length.
func (t *Table) Rows() int {
	n := 0
	for _, s := range t.series {
		if s.Len() > n {
			n = s.Len()
		}
	}
	return n
}

// CSV renders the table with an "epoch" first column. Missing trailing
// samples of shorter series render as empty cells.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("epoch")
	for _, s := range t.series {
		b.WriteByte(',')
		b.WriteString(s.Name)
	}
	b.WriteByte('\n')
	for r := 0; r < t.Rows(); r++ {
		fmt.Fprintf(&b, "%d", r)
		for _, s := range t.series {
			b.WriteByte(',')
			if r < s.Len() {
				fmt.Fprintf(&b, "%g", s.Values[r])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Render prints every nth row as an aligned text table, always including
// the last row; n <= 1 prints everything.
func (t *Table) Render(every int) string {
	if every < 1 {
		every = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%8s", "epoch")
	for _, s := range t.series {
		fmt.Fprintf(&b, " %14s", s.Name)
	}
	b.WriteByte('\n')
	rows := t.Rows()
	for r := 0; r < rows; r++ {
		if r%every != 0 && r != rows-1 {
			continue
		}
		fmt.Fprintf(&b, "%8d", r)
		for _, s := range t.series {
			if r < s.Len() {
				fmt.Fprintf(&b, " %14.3f", s.Values[r])
			} else {
				fmt.Fprintf(&b, " %14s", "")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
