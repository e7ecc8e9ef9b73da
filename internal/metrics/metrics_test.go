package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	if s.Last() != 0 {
		t.Error("Last of empty series != 0")
	}
	s.Add(1)
	s.Add(2)
	s.Add(3)
	if s.Len() != 3 || s.At(1) != 2 || s.Last() != 3 {
		t.Errorf("series state wrong: %+v", s)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Stddev-2) > 1e-9 {
		t.Errorf("stddev = %v, want 2", s.Stddev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.P50 != 4 {
		t.Errorf("p50 = %v", s.P50)
	}
	if s.P95imp != 9 {
		t.Errorf("p95 = %v", s.P95imp)
	}
	if math.Abs(s.CV()-0.4) > 1e-9 {
		t.Errorf("cv = %v, want 0.4", s.CV())
	}
}

func TestSummarizeEmptyAndZeroMean(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.CV() != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	z := Summarize([]float64{-1, 1})
	if z.CV() != 0 {
		t.Errorf("CV with zero mean = %v, want 0", z.CV())
	}
}

func TestTableSeriesIdentityAndOrder(t *testing.T) {
	tab := NewTable()
	a := tab.Series("alpha")
	b := tab.Series("beta")
	if tab.Series("alpha") != a {
		t.Error("Series not idempotent")
	}
	a.Add(1)
	b.Add(2)
	b.Add(3)
	if csv := tab.CSV(); !strings.HasPrefix(csv, "epoch,alpha,beta\n") {
		t.Errorf("series order: CSV header of %q", csv)
	}
	if tab.Rows() != 2 {
		t.Errorf("Rows = %d", tab.Rows())
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable()
	tab.Series("x").Add(1)
	tab.Series("x").Add(2.5)
	tab.Series("y").Add(7)
	csv := tab.CSV()
	want := "epoch,x,y\n0,1,7\n1,2.5,\n"
	if csv != want {
		t.Errorf("CSV =\n%q\nwant\n%q", csv, want)
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable()
	for i := 0; i < 10; i++ {
		tab.Series("v").Add(float64(i))
	}
	out := tab.Render(4)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// header + epochs 0,4,8 and the forced last row 9.
	if len(lines) != 5 {
		t.Fatalf("Render(4) lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[len(lines)-1], "9") {
		t.Errorf("last row missing: %q", lines[len(lines)-1])
	}
	if !strings.Contains(lines[0], "epoch") || !strings.Contains(lines[0], "v") {
		t.Errorf("header = %q", lines[0])
	}
	// every < 1 falls back to printing everything.
	if n := len(strings.Split(strings.TrimSpace(tab.Render(0)), "\n")); n != 11 {
		t.Errorf("Render(0) lines = %d, want 11", n)
	}
}
