package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestRegistryCreateAndRegister(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("op_a_ns")
	if r.Histogram("op_a_ns") != h1 {
		t.Fatalf("Histogram did not return the existing instrument")
	}
	own := NewHistogram()
	own.Record(42)
	r.Register("op_b_ns", own)
	var errs Counter
	errs.Add(3)
	r.Gauge("errs_total", errs.Value)
	h1.Record(1000)

	s := r.Snapshot()
	if len(s.Histograms) != 2 {
		t.Fatalf("got %d histograms, want 2", len(s.Histograms))
	}
	// Registration order is preserved.
	if s.Histograms[0].Name != "op_a_ns" || s.Histograms[1].Name != "op_b_ns" {
		t.Fatalf("order %q, %q", s.Histograms[0].Name, s.Histograms[1].Name)
	}
	if s.Histograms[1].Count != 1 || s.Histograms[1].MaxNS != 42 {
		t.Fatalf("attached histogram not sampled: %+v", s.Histograms[1])
	}
	if s.Counters["errs_total"] != 3 {
		t.Fatalf("counter %d, want 3", s.Counters["errs_total"])
	}
}

func TestSnapshotRenderings(t *testing.T) {
	r := NewRegistry()
	r.Histogram("get_ns").Record(1500)
	r.Gauge("ops_total", func() int64 { return 1 })
	s := r.Snapshot()

	raw, err := json.Marshal(s.JSON())
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Histograms map[string]struct {
			Count int64 `json:"count"`
			P50NS int64 `json:"p50_ns"`
			P99NS int64 `json:"p99_ns"`
		} `json:"histograms"`
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	g, ok := decoded.Histograms["get_ns"]
	if !ok || g.Count != 1 || g.P50NS == 0 || g.P99NS == 0 {
		t.Fatalf("JSON histogram missing or empty: %+v", decoded)
	}
	if decoded.Counters["ops_total"] != 1 {
		t.Fatalf("JSON counters: %+v", decoded.Counters)
	}

	text := s.Text()
	for _, want := range []string{"get_ns", "count=1", "p99=", "ops_total"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text rendering missing %q:\n%s", want, text)
		}
	}
}

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	var c Counter
	c.Inc()
	c.Add(4)
	r.Gauge("writes_total", c.Value)
	live := int64(7)
	r.Gauge("live_value", func() int64 { return live })
	snap := r.Snapshot().Counters
	if snap["writes_total"] != 5 || snap["live_value"] != 7 {
		t.Errorf("snapshot = %v", snap)
	}
	live = 9
	c.Inc()
	snap = r.Snapshot().Counters
	if snap["live_value"] != 9 || snap["writes_total"] != 6 {
		t.Errorf("gauges not sampled live: %v", snap)
	}
	r.Gauge("live_value", func() int64 { return -1 })
	if snap := r.Snapshot(); snap.Counters["live_value"] != -1 || len(snap.Counters) != 2 {
		t.Errorf("re-registered gauge: %v", snap.Counters)
	}
}

// TestGaugeRunsUnlocked: a gauge function may itself use the registry
// (or any lock a registering subsystem holds) without deadlocking the
// snapshot that samples it.
func TestGaugeRunsUnlocked(t *testing.T) {
	r := NewRegistry()
	r.Gauge("hists", func() int64 {
		r.Histogram("made_by_gauge_ns")
		return 1
	})
	if got := r.Snapshot().Counters["hists"]; got != 1 {
		t.Fatalf("gauge = %d, want 1", got)
	}
}
