package cluster

import (
	"strings"
	"testing"
	"time"
)

func TestTraceRingBoundsAndOrder(t *testing.T) {
	r := NewTraceRing("n0", 4)
	for i := 0; i < 6; i++ {
		r.Add("kind", "event %d", i)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		want := []string{"event 2", "event 3", "event 4", "event 5"}[i]
		if e.Detail != want {
			t.Errorf("event %d detail = %q, want %q", i, e.Detail, want)
		}
		if e.Node != "n0" {
			t.Errorf("event %d node = %q", i, e.Node)
		}
	}
}

func TestTraceRingNilSafe(t *testing.T) {
	var r *TraceRing
	r.Add("kind", "discarded")
	if evs := r.Events(); evs != nil {
		t.Errorf("nil ring events = %v", evs)
	}
}

func TestTraceRingDefaultCapacity(t *testing.T) {
	r := NewTraceRing("n0", 0)
	for i := 0; i < defaultTraceEvents+10; i++ {
		r.Add("k", "e")
	}
	if got := len(r.Events()); got != defaultTraceEvents {
		t.Errorf("retained %d, want %d", got, defaultTraceEvents)
	}
}

func TestMergeTracesChronological(t *testing.T) {
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	a := []TraceEvent{
		{T: t0, Node: "a", Kind: "k", Detail: "first"},
		{T: t0.Add(2 * time.Second), Node: "a", Kind: "k", Detail: "third"},
	}
	b := []TraceEvent{
		{T: t0.Add(time.Second), Node: "b", Kind: "k", Detail: "second"},
	}
	merged := MergeTraces(a, b)
	if len(merged) != 3 {
		t.Fatalf("merged %d events", len(merged))
	}
	for i, want := range []string{"first", "second", "third"} {
		if merged[i].Detail != want {
			t.Errorf("merged[%d] = %q, want %q", i, merged[i].Detail, want)
		}
	}
	if !strings.Contains(merged[0].String(), "12:00:00.000") {
		t.Errorf("String() = %q", merged[0].String())
	}
}
