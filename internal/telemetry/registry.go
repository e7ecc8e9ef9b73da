package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a cumulative int64 metric, safe for concurrent use. Its
// owner increments it on the hot path and registers its Value on a
// Registry as a gauge.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current value.
func (c *Counter) Value() int64 { return c.v.Load() }

// Registry names every instrument one process exports on GET /metrics:
// latency histograms and integer gauges. Subsystems either create
// histograms through Histogram(name) or attach ones they already own
// through Register — both hand out the same *Histogram forever after, so
// hot paths resolve their histogram once and record through the pointer,
// never through the registry lock. Counters and values owned elsewhere
// (engine byte counts, WAL segment counts) join as gauges: a function
// sampled at every Snapshot. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu     sync.RWMutex
	names  []string // histogram insertion order, for stable rendering
	hists  map[string]*Histogram
	gauges map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		hists:  make(map[string]*Histogram),
		gauges: make(map[string]func() int64),
	}
}

// Histogram returns (creating on first use) the histogram with the name.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := NewHistogram()
	r.hists[name] = h
	r.names = append(r.names, name)
	return h
}

// Register attaches a histogram a subsystem already owns (the transport's
// RTT histogram, the WAL's fsync histogram). Registering a name twice
// replaces the histogram.
func (r *Registry) Register(name string, h *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, seen := r.hists[name]; !seen {
		r.names = append(r.names, name)
	}
	r.hists[name] = h
}

// Gauge registers a function sampled at every Snapshot — a counter's
// Value, or a value another subsystem owns. Registering a name twice
// replaces the function.
func (r *Registry) Gauge(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = fn
}

// HistogramStats is one named histogram's quantile set in a snapshot.
type HistogramStats struct {
	Name string
	Stats
}

// SnapshotStats captures every registered histogram's stats, in
// registration order, and every gauge's value — the payload of
// GET /metrics.
type SnapshotStats struct {
	Histograms []HistogramStats
	Counters   map[string]int64
}

// Snapshot captures the stats of every registered instrument. Gauge
// functions run without the registry lock held, so they may themselves
// take locks.
func (r *Registry) Snapshot() SnapshotStats {
	r.mu.RLock()
	hists := make([]*Histogram, len(r.names))
	for i, n := range r.names {
		hists[i] = r.hists[n]
	}
	names := append([]string(nil), r.names...)
	gauges := make(map[string]func() int64, len(r.gauges))
	for n, fn := range r.gauges {
		gauges[n] = fn
	}
	r.mu.RUnlock()

	out := SnapshotStats{Counters: make(map[string]int64, len(gauges))}
	for i, n := range names {
		out.Histograms = append(out.Histograms, HistogramStats{Name: n, Stats: hists[i].Snapshot().Stats()})
	}
	for n, fn := range gauges {
		out.Counters[n] = fn()
	}
	return out
}

// JSON shapes the snapshot for the admin endpoint: histograms keyed by
// name with the fixed quantile set, counters as a flat map.
func (s SnapshotStats) JSON() map[string]any {
	hists := make(map[string]Stats, len(s.Histograms))
	for _, h := range s.Histograms {
		hists[h.Name] = h.Stats
	}
	return map[string]any{
		"histograms": hists,
		"counters":   s.Counters,
	}
}

// Text renders the snapshot as aligned plain text, one instrument per
// line, histograms first.
func (s SnapshotStats) Text() string {
	var b strings.Builder
	width := 0
	for _, h := range s.Histograms {
		if len(h.Name) > width {
			width = len(h.Name)
		}
	}
	counterNames := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		if len(n) > width {
			width = len(n)
		}
		counterNames = append(counterNames, n)
	}
	sort.Strings(counterNames)
	for _, h := range s.Histograms {
		fmt.Fprintf(&b, "%-*s %s\n", width, h.Name, h.Stats)
	}
	for _, n := range counterNames {
		fmt.Fprintf(&b, "%-*s %d\n", width, n, s.Counters[n])
	}
	return b.String()
}
