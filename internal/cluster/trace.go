package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Decision trace: every node keeps a bounded in-memory ring of its
// control-plane events — member-state transitions, placement proposals
// and merges, epoch decisions, joins, partition transfers. The ring is
// scraped over GET /trace on the admin endpoint (see internal/httpadmin)
// and correlated across nodes by the scenario harness, so a failed
// invariant in a multi-process run is debuggable from the dump alone:
// which node suspected whom, which delta evicted which replica, and in
// what order, without re-running anything.

// defaultTraceEvents is the ring capacity when Config.TraceEvents is 0.
const defaultTraceEvents = 1024

// TraceEvent is one timestamped control-plane decision.
type TraceEvent struct {
	T      time.Time `json:"t"`
	Node   string    `json:"node"`
	Kind   string    `json:"kind"`
	Detail string    `json:"detail"`
}

// String renders one correlated-dump line.
func (e TraceEvent) String() string {
	return fmt.Sprintf("%s %-10s %-10s %s", e.T.Format("15:04:05.000"), e.Node, e.Kind, e.Detail)
}

// TraceRing is a fixed-capacity, concurrency-safe event ring. The
// newest events win: once the ring is full every Add overwrites the
// oldest entry, so the memory cost is bounded no matter how long the
// node runs. A nil ring discards events.
type TraceRing struct {
	mu   sync.Mutex
	node string
	buf  []TraceEvent
	next int
	full bool
}

// NewTraceRing returns a ring stamped with the node name; capacity <= 0
// selects the default.
func NewTraceRing(node string, capacity int) *TraceRing {
	if capacity <= 0 {
		capacity = defaultTraceEvents
	}
	return &TraceRing{node: node, buf: make([]TraceEvent, capacity)}
}

// Add records one event.
func (r *TraceRing) Add(kind, format string, args ...any) {
	if r == nil {
		return
	}
	e := TraceEvent{T: time.Now(), Kind: kind, Detail: fmt.Sprintf(format, args...)}
	r.mu.Lock()
	e.Node = r.node
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *TraceRing) Events() []TraceEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []TraceEvent
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	out = append(out, r.buf[:r.next]...)
	return out
}

// Trace exposes the node's decision-trace ring.
func (n *Node) Trace() *TraceRing { return n.trace }

// MergeTraces interleaves per-node traces into one chronological dump —
// the correlated view a scenario failure prints. The sort is stable, so
// same-timestamp events keep their per-node order.
func MergeTraces(traces ...[]TraceEvent) []TraceEvent {
	var out []TraceEvent
	for _, t := range traces {
		out = append(out, t...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T.Before(out[j].T) })
	return out
}
