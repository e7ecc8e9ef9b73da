package transport

import "skute/internal/telemetry"

// Counters are the wire-path observability counters of a TCP transport:
// how the pool behaves (dials vs. reuses vs. evictions) and how much
// traffic is in flight. Register exposes them on GET /metrics next to
// the control-plane and durability counters.
type Counters struct {
	// Dials counts established outbound connections.
	Dials telemetry.Counter
	// Reuses counts calls served by an already pooled connection — the
	// dials the pool saved.
	Reuses telemetry.Counter
	// Evictions counts pooled connections dropped: broken mid-flight,
	// idle-reaped, or evicted because their peer was declared dead.
	Evictions telemetry.Counter
	// InFlight is the current number of in-flight request frames across
	// all pooled connections (incremented on send, decremented on
	// response, abandonment or failure).
	InFlight telemetry.Counter
	// Retries counts calls re-sent after their pooled connection broke
	// mid-exchange — each one paid a jittered backoff and a retry-budget
	// token first.
	Retries telemetry.Counter
	// RetriesDenied counts broken-connection failures that surfaced to
	// the caller because the retry budget or deadline refused the retry.
	RetriesDenied telemetry.Counter
}

// Counters exposes the transport's wire counters.
func (t *TCP) Counters() *Counters { return &t.counters }

// PoolSize reports the pooled connection count across all addresses.
func (t *TCP) PoolSize() int {
	t.mu.Lock()
	p := t.clientPool
	t.mu.Unlock()
	if p == nil {
		return 0
	}
	return p.size()
}

// RTT exposes the per-call round-trip histogram (nil on a transport not
// built with NewTCP).
func (t *TCP) RTT() *telemetry.Histogram { return t.rtt }

// Register attaches the transport's RTT histogram and its wire counters
// to a registry under stable names; cmd/skuted serves them on
// GET /metrics.
func (t *TCP) Register(reg *telemetry.Registry) {
	if t.rtt == nil {
		t.rtt = telemetry.NewHistogram()
	}
	reg.Register("transport_call_ns", t.rtt)
	reg.Gauge("transport_dials_total", t.counters.Dials.Value)
	reg.Gauge("transport_conn_reuses_total", t.counters.Reuses.Value)
	reg.Gauge("transport_conn_evictions_total", t.counters.Evictions.Value)
	reg.Gauge("transport_inflight_frames", t.counters.InFlight.Value)
	reg.Gauge("transport_pool_conns", func() int64 { return int64(t.PoolSize()) })
	reg.Gauge("transport_call_retries_total", t.counters.Retries.Value)
	reg.Gauge("transport_call_retries_denied_total", t.counters.RetriesDenied.Value)
}
