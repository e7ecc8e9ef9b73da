package resilience

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"skute/internal/telemetry"
)

// ErrOverloaded reports that a node refused work at admission: its
// in-flight gate was full for the request's priority class, or the
// request's remaining deadline could not cover the observed service
// time. It is a fast-fail signal — the work was never started — so the
// correct client reaction is to re-route to another replica or
// coordinator (with backoff), never to retry the same node immediately.
var ErrOverloaded = errors.New("resilience: node overloaded, request shed")

// Priority classes order which traffic a saturated node sheds first.
// Lower values shed earlier: a class is admitted only while the node's
// total in-flight count is below that class's share of the gate.
type Priority uint8

const (
	// Background is anti-entropy, partition transfer, epoch/economy and
	// placement-announce traffic: all of it retries on its own schedule,
	// so it is the first thing an overloaded node drops (at half the
	// gate).
	Background Priority = iota
	// Read is client read traffic, shed at 90% of the gate so that a
	// saturated node keeps a sliver of capacity for writes.
	Read
	// Write is client write/delete traffic, shed only when the gate is
	// fully spent.
	Write
	// Critical is membership traffic (heartbeats, suspicion refutation,
	// join/leave gossip): shedding it under load would turn an overload
	// into a false-suspicion cascade, so it is admitted unconditionally
	// (it still counts against the gate other classes see).
	Critical
	numPriorities
)

// String names the class for counters and logs.
func (p Priority) String() string {
	switch p {
	case Background:
		return "background"
	case Read:
		return "read"
	case Write:
		return "write"
	case Critical:
		return "critical"
	}
	return "unknown"
}

// estimateRefresh bounds how often a class's service-time estimate is
// recomputed from its histogram (a ~1k-bucket scan); estimateMinSamples
// is how many observations a class needs before deadline-aware
// rejection trusts the estimate.
const (
	estimateRefresh    = 250 * time.Millisecond
	estimateMinSamples = 32
)

// Gate is a bounded in-flight admission gate with priority classes and
// deadline-aware rejection. Enter is a few atomic ops on the admit path;
// the returned release closure records the observed service time into a
// per-class telemetry histogram, which in turn feeds the deadline check
// for later arrivals. A nil *Gate admits everything, so callers can wire
// it unconditionally and disable shedding by construction.
type Gate struct {
	max int64
	now func() time.Time

	inflight atomic.Int64

	hists [numPriorities]*telemetry.Histogram
	est   [numPriorities]atomic.Int64 // cached p50 service ns
	estAt [numPriorities]atomic.Int64 // unixnano of last estimate refresh

	admitted [numPriorities]telemetry.Counter
	shed     [numPriorities]telemetry.Counter
	shedLate telemetry.Counter // deadline-aware rejections (subset of shed)
}

// NewGate builds a gate admitting at most maxInflight concurrent
// requests (Critical traffic may exceed it). maxInflight <= 0 returns
// nil — a gate that admits everything. now defaults to time.Now.
func NewGate(maxInflight int, now func() time.Time) *Gate {
	if maxInflight <= 0 {
		return nil
	}
	if now == nil {
		now = time.Now
	}
	g := &Gate{max: int64(maxInflight), now: now}
	for i := range g.hists {
		g.hists[i] = telemetry.NewHistogram()
	}
	return g
}

// limit returns the in-flight count at or above which class p is shed.
func (g *Gate) limit(p Priority) int64 {
	switch p {
	case Background:
		return g.max / 2
	case Read:
		return g.max * 9 / 10
	default: // Write; Critical never consults a limit
		return g.max
	}
}

// Enter asks to admit one request of class p. On admission it returns a
// release closure (which must run exactly once, when the request
// finishes) and nil. On rejection it returns ErrOverloaded with no
// closure: either the in-flight count reached the class limit, or the
// context's remaining deadline is smaller than the class's observed
// median service time — in which case admitting the request would only
// burn capacity on work doomed to time out.
func (g *Gate) Enter(ctx context.Context, p Priority) (release func(), err error) {
	if g == nil {
		return func() {}, nil
	}
	if p != Critical {
		if dl, ok := ctx.Deadline(); ok {
			if need := g.estimate(p); need > 0 && dl.Sub(g.now()) < time.Duration(need) {
				g.shedLate.Inc()
				g.shed[p].Inc()
				return nil, ErrOverloaded
			}
		}
	}
	if !g.admit(p) {
		g.shed[p].Inc()
		return nil, ErrOverloaded
	}
	g.admitted[p].Inc()
	start := g.now()
	var done atomic.Bool
	return func() {
		if !done.CompareAndSwap(false, true) {
			return
		}
		g.inflight.Add(-1)
		g.hists[p].Record(g.now().Sub(start).Nanoseconds())
	}, nil
}

// admit takes one in-flight slot for class p unless the count has
// reached the class limit. The compare-and-swap never lets the count
// pass the limit, not even for the moment before a shed, so a request of
// a higher class cannot be shed because of a lower one that is about to
// be refused. Critical traffic takes its slot unconditionally.
func (g *Gate) admit(p Priority) bool {
	if p == Critical {
		g.inflight.Add(1)
		return true
	}
	limit := g.limit(p)
	for {
		cur := g.inflight.Load()
		if cur >= limit {
			return false
		}
		if g.inflight.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// estimate returns the cached median service time (ns) for class p,
// refreshing it from the class histogram at most every estimateRefresh.
// It returns 0 — "no opinion, admit" — until the class has recorded
// estimateMinSamples observations.
func (g *Gate) estimate(p Priority) int64 {
	nowNS := g.now().UnixNano()
	last := g.estAt[p].Load()
	if nowNS-last >= int64(estimateRefresh) && g.estAt[p].CompareAndSwap(last, nowNS) {
		var est int64
		if h := g.hists[p]; h.Count() >= estimateMinSamples {
			est = h.Snapshot().Quantile(0.50)
		}
		g.est[p].Store(est)
	}
	return g.est[p].Load()
}

// Inflight reports the current admitted in-flight count.
func (g *Gate) Inflight() int64 {
	if g == nil {
		return 0
	}
	return g.inflight.Load()
}

// Admitted and Shed report the per-class admission counters; ShedLate
// reports how many of the sheds were deadline-aware rejections. All are
// nil-safe, returning 0.
func (g *Gate) Admitted(p Priority) int64 {
	if g == nil {
		return 0
	}
	return g.admitted[p].Value()
}

// Shed reports how many class-p requests were refused at admission.
func (g *Gate) Shed(p Priority) int64 {
	if g == nil {
		return 0
	}
	return g.shed[p].Value()
}

// ShedLate reports the deadline-aware subset of the sheds.
func (g *Gate) ShedLate() int64 {
	if g == nil {
		return 0
	}
	return g.shedLate.Value()
}

// RegisterTelemetry attaches the per-class service-time histograms to a
// registry as admission_<class>_ns, so GET /metrics exposes the same
// observations the deadline-aware check runs on. Nil-safe.
func (g *Gate) RegisterTelemetry(reg *telemetry.Registry) {
	if g == nil || reg == nil {
		return
	}
	for p := Priority(0); p < numPriorities; p++ {
		reg.Register("admission_"+p.String()+"_ns", g.hists[p])
	}
}
