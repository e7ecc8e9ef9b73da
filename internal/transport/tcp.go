package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"skute/internal/resilience"
	"skute/internal/telemetry"
)

// TCP is a Transport over real sockets. Connections are persistent,
// pooled per address and multiplexed: every call travels as a
// length-prefixed binary frame carrying a request ID (see frame.go), so
// many in-flight calls share one socket and a slow response never
// head-of-line blocks a fast one. The frame header is hand-encoded, as
// is every payload the cluster layer puts in it. The server side
// dispatches every frame to its handler on its own goroutine, so a slow
// quorum read does not delay a heartbeat arriving on the same
// connection.
//
// The pool is bounded per address (MaxConnsPerAddr), reaps idle
// connections (IdleTimeout), evicts broken ones, and coalesces
// concurrent dials to a cold address into one. A call that fails
// because a POOLED connection went stale retries through the pool
// (which dials afresh once the broken connections are evicted, still
// coalesced and bounded); a failure on a connection dialed for that
// very call surfaces as ErrUnreachable.
//
// The Call context governs the exchange: a context deadline bounds both
// dialing and the wait for the response, and cancellation abandons an
// in-flight exchange promptly (the connection stays healthy — the late
// response frame is discarded by the reader). The fixed timeouts below
// apply only when the context carries no deadline.
type TCP struct {
	// DialTimeout bounds connection establishment when the context has
	// no deadline (default 2s).
	DialTimeout time.Duration
	// CallTimeout bounds a full request/response exchange when the
	// context has no deadline (default 10s).
	CallTimeout time.Duration
	// MaxConnsPerAddr bounds the pooled connections per peer address
	// (default 4). The pool opens another connection only when every
	// existing one is loaded past the multiplexing threshold.
	MaxConnsPerAddr int
	// IdleTimeout is how long a pooled connection may sit idle before
	// the reaper closes it (default 60s).
	IdleTimeout time.Duration
	// Retry paces the re-send of calls whose pooled connection broke
	// mid-exchange: exponential backoff with full jitter (so a mass
	// connection break cannot re-converge into a synchronized retry
	// burst) spent from a token-bucket budget (so retries cannot amplify
	// an overload). The zero value keeps the historical 3-attempt bound
	// but with jittered pacing and no budget; NewTCP installs a shared
	// budget.
	Retry resilience.RetryPolicy

	counters Counters
	// rtt is the request-RTT histogram: every Call records its wall time
	// (queueing in the pool, frame round trip, retries) regardless of
	// outcome. Register exposes it on GET /metrics.
	rtt *telemetry.Histogram

	mu          sync.Mutex
	listeners   []net.Listener
	serverConns map[net.Conn]struct{}
	clientPool  *pool
	closed      bool
}

// NewTCP returns a TCP transport with default timeouts, pool policy and
// a budgeted retry: one retry token per ten calls (burst 10), so even
// with every peer's connections breaking the wire sees at most ~10%
// extra traffic from retries.
func NewTCP() *TCP {
	return &TCP{
		DialTimeout: 2 * time.Second,
		CallTimeout: 10 * time.Second,
		Retry:       resilience.RetryPolicy{Budget: resilience.NewRetryBudget(0.1, 10)},
		rtt:         telemetry.NewHistogram(),
	}
}

func (t *TCP) dialTimeout() time.Duration {
	if t.DialTimeout > 0 {
		return t.DialTimeout
	}
	return 2 * time.Second
}

func (t *TCP) callTimeout() time.Duration {
	if t.CallTimeout > 0 {
		return t.CallTimeout
	}
	return 10 * time.Second
}

func (t *TCP) maxConnsPerAddr() int {
	if t.MaxConnsPerAddr > 0 {
		return t.MaxConnsPerAddr
	}
	return defaultMaxConnsPerAddr
}

func (t *TCP) idleTimeout() time.Duration {
	if t.IdleTimeout > 0 {
		return t.IdleTimeout
	}
	return defaultIdleTimeout
}

// pool returns the lazily created client pool (nil when closed).
func (t *TCP) getPool() (*pool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, fmt.Errorf("transport: tcp transport closed")
	}
	if t.clientPool == nil {
		t.clientPool = newPool(t)
	}
	return t.clientPool, nil
}

// Serve implements Transport: it binds the address and serves requests
// until Close. The returned error covers bind failures only; per-
// connection errors are contained.
func (t *TCP) Serve(addr string, h Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		ln.Close()
		return errors.New("transport: tcp transport closed")
	}
	t.listeners = append(t.listeners, ln)
	t.mu.Unlock()

	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			go t.serveConn(conn, h)
		}
	}()
	return nil
}

// maxServerFramesPerConn bounds the handler goroutines one connection
// may have in flight — backpressure against a peer flooding frames
// faster than handlers complete.
const maxServerFramesPerConn = 256

// serveConn demultiplexes one client connection: every request frame is
// dispatched to the handler on its own goroutine, so responses complete
// (and are written back) in whatever order the handlers finish. The
// handler context is cancelled when the connection dies, so a peer
// disconnect now interrupts handlers already running. Deadline
// propagation into a handler's coordinated work still travels in the
// request payload (the cluster layer's client envelopes carry the
// caller's timeout budget).
func (t *TCP) serveConn(conn net.Conn, h Handler) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return
	}
	if t.serverConns == nil {
		t.serverConns = make(map[net.Conn]struct{})
	}
	t.serverConns[conn] = struct{}{}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.serverConns, conn)
		t.mu.Unlock()
		conn.Close()
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc := newStreamCodec(conn)

	// Dispatch through a per-connection pool of reused worker
	// goroutines instead of one fresh goroutine per frame: handler
	// stacks (a quorum coordination nests several calls deep) stay
	// warm across requests, which profiling showed removes the
	// stack-growth cost from the hot path.
	// A new worker spawns whenever the outstanding (enqueued but not
	// finished) frame count exceeds the worker count — `outstanding` is
	// incremented only here and decremented only after a handler
	// completes, so the check can never under-spawn while a frame still
	// lacks a worker, and a fast frame never queues behind a stalled
	// handler (no head-of-line blocking). Concurrency stays bounded by
	// maxServerFramesPerConn.
	work := make(chan frame, maxServerFramesPerConn)
	defer close(work) // drains the workers; their late writes hit the closed conn harmlessly
	var outstanding atomic.Int64
	workers := 0
	serve := func(f frame) {
		resp := frame{ID: f.ID, Flags: flagResponse}
		env, err := h(ctx, Envelope{Kind: f.Kind, Payload: f.Payload})
		if err != nil {
			code, msg := ErrorToCode(err)
			resp.Code, resp.Err = uint8(code), msg
		} else {
			resp.Kind, resp.Payload = env.Kind, env.Payload
		}
		if werr := sc.writeFrame(&resp, time.Now().Add(t.callTimeout())); werr != nil {
			// A response that fails validation (oversized payload or
			// error text) wrote nothing — tell the caller instead of
			// leaving it to hang until its timeout. Any other write
			// failure means the connection is gone; the read loop
			// observes the same failure and tears down.
			var fse *frameSizeError
			if errors.As(werr, &fse) {
				code, _ := ErrorToCode(werr)
				errResp := frame{ID: f.ID, Flags: flagResponse, Code: uint8(code),
					Err: fmt.Sprintf("transport: response frame invalid: %v", fse)}
				_ = sc.writeFrame(&errResp, time.Now().Add(t.callTimeout()))
			}
		}
	}
	for {
		var f frame
		if err := sc.readFrame(&f); err != nil {
			return
		}
		if f.Flags&flagResponse != 0 {
			RecyclePayload(f.Payload)
			continue // a confused peer; ignore rather than kill the stream
		}
		if outstanding.Add(1) > int64(workers) && workers < maxServerFramesPerConn {
			workers++
			go func() {
				for f := range work {
					serve(f)
					// The handler contract (see Handler) forbids retaining
					// the request payload past return, and the response is
					// already flushed — the staging buffer can go back to
					// the pool even when the handler echoed it.
					RecyclePayload(f.Payload)
					outstanding.Add(-1)
				}
			}()
		}
		work <- f // blocks when every worker is busy and the buffer is full: backpressure
	}
}

// dial opens one connection, honoring the context deadline (or the
// DialTimeout default). Dial failures are ErrUnreachable.
func (t *TCP) dial(ctx context.Context, addr string) (net.Conn, error) {
	dialTO := t.dialTimeout()
	if _, ok := ctx.Deadline(); ok {
		dialTO = 0 // DialContext honors the ctx deadline on its own
	}
	dialer := net.Dialer{Timeout: dialTO}
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, addr, err)
	}
	t.counters.Dials.Inc()
	return conn, nil
}

// Call implements Transport over the pooled, multiplexed wire. A call
// that fails because its POOLED connection went stale retries (safe for
// this store: every payload is an idempotent versioned operation) —
// the broken connection was already evicted, so the retry reaches a
// different pooled connection or a fresh dial, still under the pool's
// per-address bound and dial coalescing. A failure on a connection
// dialed for this very call surfaces as ErrUnreachable: the peer is
// really gone.
func (t *TCP) Call(ctx context.Context, addr string, req Envelope) (Envelope, error) {
	if err := ctx.Err(); err != nil {
		return Envelope{}, err
	}
	if t.rtt != nil { // nil only for a hand-rolled struct literal
		defer t.rtt.RecordSince(time.Now())
	}
	p, err := t.getPool()
	if err != nil {
		return Envelope{}, err
	}
	// Up to two retries tolerate the mass-break case where the first
	// retry lands on another pooled connection whose death the reader
	// has not observed yet — but each retry must clear the budget and
	// sleep a jittered backoff, so a mass break drains into staggered,
	// bounded re-sends instead of an immediate synchronized burst.
	t.Retry.Budget.OnAttempt()
	for attempt := 1; ; attempt++ {
		mc, reused, err := p.get(ctx, addr)
		if err != nil {
			return Envelope{}, err
		}
		env, err := mc.roundTrip(ctx, req, t.callTimeout())
		p.put(mc)
		var broken *brokenConnError
		if err != nil && errors.As(err, &broken) {
			if reused && t.Retry.Retry(ctx, attempt) {
				t.counters.Retries.Inc()
				continue
			}
			if reused {
				t.counters.RetriesDenied.Inc()
			}
			return Envelope{}, broken.err
		}
		return env, err
	}
}

// ctxError reports why the context ended an exchange. The socket
// deadline mirrors the context deadline, so an I/O timeout can surface a
// few microseconds before the context's own timer fires — treat a passed
// deadline as expired rather than racing the timer.
func ctxError(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// Evict drops every pooled connection to the address. The cluster layer
// calls it when a peer is declared dead, so sockets to a failed node
// don't linger until the idle reaper finds them.
func (t *TCP) Evict(addr string) {
	t.mu.Lock()
	p := t.clientPool
	t.mu.Unlock()
	if p != nil {
		p.evictAddr(addr)
	}
}

// Addrs returns the bound listener addresses (useful with ":0").
func (t *TCP) Addrs() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.listeners))
	for i, ln := range t.listeners {
		out[i] = ln.Addr().String()
	}
	return out
}

// Close stops the listeners, closes every established server connection
// (interrupting their running handlers via context cancellation) and
// tears down the client pool, failing any in-flight calls. The old
// implementation closed only the listeners, leaking established sockets
// and stranding in-flight calls on shutdown.
func (t *TCP) Close() error {
	t.mu.Lock()
	t.closed = true
	var first error
	for _, ln := range t.listeners {
		if err := ln.Close(); err != nil && first == nil {
			first = err
		}
	}
	t.listeners = nil
	conns := make([]net.Conn, 0, len(t.serverConns))
	for c := range t.serverConns {
		conns = append(conns, c)
	}
	p := t.clientPool
	t.clientPool = nil
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	if p != nil {
		p.close()
	}
	return first
}
