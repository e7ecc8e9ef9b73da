// Package transport provides the message plane of the Skute prototype
// store: a tiny request/response RPC with two interchangeable
// implementations — an in-memory mesh for tests and simulations (with
// failure injection) and a TCP transport for real deployments
// (cmd/skuted).
//
// The TCP wire is persistent, pooled and multiplexed: calls travel as
// hand-encoded, length-prefixed binary frames carrying a request ID
// over a bounded per-address connection pool, and the server dispatches
// every frame concurrently — see frame.go, pool.go and DESIGN.md, "The
// wire". The payload codec lives in internal/cluster and lays every
// payload out by hand, with no reflection. Handler errors
// cross the wire as typed codes (errcode.go), so sentinels like
// ErrUnreachable and context cancellation survive errors.Is on the far
// side.
//
// Every Call carries a context.Context: cancellation or a deadline on
// the caller's side aborts the exchange (for TCP, the context deadline
// bounds dialing and the response wait instead of the transport's
// defaults).
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Envelope is the unit of exchange: a kind tag and an opaque payload the
// cluster layer encodes.
type Envelope struct {
	Kind    string
	Payload []byte
}

// Handler serves one request. The context is the caller's for in-memory
// calls (cancellation propagates into nested quorum operations) and a
// per-connection context for TCP. The request payload is only valid for
// the duration of the call: the TCP server returns its staging buffer to
// a pool once the handler completes (see RecyclePayload), so handlers
// must copy any payload bytes they need to retain — the cluster layer's
// decode does that inherently.
type Handler func(ctx context.Context, req Envelope) (Envelope, error)

// Transport connects named endpoints.
type Transport interface {
	// Serve registers the handler for the address; it replaces any
	// previous handler at that address.
	Serve(addr string, h Handler) error
	// Call sends the envelope to the address and waits for the reply.
	// A cancelled or expired context aborts the call with ctx.Err()
	// before any bytes move.
	Call(ctx context.Context, addr string, req Envelope) (Envelope, error)
	// Close releases resources; subsequent calls fail.
	Close() error
}

// ErrUnreachable is returned for addresses with no live endpoint.
var ErrUnreachable = errors.New("transport: endpoint unreachable")

// Memory is an in-process transport: addresses are plain strings and
// calls are direct function invocations. Partition sets can be injected
// to simulate network failures.
type Memory struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	down     map[string]bool
	delay    map[string]time.Duration
	closed   bool
}

// NewMemory returns an empty in-memory mesh.
func NewMemory() *Memory {
	return &Memory{
		handlers: make(map[string]Handler),
		down:     make(map[string]bool),
		delay:    make(map[string]time.Duration),
	}
}

// Serve implements Transport.
func (m *Memory) Serve(addr string, h Handler) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("transport: memory mesh closed")
	}
	m.handlers[addr] = h
	return nil
}

// Call implements Transport. The handler runs synchronously on the
// caller's goroutine; a context that is already done fails before the
// handler is invoked, and the caller's context flows into the handler so
// nested calls it makes observe the same cancellation.
func (m *Memory) Call(ctx context.Context, addr string, req Envelope) (Envelope, error) {
	if err := ctx.Err(); err != nil {
		return Envelope{}, err
	}
	m.mu.RLock()
	h, ok := m.handlers[addr]
	down := m.down[addr] || m.closed
	delay := m.delay[addr]
	m.mu.RUnlock()
	if !ok || down {
		return Envelope{}, fmt.Errorf("%w: %s", ErrUnreachable, addr)
	}
	if delay > 0 {
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return Envelope{}, ctx.Err()
		}
	}
	return h(ctx, req)
}

// SetDown injects (or heals) a failure of the address: calls fail with
// ErrUnreachable while down.
func (m *Memory) SetDown(addr string, down bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.down[addr] = down
}

// SetDelay injects d of latency in front of every call to the address
// (0 heals it) — the in-process analogue of the scenario harness's TCP
// slow proxy, so slow-peer behaviour (hedging, circuit breakers) is
// testable under the race detector without real processes. The delay
// respects the caller's context: a call whose deadline expires mid-delay
// fails with ctx.Err() without invoking the handler.
func (m *Memory) SetDelay(addr string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if d <= 0 {
		delete(m.delay, addr)
		return
	}
	m.delay[addr] = d
}

// Close implements Transport.
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
