package transport

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"skute/internal/telemetry"
)

// TestTCPPoolReusesConnections: sequential calls to one address share a
// single pooled connection — the dial counter observes exactly one dial.
func TestTCPPoolReusesConnections(t *testing.T) {
	srv := NewTCP()
	defer srv.Close()
	if err := srv.Serve("127.0.0.1:0", echoHandler("S")); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addrs()[0]

	cli := NewTCP()
	defer cli.Close()
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if _, err := cli.Call(ctx, addr, Envelope{Kind: "k"}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if dials := cli.Counters().Dials.Value(); dials != 1 {
		t.Errorf("50 sequential calls used %d dials, want 1", dials)
	}
	if reuses := cli.Counters().Reuses.Value(); reuses != 49 {
		t.Errorf("reuses = %d, want 49", reuses)
	}
	if size := cli.PoolSize(); size != 1 {
		t.Errorf("pool size = %d, want 1", size)
	}

	// The counters register on a telemetry.Registry under stable names
	// (cmd/skuted serves them on GET /metrics), next to the RTT histogram.
	reg := telemetry.NewRegistry()
	cli.Register(reg)
	stats := reg.Snapshot()
	snap := stats.Counters
	if snap["transport_dials_total"] != 1 || snap["transport_conn_reuses_total"] != 49 ||
		snap["transport_pool_conns"] != 1 || snap["transport_inflight_frames"] != 0 {
		t.Errorf("registry snapshot = %v", snap)
	}
	if _, ok := snap["transport_conn_evictions_total"]; !ok {
		t.Errorf("evictions counter missing from registry: %v", snap)
	}
	if len(stats.Histograms) != 1 || stats.Histograms[0].Name != "transport_call_ns" || stats.Histograms[0].Count != 50 {
		t.Errorf("registry histograms = %+v", stats.Histograms)
	}
}

// TestTCPPoolEvictsBrokenConn: a pooled connection the server closed
// between calls is evicted and the call retried on a fresh dial — the
// caller never sees the stale socket.
func TestTCPPoolEvictsBrokenConn(t *testing.T) {
	srv := NewTCP()
	defer srv.Close()
	if err := srv.Serve("127.0.0.1:0", echoHandler("S")); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addrs()[0]

	cli := NewTCP()
	defer cli.Close()
	ctx := context.Background()
	if _, err := cli.Call(ctx, addr, Envelope{Kind: "k"}); err != nil {
		t.Fatal(err)
	}

	// Break the pooled connection from the server side and wait for the
	// client reader to notice the close.
	srv.mu.Lock()
	for c := range srv.serverConns {
		c.Close()
	}
	srv.mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for cli.Counters().Evictions.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// The next call must succeed via a fresh dial.
	if _, err := cli.Call(ctx, addr, Envelope{Kind: "k"}); err != nil {
		t.Fatalf("call after broken conn: %v", err)
	}
	if ev := cli.Counters().Evictions.Value(); ev < 1 {
		t.Errorf("evictions = %d, want >= 1", ev)
	}
	if dials := cli.Counters().Dials.Value(); dials != 2 {
		t.Errorf("dials = %d, want 2 (original + fresh redial)", dials)
	}
}

// TestTCPPoolRetriesBrokenMidflight: a connection that dies while a
// call is in flight fails the call over to one retry on a fresh dial,
// transparently to the caller.
func TestTCPPoolRetriesBrokenMidflight(t *testing.T) {
	srv := NewTCP()
	defer srv.Close()
	died := false
	var mu sync.Mutex
	if err := srv.Serve("127.0.0.1:0", func(ctx context.Context, req Envelope) (Envelope, error) {
		mu.Lock()
		firstDie := req.Kind == "die" && !died
		if firstDie {
			died = true
		}
		mu.Unlock()
		if firstDie {
			// Kill every server connection instead of answering: the
			// client's in-flight call observes a mid-flight break.
			srv.mu.Lock()
			for c := range srv.serverConns {
				c.Close()
			}
			srv.mu.Unlock()
			return Envelope{}, nil
		}
		return Envelope{Kind: "ok"}, nil
	}); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addrs()[0]

	cli := NewTCP()
	defer cli.Close()
	ctx := context.Background()
	// Seed the pool so the dying call happens on a REUSED connection
	// (fresh-dial failures are not retried).
	if _, err := cli.Call(ctx, addr, Envelope{Kind: "warm"}); err != nil {
		t.Fatal(err)
	}
	resp, err := cli.Call(ctx, addr, Envelope{Kind: "die"})
	if err != nil {
		t.Fatalf("mid-flight break was not retried: %v", err)
	}
	if resp.Kind != "ok" {
		t.Errorf("resp = %+v", resp)
	}
	if ev := cli.Counters().Evictions.Value(); ev < 1 {
		t.Errorf("evictions = %d, want >= 1", ev)
	}
}

// TestTCPMultiplexingNoHeadOfLineBlocking: a stalled data-plane request
// does not delay a concurrent heartbeat on the same peer — both calls
// share one pooled connection (one dial), yet the fast call completes
// while the slow one is still pending.
func TestTCPMultiplexingNoHeadOfLineBlocking(t *testing.T) {
	release := make(chan struct{})
	stalled := make(chan struct{})
	var once sync.Once
	srv := NewTCP()
	defer srv.Close()
	if err := srv.Serve("127.0.0.1:0", func(ctx context.Context, req Envelope) (Envelope, error) {
		if req.Kind == "data-plane" {
			once.Do(func() { close(stalled) })
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
		return Envelope{Kind: req.Kind + "-reply"}, nil
	}); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addrs()[0]

	cli := NewTCP()
	defer cli.Close()
	ctx := context.Background()

	slowDone := make(chan error, 1)
	go func() {
		_, err := cli.Call(ctx, addr, Envelope{Kind: "data-plane"})
		slowDone <- err
	}()
	<-stalled // the data-plane request is now stuck inside its handler

	start := time.Now()
	hbCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, err := cli.Call(hbCtx, addr, Envelope{Kind: "heartbeat"}); err != nil {
		t.Fatalf("heartbeat behind a stalled data-plane request: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("heartbeat took %v behind a stalled request — head-of-line blocking", elapsed)
	}
	select {
	case err := <-slowDone:
		t.Fatalf("data-plane call finished early: %v", err)
	default:
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("released data-plane call: %v", err)
	}
	if dials := cli.Counters().Dials.Value(); dials != 1 {
		t.Errorf("dials = %d, want 1 (both calls must share one socket)", dials)
	}
}

// TestTCPConcurrentMultiplexedCalls: many goroutines hammer one address;
// everything completes under -race and the pool stays within its
// per-address bound.
func TestTCPConcurrentMultiplexedCalls(t *testing.T) {
	srv := NewTCP()
	defer srv.Close()
	if err := srv.Serve("127.0.0.1:0", echoHandler("S")); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addrs()[0]

	cli := NewTCP()
	defer cli.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				env := Envelope{Kind: "k", Payload: []byte(fmt.Sprintf("%d-%d", i, j))}
				resp, err := cli.Call(ctx, addr, env)
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if want := "S:" + string(env.Payload); string(resp.Payload) != want {
					t.Errorf("resp payload = %q, want %q (cross-wired multiplexing?)", resp.Payload, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if size := cli.PoolSize(); size > cli.maxConnsPerAddr() {
		t.Errorf("pool size %d exceeds the per-address bound %d", size, cli.maxConnsPerAddr())
	}
	if inflight := cli.Counters().InFlight.Value(); inflight != 0 {
		t.Errorf("in-flight frames = %d after all calls returned, want 0", inflight)
	}
}

// TestTCPIdleReaping: a pooled connection idle past IdleTimeout is
// closed by the reaper.
func TestTCPIdleReaping(t *testing.T) {
	srv := NewTCP()
	defer srv.Close()
	if err := srv.Serve("127.0.0.1:0", echoHandler("S")); err != nil {
		t.Fatal(err)
	}
	cli := NewTCP()
	cli.IdleTimeout = 30 * time.Millisecond
	defer cli.Close()
	if _, err := cli.Call(context.Background(), srv.Addrs()[0], Envelope{Kind: "k"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for cli.PoolSize() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if size := cli.PoolSize(); size != 0 {
		t.Errorf("pool size = %d after idle timeout, want 0", size)
	}
}

// TestTCPCloseClosesActiveConns: Close tears down pooled and
// established connections, not just listeners — an in-flight call is
// released with an error instead of stranding until its timeout.
func TestTCPCloseClosesActiveConns(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	srv := NewTCP()
	if err := srv.Serve("127.0.0.1:0", func(ctx context.Context, req Envelope) (Envelope, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return Envelope{Kind: "late"}, nil
	}); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addrs()[0]

	cli := NewTCP()
	done := make(chan error, 1)
	go func() {
		_, err := cli.Call(context.Background(), addr, Envelope{Kind: "k"})
		done <- err
	}()
	// Wait until the call is in flight, then close the CLIENT transport:
	// the pooled connection must close and release the caller.
	deadline := time.Now().Add(2 * time.Second)
	for cli.Counters().InFlight.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cli.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("in-flight call succeeded after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call stranded after Close")
	}

	// Closing the SERVER transport closes its established sockets too: a
	// fresh client's pooled connection observes the close promptly.
	cli2 := NewTCP()
	defer cli2.Close()
	if _, err := cli2.Call(context.Background(), addr, Envelope{Kind: "k2"}); err == nil {
		t.Log("first call served before close (handler blocked)") // the call blocks in the handler; expected to fail below
	}
	srv.Close()
	if _, err := cli2.Call(context.Background(), addr, Envelope{Kind: "k3"}); err == nil {
		t.Error("call succeeded after the server transport closed")
	}
}

// TestTCPCloseReleasesGoroutines: after Close, the transport's reader,
// reaper and server goroutines all exit — no leaks.
func TestTCPCloseReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	srv := NewTCP()
	if err := srv.Serve("127.0.0.1:0", echoHandler("S")); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addrs()[0]
	cli := NewTCP()
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := cli.Call(ctx, addr, Envelope{Kind: "k"}); err != nil {
					t.Errorf("call: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	cli.Close()
	srv.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 { // tolerate runtime noise
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after Close — leak", before, runtime.NumGoroutine())
}

// TestTCPDialCoalescing: concurrent cold calls to one address share a
// single dial instead of racing N sockets open.
func TestTCPDialCoalescing(t *testing.T) {
	srv := NewTCP()
	defer srv.Close()
	if err := srv.Serve("127.0.0.1:0", echoHandler("S")); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addrs()[0]

	cli := NewTCP()
	defer cli.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cli.Call(ctx, addr, Envelope{Kind: "k"}); err != nil {
				t.Errorf("call: %v", err)
			}
		}()
	}
	wg.Wait()
	// All 16 cold calls arrive together; coalescing must keep the dial
	// count well under one-per-call (the first dial completes and the
	// waiters multiplex onto it, modulo the busy threshold).
	if dials := cli.Counters().Dials.Value(); dials > int64(cli.maxConnsPerAddr()) {
		t.Errorf("16 concurrent cold calls used %d dials, want <= %d", dials, cli.maxConnsPerAddr())
	}
}

// TestTCPErrorCodesRoundTrip: typed sentinels returned by a handler
// cross the wire as codes and match errors.Is on the caller's side,
// with the remote message preserved.
func TestTCPErrorCodesRoundTrip(t *testing.T) {
	srv := NewTCP()
	defer srv.Close()
	if err := srv.Serve("127.0.0.1:0", func(ctx context.Context, req Envelope) (Envelope, error) {
		switch req.Kind {
		case "unreachable":
			return Envelope{}, fmt.Errorf("%w: peer n3", ErrUnreachable)
		case "canceled":
			return Envelope{}, context.Canceled
		case "deadline":
			return Envelope{}, fmt.Errorf("quorum wait: %w", context.DeadlineExceeded)
		default:
			return Envelope{}, errors.New("plain failure")
		}
	}); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addrs()[0]
	cli := NewTCP()
	defer cli.Close()
	ctx := context.Background()

	_, err := cli.Call(ctx, addr, Envelope{Kind: "unreachable"})
	if !errors.Is(err, ErrUnreachable) {
		t.Errorf("unreachable: errors.Is = false, err = %v", err)
	}
	if err == nil || err.Error() != "transport: endpoint unreachable: peer n3" {
		t.Errorf("unreachable message lost: %v", err)
	}
	if _, err := cli.Call(ctx, addr, Envelope{Kind: "canceled"}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled: errors.Is = false, err = %v", err)
	}
	if _, err := cli.Call(ctx, addr, Envelope{Kind: "deadline"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline: errors.Is = false, err = %v", err)
	}
	_, err = cli.Call(ctx, addr, Envelope{Kind: "plain"})
	if err == nil || err.Error() != "plain failure" {
		t.Errorf("plain error message: %v", err)
	}
	if errors.Is(err, ErrUnreachable) || errors.Is(err, context.Canceled) {
		t.Errorf("plain error wrongly matches a sentinel: %v", err)
	}
}

// TestTCPOversizedFramesDontBreakConn: a frame that fails validation
// (nothing written) must error out to its own caller without tearing
// down the healthy shared connection — and an unwritable RESPONSE must
// come back as an error frame instead of leaving the caller to hang.
func TestTCPOversizedFramesDontBreakConn(t *testing.T) {
	srv := NewTCP()
	defer srv.Close()
	hugeErr := strings.Repeat("x", 0x10000+1) // error text over the 2-byte field limit
	if err := srv.Serve("127.0.0.1:0", func(ctx context.Context, req Envelope) (Envelope, error) {
		if req.Kind == "huge-error" {
			return Envelope{}, errors.New(hugeErr)
		}
		return Envelope{Kind: "ok"}, nil
	}); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addrs()[0]
	cli := NewTCP()
	defer cli.Close()
	ctx := context.Background()

	// Warm the pool, then send a request whose kind field exceeds the
	// frame's 2-byte length: the call fails, the connection survives.
	if _, err := cli.Call(ctx, addr, Envelope{Kind: "warm"}); err != nil {
		t.Fatal(err)
	}
	_, err := cli.Call(ctx, addr, Envelope{Kind: strings.Repeat("k", 0x10000+1)})
	if err == nil || !strings.Contains(err.Error(), "too long") {
		t.Fatalf("oversized kind: err = %v", err)
	}
	if _, err := cli.Call(ctx, addr, Envelope{Kind: "after"}); err != nil {
		t.Fatalf("call after oversized request: %v", err)
	}
	if dials := cli.Counters().Dials.Value(); dials != 1 {
		t.Errorf("dials = %d, want 1 (validation failure must not break the conn)", dials)
	}

	// A response the server cannot frame comes back as an explicit
	// error instead of a hang-until-timeout.
	start := time.Now()
	_, err = cli.Call(ctx, addr, Envelope{Kind: "huge-error"})
	if err == nil || !strings.Contains(err.Error(), "response frame invalid") {
		t.Fatalf("unwritable response: err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("unwritable response took %v (caller left hanging)", elapsed)
	}
	if _, err := cli.Call(ctx, addr, Envelope{Kind: "after2"}); err != nil {
		t.Fatalf("call after unwritable response: %v", err)
	}
}
