package cluster

// Tests for the context-aware request path: per-request consistency
// overrides, deadlines and cancellation inside the quorum fan-out, and
// the envelope economy of the batched multi-key operations.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"skute/internal/ring"
	"skute/internal/store"
	"skute/internal/transport"
)

// countingTransport wraps a transport and counts outgoing calls by
// envelope kind — the instrument behind the replica-contact and
// envelope-bound assertions.
type countingTransport struct {
	transport.Transport
	mu    sync.Mutex
	calls map[string]int
}

func newCountingTransport(inner transport.Transport) *countingTransport {
	return &countingTransport{Transport: inner, calls: make(map[string]int)}
}

func (c *countingTransport) Call(ctx context.Context, addr string, req transport.Envelope) (transport.Envelope, error) {
	c.mu.Lock()
	c.calls[req.Kind]++
	c.mu.Unlock()
	return c.Transport.Call(ctx, addr, req)
}

func (c *countingTransport) count(kind string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[kind]
}

func (c *countingTransport) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls = make(map[string]int)
}

// hangTransport wraps a transport and blocks calls to one address until
// the caller's context fires — a replica that accepted the request and
// never answers. The victim address is guarded: straggler goroutines
// from earlier requests may still be calling when a test retargets it.
type hangTransport struct {
	transport.Transport
	mu     sync.Mutex
	victim string
}

func (h *hangTransport) setVictim(addr string) {
	h.mu.Lock()
	h.victim = addr
	h.mu.Unlock()
}

func (h *hangTransport) Call(ctx context.Context, addr string, req transport.Envelope) (transport.Envelope, error) {
	h.mu.Lock()
	victim := h.victim
	h.mu.Unlock()
	if addr == victim {
		<-ctx.Done()
		return transport.Envelope{}, ctx.Err()
	}
	return h.Transport.Call(ctx, addr, req)
}

// instrumentedCluster boots the standard 6-node test cluster with
// nodes[0]'s outgoing transport wrapped by wrap. All requests in these
// tests coordinate through nodes[0], so the wrapper sees every envelope
// the coordinator sends.
func instrumentedCluster(t *testing.T, wrap func(transport.Transport) transport.Transport) []*Node {
	t.Helper()
	_, nodes := bootCluster(t, testConfig(), wrap)
	return nodes
}

// bootCluster boots every node of cfg over one in-memory mesh, with
// nodes[0]'s outgoing transport wrapped by wrap.
func bootCluster(t *testing.T, cfg Config, wrap func(transport.Transport) transport.Transport) (*transport.Memory, []*Node) {
	t.Helper()
	mesh := transport.NewMemory()
	var nodes []*Node
	for i, ni := range cfg.Nodes {
		var tr transport.Transport = mesh
		if i == 0 {
			tr = wrap(mesh)
		}
		n, err := NewNode(cfg, ni.Name, tr, store.NewMemory())
		if err != nil {
			t.Fatalf("NewNode(%s): %v", ni.Name, err)
		}
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		n.ConfirmPeers()
	}
	t.Cleanup(func() { mesh.Close() })
	return mesh, nodes
}

// remoteKey finds a key of the ring whose replica set excludes the
// coordinator, so every replica contact is a counted remote envelope.
func remoteKey(t *testing.T, n *Node, id ring.RingID, replicas int) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		key := fmt.Sprintf("probe-%d", i)
		reps, err := n.Replicas(id, key)
		if err != nil {
			t.Fatal(err)
		}
		if len(reps) != replicas {
			continue
		}
		self := false
		for _, r := range reps {
			if r == n.Name() {
				self = true
			}
		}
		if !self {
			return key
		}
	}
	t.Fatal("no key found with a fully remote replica set")
	return ""
}

func TestPreCancelledContextContactsNoReplica(t *testing.T) {
	var ct *countingTransport
	nodes := instrumentedCluster(t, func(tr transport.Transport) transport.Transport {
		ct = newCountingTransport(tr)
		return ct
	})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := nodes[0].Get(cancelled, goldRing, "k", ReadOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Get err = %v, want context.Canceled", err)
	}
	if err := nodes[0].Put(cancelled, goldRing, "k", []byte("v"), nil, WriteOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Put err = %v, want context.Canceled", err)
	}
	if _, err := nodes[0].MultiGet(cancelled, goldRing, []string{"a", "b"}, ReadOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("MultiGet err = %v, want context.Canceled", err)
	}
	if err := nodes[0].MultiPut(cancelled, goldRing, []Entry{{Key: "a", Value: []byte("v")}}, WriteOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("MultiPut err = %v, want context.Canceled", err)
	}
	total := 0
	ct.mu.Lock()
	for kind, n := range ct.calls {
		if kind != kindHeartbeat {
			total += n
		}
	}
	ct.mu.Unlock()
	if total != 0 {
		t.Errorf("cancelled requests sent %d envelopes, want 0 (%v)", total, ct.calls)
	}
}

// settled polls until the counter for kind stops at want (requests may
// return at their ack threshold while hedge/straggler envelopes are
// still being launched) and returns the final count.
func (c *countingTransport) settled(kind string, want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for c.count(kind) != want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return c.count(kind)
}

func TestConsistencyOverridesContactCounts(t *testing.T) {
	var ct *countingTransport
	nodes := instrumentedCluster(t, func(tr transport.Transport) transport.Transport {
		ct = newCountingTransport(tr)
		return ct
	})
	// A plat-ring key (3 replicas) fully remote from the coordinator, so
	// every replica contact is a counted envelope. ConsistencyAll makes
	// the write synchronous on all three replicas.
	key := remoteKey(t, nodes[0], platRing, 3)
	if err := nodes[0].Put(ctx, platRing, key, []byte("v"), nil, WriteOptions{Consistency: ConsistencyAll}); err != nil {
		t.Fatal(err)
	}

	// The ConsistencyAll write just write-through'd the key into the
	// coordinator hot-key cache, so a One-level read of it is served
	// with ZERO envelopes (see readpath.go).
	ct.reset()
	res, err := nodes[0].Get(ctx, platRing, key, ReadOptions{Consistency: ConsistencyOne})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 || string(res.Values[0]) != "v" {
		t.Fatalf("cache-served One read returned %q", res.Values)
	}
	if got := ct.settled(kindMultiGet, 0); got != 0 {
		t.Errorf("cache-served ConsistencyOne read sent %d envelopes, want 0", got)
	}

	// A cold remote key misses the cache and contacts exactly R = 1
	// replica: the hedged backup must not fire before its delay (pinned
	// high here so a scheduling stall cannot flake the count).
	nodes[0].hedge.delayNS.Store(int64(time.Minute))
	cold := ""
	for i := 0; i < 4096 && cold == ""; i++ {
		k := fmt.Sprintf("cold-%d", i)
		reps, err := nodes[0].Replicas(platRing, k)
		if err != nil {
			t.Fatal(err)
		}
		self := false
		for _, r := range reps {
			if r == nodes[0].Name() {
				self = true
			}
		}
		if len(reps) == 3 && !self {
			cold = k
		}
	}
	ct.reset()
	if _, err := nodes[0].Get(ctx, platRing, cold, ReadOptions{Consistency: ConsistencyOne}); err != nil {
		t.Fatal(err)
	}
	if got := ct.settled(kindMultiGet, 1); got != 1 {
		t.Errorf("ConsistencyOne cache miss contacted %d replicas, want 1", got)
	}
	ct.reset()
	if _, err := nodes[0].Get(ctx, platRing, key, ReadOptions{Consistency: ConsistencyAll}); err != nil {
		t.Fatal(err)
	}
	if got := ct.settled(kindMultiGet, 3); got != 3 {
		t.Errorf("ConsistencyAll contacted %d replicas, want 3", got)
	}
}

func TestConsistencyAckThresholds(t *testing.T) {
	mesh, nodes := testCluster(t)
	key := remoteKey(t, nodes[0], platRing, 3)
	reps, err := nodes[0].Replicas(platRing, key)
	if err != nil {
		t.Fatal(err)
	}
	// Kill one of the three replicas: All becomes unreachable, One and
	// Quorum still succeed.
	kill(mesh, nodes, reps[0])
	if err := nodes[0].Put(ctx, platRing, key, []byte("v"), nil, WriteOptions{Consistency: ConsistencyAll}); err == nil {
		t.Error("ConsistencyAll write succeeded with a replica down")
	} else if !strings.Contains(err.Error(), "quorum") {
		t.Errorf("unexpected error: %v", err)
	}
	if err := nodes[0].Put(ctx, platRing, key, []byte("v"), nil, WriteOptions{Consistency: ConsistencyQuorum}); err != nil {
		t.Errorf("ConsistencyQuorum write failed with 2/3 replicas up: %v", err)
	}
	if err := nodes[0].Put(ctx, platRing, key, []byte("v"), nil, WriteOptions{Consistency: ConsistencyOne}); err != nil {
		t.Errorf("ConsistencyOne write failed with 2/3 replicas up: %v", err)
	}
	if _, err := nodes[0].Get(ctx, platRing, key, ReadOptions{Consistency: ConsistencyAll}); err == nil {
		t.Error("ConsistencyAll read succeeded with a replica down")
	}
	if _, err := nodes[0].Get(ctx, platRing, key, ReadOptions{Consistency: ConsistencyOne}); err != nil {
		t.Errorf("ConsistencyOne read failed with 2/3 replicas up: %v", err)
	}
}

func TestInvalidOptionsRejected(t *testing.T) {
	_, nodes := testCluster(t)
	// platRing has 3 replicas; demanding 4 is impossible.
	if _, err := nodes[0].Get(ctx, platRing, "k", ReadOptions{Consistency: ConsistencyCount(4)}); err == nil {
		t.Error("R=4 on a 3-replica ring accepted")
	}
	if err := nodes[0].Put(ctx, platRing, "k", []byte("v"), nil, WriteOptions{Consistency: ConsistencyCount(4)}); err == nil {
		t.Error("W=4 on a 3-replica ring accepted")
	}
	if _, err := nodes[0].Get(ctx, platRing, "k", ReadOptions{Consistency: Consistency(-9)}); err == nil {
		t.Error("bogus consistency level accepted")
	}
	if _, err := nodes[0].MultiGet(ctx, platRing, []string{"k"}, ReadOptions{Consistency: ConsistencyCount(99)}); err == nil {
		t.Error("R=99 batch on a 3-replica ring accepted")
	}
	if err := nodes[0].MultiPut(ctx, platRing, []Entry{{Key: "k"}}, WriteOptions{Consistency: ConsistencyCount(99)}); err == nil {
		t.Error("W=99 batch on a 3-replica ring accepted")
	}
	// Valid explicit counts pass.
	if err := nodes[0].Put(ctx, platRing, "k", []byte("v"), nil, WriteOptions{Consistency: ConsistencyCount(3)}); err != nil {
		t.Errorf("W=3 on a 3-replica ring rejected: %v", err)
	}
}

// TestMidFanoutCancellationReturnsPromptly pins the headline contract:
// a caller whose context fires mid-fan-out gets its error immediately —
// not after the transport timeout — and the straggler goroutines drain
// instead of leaking (the race detector keeps this honest).
func TestMidFanoutCancellationReturnsPromptly(t *testing.T) {
	var ht *hangTransport
	nodes := instrumentedCluster(t, func(tr transport.Transport) transport.Transport {
		ht = &hangTransport{Transport: tr}
		return ht
	})
	key := remoteKey(t, nodes[0], platRing, 3)
	if err := nodes[0].Put(ctx, platRing, key, []byte("v"), nil, WriteOptions{Consistency: ConsistencyAll}); err != nil {
		t.Fatal(err)
	}
	reps, err := nodes[0].Replicas(platRing, key)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if n.Name() == reps[0] {
			ht.setVictim(n.self.Addr)
		}
	}
	before := runtime.NumGoroutine()

	// ConsistencyAll must hear the hung replica, so the read blocks until
	// the context fires.
	cctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = nodes[0].Get(cctx, platRing, key, ReadOptions{Consistency: ConsistencyAll})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled read took %v", elapsed)
	}

	// A deadline behaves the same way.
	dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer dcancel()
	if _, err := nodes[0].Get(dctx, platRing, key, ReadOptions{Consistency: ConsistencyAll}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
	// And the per-request Timeout option needs no caller-made context.
	if _, err := nodes[0].Get(ctx, platRing, key, ReadOptions{Consistency: ConsistencyAll, Timeout: 20 * time.Millisecond}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}

	// The straggler goroutines parked on the hung replica drain once
	// their contexts fire.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew %d -> %d after cancelled fan-outs", before, after)
	}
}

// TestMGetEnvelopeBound pins the batching contract: a 64-key batch costs
// at most one request envelope per remote node — independent of the key
// and partition counts — and an in-sync cluster triggers no repair
// traffic.
func TestMGetEnvelopeBound(t *testing.T) {
	var ct *countingTransport
	nodes := instrumentedCluster(t, func(tr transport.Transport) transport.Transport {
		ct = newCountingTransport(tr)
		return ct
	})
	keys := make([]string, 64)
	entries := make([]Entry, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("batch-%d", i)
		entries[i] = Entry{Key: keys[i], Value: []byte(fmt.Sprintf("v%d", i))}
	}
	// ConsistencyAll makes the batch land on every replica before MPut
	// returns: the no-repair assertion below needs in-sync replicas.
	if err := nodes[0].MultiPut(ctx, platRing, entries, WriteOptions{Consistency: ConsistencyAll}); err != nil {
		t.Fatal(err)
	}
	// Six nodes: the coordinator and five remote replica nodes.
	const remoteNodes = 5

	if got, max := ct.count(kindMultiPut), remoteNodes; got > max {
		t.Errorf("MultiPut sent %d envelopes for 64 keys, want <= %d", got, max)
	}

	ct.reset()
	res, err := nodes[0].MultiGet(ctx, platRing, keys, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(keys) {
		t.Fatalf("MultiGet returned %d results, want %d", len(res), len(keys))
	}
	for i, k := range keys {
		r := res[k]
		if len(r.Values) != 1 || string(r.Values[0]) != fmt.Sprintf("v%d", i) {
			t.Fatalf("MultiGet[%s] = %q", k, r.Values)
		}
	}
	if got, max := ct.count(kindMultiGet), remoteNodes; got > max {
		t.Errorf("64-key MGet sent %d envelopes, want <= one per remote node = %d", got, max)
	}
	// Replicas were in sync: reading must not have produced repair
	// envelopes.
	if got := ct.count(kindMultiPut); got != 0 {
		t.Errorf("in-sync MGet sent %d repair envelopes", got)
	}
	// Reading the same batch key-by-key costs up to 64·R envelopes — the
	// fan-out MGet amortizes away.
	ct.reset()
	for _, k := range keys {
		if _, err := nodes[0].Get(ctx, platRing, k, ReadOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if batch, looped := remoteNodes, ct.count(kindMultiGet); looped < 3*batch {
		t.Errorf("looped Gets sent %d envelopes, batched bound is %d — batching should be the clear win", looped, batch)
	}
}

// TestMGetRepairsStaleReplica: the batched read path read-repairs a
// replica that lost a key, just like single-key Get.
func TestMGetRepairsStaleReplica(t *testing.T) {
	_, nodes := testCluster(t)
	if err := nodes[0].Put(ctx, platRing, "heal-batch", []byte("v1"), nil, WriteOptions{Consistency: ConsistencyAll}); err != nil {
		t.Fatal(err)
	}
	reps, err := nodes[0].Replicas(platRing, "heal-batch")
	if err != nil {
		t.Fatal(err)
	}
	var victim *Node
	for _, n := range nodes {
		if n.Name() == reps[0] {
			victim = n
		}
	}
	if _, err := victim.Engine().Drop(storageKey(platRing, "heal-batch")); err != nil {
		t.Fatal(err)
	}
	// An all-replica batched read must heal the victim.
	if _, err := nodes[0].MultiGet(ctx, platRing, []string{"heal-batch"}, ReadOptions{Consistency: ConsistencyAll}); err != nil {
		t.Fatal(err)
	}
	if got := victim.Engine().Get(storageKey(platRing, "heal-batch")); len(got) != 1 || string(got[0].Value) != "v1" {
		t.Fatalf("batched read repair did not heal the victim: %+v", got)
	}
}

// TestMultiPutLaterDuplicateWins pins the batch-apply semantics: within
// one MultiPut, a later entry for the same key supersedes an earlier
// one, matching sequential Puts.
func TestMultiPutLaterDuplicateWins(t *testing.T) {
	_, nodes := testCluster(t)
	err := nodes[0].MultiPut(ctx, goldRing, []Entry{
		{Key: "dup", Value: []byte("first")},
		{Key: "dup", Value: []byte("second")},
	}, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nodes[1].Get(ctx, goldRing, "dup", ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 || string(res.Values[0]) != "second" {
		t.Fatalf("after duplicate batch: %q", res.Values)
	}
}

func TestMultiGetEmptyAndUnknownRing(t *testing.T) {
	_, nodes := testCluster(t)
	res, err := nodes[0].MultiGet(ctx, goldRing, nil, ReadOptions{})
	if err != nil || len(res) != 0 {
		t.Errorf("empty MultiGet = %v, %v", res, err)
	}
	if _, err := nodes[0].MultiGet(ctx, ring.RingID{App: "x", Class: "y"}, []string{"k"}, ReadOptions{}); err == nil {
		t.Error("unknown ring batch read accepted")
	}
	if err := nodes[0].MultiPut(ctx, ring.RingID{App: "x", Class: "y"}, []Entry{{Key: "k"}}, WriteOptions{}); err == nil {
		t.Error("unknown ring batch write accepted")
	}
	if err := nodes[0].MultiPut(ctx, goldRing, nil, WriteOptions{}); err != nil {
		t.Errorf("empty MultiPut = %v", err)
	}
}
