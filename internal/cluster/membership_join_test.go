package cluster

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"skute/internal/agent"
	"skute/internal/economy"
	"skute/internal/membership"
	"skute/internal/ring"
	"skute/internal/store"
	"skute/internal/transport"
)

// joinTestConfig builds a small 3-node cluster with a single ring, the
// stage for the dynamic-membership tests: a 4th node joins through a
// seed, or one of the three dies and must be evicted.
func joinTestConfig(partitions, replicas int) Config {
	var nodes []NodeInfo
	conts := []string{"eu", "us", "ap"}
	for i := 0; i < 3; i++ {
		nodes = append(nodes, NodeInfo{
			Name:          fmt.Sprintf("n%d", i),
			Addr:          fmt.Sprintf("mem-n%d", i),
			LocPath:       fmt.Sprintf("%s/c%d/dc0/r0/k0/s%d", conts[i], i, i),
			Confidence:    1,
			MonthlyRent:   100,
			Capacity:      1 << 30,
			QueryCapacity: 1000,
		})
	}
	return Config{
		Nodes: nodes,
		Rings: []RingSpec{{App: "appJ", Class: "gold", Partitions: partitions, Replicas: replicas}},
	}
}

func bootJoinCluster(t *testing.T, cfg Config) (*transport.Memory, []*Node) {
	t.Helper()
	mesh := transport.NewMemory()
	t.Cleanup(func() { mesh.Close() })
	var nodes []*Node
	for _, ni := range cfg.Nodes {
		n, err := NewNode(cfg, ni.Name, mesh, store.NewMemory())
		if err != nil {
			t.Fatalf("NewNode(%s): %v", ni.Name, err)
		}
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		n.ConfirmPeers()
	}
	return mesh, nodes
}

// TestJoinNodeEndToEnd pins the acceptance path: a node booted with
// nothing but a seed address converges to the full member table and
// placement map, serves quorum reads as a coordinator, and — once the
// economy places partitions on it — receives the data through the
// throttled chunked-transfer path.
func TestJoinNodeEndToEnd(t *testing.T) {
	cfg := joinTestConfig(8, 2)
	cfg.TransferBytesPerSec = 64 << 20 // throttled wire path, fast enough for a test
	_, nodes := bootJoinCluster(t, cfg)
	id := ring.RingID{App: "appJ", Class: "gold"}
	const keys = 64
	for i := 0; i < keys; i++ {
		if err := nodes[0].Put(ctx, id, fmt.Sprintf("k-%d", i), []byte("v"), nil, WriteOptions{}); err != nil {
			t.Fatalf("seed write: %v", err)
		}
	}

	joiner, err := JoinNode(ctx, Config{Nodes: []NodeInfo{{
		Name: "n3", Addr: "mem-n3", LocPath: "eu/c9/dc1/r0/k0/s9",
		Confidence: 1, MonthlyRent: 10, Capacity: 1 << 30, QueryCapacity: 1000,
	}}, TransferChunkItems: 8, TransferBytesPerSec: 64 << 20}, "mem-n0", nodes[0].tr, store.NewMemory())
	if err != nil {
		t.Fatalf("JoinNode: %v", err)
	}

	// Full member table: the three originals plus the joiner itself.
	if got := joiner.Membership().Len(); got != 4 {
		t.Fatalf("joiner member table has %d entries, want 4", got)
	}
	// The seed spread the join record, so the whole cluster knows n3.
	for _, n := range nodes {
		if _, ok := n.Membership().Get("n3"); !ok {
			t.Fatalf("%s never heard of the joiner", n.Name())
		}
	}
	// The placement view matches the cluster's converged one.
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k-%d", i)
		want, err := nodes[0].Replicas(id, key)
		if err != nil {
			t.Fatal(err)
		}
		got, err := joiner.Replicas(id, key)
		if err != nil {
			t.Fatalf("joiner Replicas(%s): %v", key, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("placement diverged for %s: joiner %v, cluster %v", key, got, want)
		}
	}

	// One heartbeat round each way lifts probation, then the joiner
	// coordinates quorum reads against replicas it does not host.
	joiner.SendHeartbeats(ctx)
	for _, n := range nodes {
		n.SendHeartbeats(ctx)
	}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k-%d", i)
		res, err := joiner.Get(ctx, id, key, ReadOptions{})
		if err != nil {
			t.Fatalf("quorum read via joiner: %v", err)
		}
		if len(res.Values) != 1 || string(res.Values[0]) != "v" {
			t.Fatalf("read via joiner = %q", res.Values)
		}
	}

	// The joiner is the cheapest server by far; economic epochs migrate
	// partitions onto it and the data must arrive via chunked transfer.
	all := append(append([]*Node(nil), nodes...), joiner)
	moved := false
	for round := 0; round < 12 && !moved; round++ {
		for _, n := range all {
			if _, _, err := n.AnnounceRent(ctx, economy.DefaultRentParams()); err != nil {
				t.Fatalf("AnnounceRent: %v", err)
			}
		}
		for _, n := range all {
			if _, err := n.RunEconomicEpoch(ctx, agent.DefaultParams(), economy.DefaultRentParams()); err != nil {
				t.Fatalf("RunEconomicEpoch: %v", err)
			}
		}
		cnt, err := nodes[0].HostedCount("n3")
		if err != nil {
			t.Fatal(err)
		}
		moved = cnt > 0
	}
	if !moved {
		t.Fatal("economy never placed a partition on the cheap joiner")
	}
	if joiner.Counters().TransferChunks.Value() == 0 {
		t.Error("joiner adopted partitions without the chunked-transfer path")
	}
	if joiner.Counters().TransferItems.Value() == 0 {
		t.Error("chunked transfer moved zero items")
	}
	// Every key now replicated on the joiner is readable at All — the
	// transferred copy included.
	covered := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k-%d", i)
		reps, err := joiner.Replicas(id, key)
		if err != nil {
			t.Fatal(err)
		}
		onJoiner := false
		for _, r := range reps {
			if r == "n3" {
				onJoiner = true
			}
		}
		if !onJoiner {
			continue
		}
		covered++
		res, err := joiner.Get(ctx, id, key, ReadOptions{Consistency: ConsistencyAll})
		if err != nil {
			t.Fatalf("All-read of transferred key %s: %v", key, err)
		}
		if len(res.Values) != 1 || string(res.Values[0]) != "v" {
			t.Fatalf("transferred key %s = %q", key, res.Values)
		}
	}
	if covered == 0 {
		t.Error("no key landed on a joiner-hosted partition despite the migration")
	}
}

// TestSuspicionDrivenEviction pins the failure-detector lifecycle with a
// fake clock: a hard-killed node (unreachable, no FailServer injection)
// progresses alive → suspect → dead on heartbeat silence alone, and the
// membership rounds then evict it from every replica set through the
// versioned placement map.
func TestSuspicionDrivenEviction(t *testing.T) {
	cfg := joinTestConfig(8, 2)
	cfg.SuspectAfter = time.Second
	cfg.DeadAfter = 2 * time.Second
	mesh, nodes := bootJoinCluster(t, cfg)
	id := ring.RingID{App: "appJ", Class: "gold"}

	// All three nodes share one fake clock.
	base := time.Now()
	var offset atomic.Int64
	now := func() time.Time { return base.Add(time.Duration(offset.Load())) }
	for _, n := range nodes {
		n.Now = now
		n.ConfirmPeers() // re-stamp confirmations at the fake clock's zero
	}
	for i := 0; i < 32; i++ {
		if err := nodes[0].Put(ctx, id, fmt.Sprintf("k-%d", i), []byte("v"), nil, WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	// n2 dies hard: unreachable, nobody calls Fail.
	mesh.SetDown("mem-n2", true)
	step := func() {
		for _, n := range nodes[:2] {
			n.SendHeartbeats(ctx)
			n.RunMembershipRound(ctx)
		}
	}

	offset.Store(int64(500 * time.Millisecond))
	step()
	if m, ok := nodes[0].Membership().Get("n2"); !ok || m.State != membership.Alive {
		t.Fatalf("n2 left alive state before the suspicion window: %+v", m)
	}

	offset.Store(int64(1500 * time.Millisecond)) // > SuspectAfter of silence
	step()
	if m, _ := nodes[0].Membership().Get("n2"); m.State != membership.Suspect {
		t.Fatalf("after %v of silence n2 = %v, want suspect", 1500*time.Millisecond, m.State)
	}

	offset.Store(int64(4 * time.Second)) // > SuspectAfter+DeadAfter
	step()
	step() // second round applies the peer's eviction deltas locally
	if m, _ := nodes[0].Membership().Get("n2"); m.State != membership.Dead {
		t.Fatalf("after the refutation grace n2 = %v, want dead", m.State)
	}
	// Evicted from every replica set, as seen from both survivors.
	for _, n := range nodes[:2] {
		cnt, err := n.HostedCount("n2")
		if err != nil {
			t.Fatal(err)
		}
		if cnt != 0 {
			t.Errorf("%s still sees n2 hosting %d vnodes after eviction", n.Name(), cnt)
		}
	}
	suspected := nodes[0].Counters().MembersSuspected.Value() + nodes[1].Counters().MembersSuspected.Value()
	dead := nodes[0].Counters().MembersDead.Value() + nodes[1].Counters().MembersDead.Value()
	evicted := nodes[0].Counters().MemberEvictions.Value() + nodes[1].Counters().MemberEvictions.Value()
	if suspected == 0 || dead == 0 || evicted == 0 {
		t.Errorf("lifecycle counters: suspected=%d dead=%d evicted=%d, want all > 0", suspected, dead, evicted)
	}
	// The survivors still serve every key (replicas 2, one survivor holds
	// each partition; One-level reads avoid the not-yet-repaired quorum).
	for i := 0; i < 32; i++ {
		res, err := nodes[0].Get(ctx, id, fmt.Sprintf("k-%d", i), ReadOptions{Consistency: ConsistencyOne})
		if err != nil || len(res.Values) != 1 {
			t.Fatalf("k-%d after eviction: %q, %v", i, res.Values, err)
		}
	}
}

// TestDeadRestartRefutesViaHeartbeatEcho pins the accusation echo: a
// node restarted from its descriptor after being declared dead never
// hears the death record through ordinary gossip — terminal members
// attract no heartbeats and its own stale records are rejected — so
// the heartbeat RESPONSE must carry the standing accusation back,
// letting the restarted node refute with a bumped incarnation that
// supersedes its death everywhere. (Found by driving the real
// binaries: kill -9 + restart left the node dead forever.)
func TestDeadRestartRefutesViaHeartbeatEcho(t *testing.T) {
	cfg := joinTestConfig(4, 2)
	mesh, nodes := bootJoinCluster(t, cfg)

	// n0 and n1 hold a standing death record for n2 at its incarnation.
	death := membership.Delta{Info: memberInfoOf(cfg.Nodes[2]), State: membership.Dead, Incarnation: 1}
	for _, n := range nodes[:2] {
		n.applyMemberDeltas(ctx, death)
	}

	// n2 "restarts": a fresh node from the same descriptor, back at
	// incarnation 1, with no idea it was ever declared dead. Serve
	// replaces the old handler on the mesh, like a rebind of the port.
	restarted, err := NewNode(cfg, "n2", mesh, store.NewMemory())
	if err != nil {
		t.Fatalf("restart n2: %v", err)
	}
	restarted.ConfirmPeers()

	// One beat round: the peers reject its stale alive@1 record but echo
	// dead@1 back; the refutation bumps past it and spreads.
	restarted.SendHeartbeats(ctx)

	if m, ok := restarted.Membership().Get("n2"); !ok || m.Incarnation < 2 || m.State != membership.Alive {
		t.Fatalf("restarted node never refuted its death: %+v", m)
	}
	for _, n := range nodes[:2] {
		m, _ := n.Membership().Get("n2")
		if m.State != membership.Alive || m.Incarnation < 2 {
			t.Fatalf("%s still sees n2 as %v@%d after the refutation", n.Name(), m.State, m.Incarnation)
		}
	}
	refuted := restarted.Counters().MemberRefutations.Value()
	if refuted == 0 {
		t.Error("refutation counter never moved")
	}
}

// flakyTransport injects faults into chunk fetches to exercise the
// resume cursor: after failAfter successful fetch-chunk calls, every
// further one fails until the fault is cleared.
type flakyTransport struct {
	transport.Transport
	failing atomic.Bool
	calls   atomic.Int64
	failAt  int64
}

func (f *flakyTransport) Call(ctx context.Context, addr string, env transport.Envelope) (transport.Envelope, error) {
	if env.Kind == kindFetchChunk && f.failing.Load() && f.calls.Add(1) > f.failAt {
		return transport.Envelope{}, fmt.Errorf("flaky: injected wire fault")
	}
	return f.Transport.Call(ctx, addr, env)
}

// TestPullPartitionChunkedResume pins the streaming-transfer mechanics:
// the pull arrives in bounded chunks, an interrupted pull keeps its
// cursor, and the retry resumes after the last applied key instead of
// restarting — no item crosses the wire twice.
func TestPullPartitionChunkedResume(t *testing.T) {
	cfg := joinTestConfig(1, 2) // single partition: every key transfers together
	_, nodes := bootJoinCluster(t, cfg)
	id := ring.RingID{App: "appJ", Class: "gold"}
	const items = 100
	for i := 0; i < items; i++ {
		if err := nodes[0].Put(ctx, id, fmt.Sprintf("k-%03d", i), []byte("value"), nil, WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	reps, err := nodes[0].Replicas(id, "k-000")
	if err != nil {
		t.Fatal(err)
	}
	donorAddr := "mem-" + reps[0]

	flaky := &flakyTransport{Transport: nodes[0].tr, failAt: 2}
	joiner, err := JoinNode(ctx, Config{Nodes: []NodeInfo{{
		Name: "n3", Addr: "mem-n3", LocPath: "eu/c9/dc1/r0/k0/s9",
		Confidence: 1, MonthlyRent: 10, Capacity: 1 << 30, QueryCapacity: 1000,
	}}, TransferChunkItems: 16}, "mem-n0", flaky, store.NewMemory())
	if err != nil {
		t.Fatalf("JoinNode: %v", err)
	}

	// The wire dies after two chunks: 32 of 100 items land, the cursor
	// survives.
	flaky.failing.Store(true)
	if err := joiner.pullPartition(ctx, id, 0, donorAddr); err == nil {
		t.Fatal("interrupted pull reported success")
	}
	c := joiner.Counters()
	if got := c.TransferChunks.Value(); got != 2 {
		t.Fatalf("chunks before the fault = %d, want 2", got)
	}
	if got := c.TransferItems.Value(); got != 32 {
		t.Fatalf("items before the fault = %d, want 32", got)
	}
	if got := joiner.eng.Len(); got != 32 {
		t.Fatalf("engine holds %d keys mid-transfer, want 32", got)
	}

	// The retry resumes after the cursor and finishes the remaining 68
	// items — 100 total items pulled proves nothing re-crossed the wire.
	flaky.failing.Store(false)
	if err := joiner.pullPartition(ctx, id, 0, donorAddr); err != nil {
		t.Fatalf("resumed pull: %v", err)
	}
	if got := c.TransferResumes.Value(); got != 1 {
		t.Errorf("resumes = %d, want 1", got)
	}
	if got := c.TransferItems.Value(); got != items {
		t.Errorf("total items pulled = %d, want %d (resume must not re-transfer)", got, items)
	}
	if got := joiner.eng.Len(); got != items {
		t.Errorf("engine holds %d keys after resume, want %d", got, items)
	}
	// A fresh pull over complete data is a no-op cursor-wise: it starts
	// from scratch by design (cursor cleared on completion).
	joiner.xmu.Lock()
	pending := len(joiner.resume)
	joiner.xmu.Unlock()
	if pending != 0 {
		t.Errorf("%d resume cursors left after a completed pull", pending)
	}
}

// TestRateLimiterThrottles pins the donor-side token bucket: the first
// second of budget is free, overspend is paced, cancellation aborts.
func TestRateLimiterThrottles(t *testing.T) {
	if newRateLimiter(0) != nil {
		t.Fatal("zero rate must mean unlimited (nil limiter)")
	}
	var nilRL *rateLimiter
	if err := nilRL.wait(ctx, 1<<30); err != nil {
		t.Fatalf("nil limiter must never block: %v", err)
	}
	rl := newRateLimiter(1 << 20) // 1 MiB/s
	if err := rl.wait(ctx, 1<<20); err != nil {
		t.Fatalf("first-second budget: %v", err)
	}
	start := time.Now()
	if err := rl.wait(ctx, 1<<18); err != nil { // 256 KiB of debt ≈ 250ms
		t.Fatal(err)
	}
	if e := time.Since(start); e < 150*time.Millisecond {
		t.Errorf("overspent wait returned in %v, want ≥ ~250ms of pacing", e)
	}
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := rl.wait(cctx, 1<<20); err == nil {
		t.Error("cancelled wait returned nil")
	}
}

// BenchmarkJoinTransfer measures join-time partition-pull throughput
// over the in-memory mesh: one full 512-key partition streamed in
// chunks per iteration (unthrottled — the token bucket is pay-per-byte
// and nil here, so this is the mechanism's ceiling).
func BenchmarkJoinTransfer(b *testing.B) {
	mesh := transport.NewMemory()
	defer mesh.Close()
	cfg := joinTestConfig(1, 2)
	var nodes []*Node
	for _, ni := range cfg.Nodes {
		n, err := NewNode(cfg, ni.Name, mesh, store.NewMemory())
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		n.ConfirmPeers()
	}
	id := ring.RingID{App: "appJ", Class: "gold"}
	const items = 512
	value := make([]byte, 256)
	for i := 0; i < items; i++ {
		if err := nodes[0].Put(ctx, id, fmt.Sprintf("k-%04d", i), value, nil, WriteOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	reps, err := nodes[0].Replicas(id, "k-0000")
	if err != nil {
		b.Fatal(err)
	}
	donorAddr := "mem-" + reps[0]
	joiner, err := JoinNode(ctx, Config{Nodes: []NodeInfo{{
		Name: "n3", Addr: "mem-n3", LocPath: "eu/c9/dc1/r0/k0/s9",
		Confidence: 1, MonthlyRent: 10, Capacity: 1 << 30, QueryCapacity: 1000,
	}}, TransferChunkItems: 64}, "mem-n0", mesh, store.NewMemory())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(items * len(value)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := joiner.pullPartition(ctx, id, 0, donorAddr); err != nil {
			b.Fatal(err)
		}
	}
}
