package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"skute/internal/ring"
	"skute/internal/store"
	"skute/internal/telemetry"
	"skute/internal/transport"
)

// benchTCPCluster boots a 6-server cluster over real sockets (3-replica
// ring, majority quorums) and returns a client bound to the first node.
// Every RPC — client to coordinator and coordinator to replica — rides
// the pooled, multiplexed frame protocol.
func benchTCPCluster(b *testing.B) ([]*Node, *Client, ring.RingID) {
	return benchTCPClusterWrapped(b, nil)
}

// benchTCPClusterWrapped is benchTCPCluster with an optional wrapper
// around the coordinator's (node 0's) outgoing transport — fault
// injection for the hedged-read benchmark.
func benchTCPClusterWrapped(b *testing.B, wrap0 func(transport.Transport) transport.Transport) ([]*Node, *Client, ring.RingID) {
	b.Helper()
	const servers = 6
	// Every probe listener stays open until all addresses are picked: a
	// probe closed early lets the kernel hand its port out again.
	// Every probe stays open until all addresses are picked: a probe
	// closed early lets the kernel hand its port out again, and two
	// nodes then collide on one address.
	addrs := make([]string, servers)
	probes := make([]*transport.TCP, servers)
	for i := range addrs {
		probes[i] = transport.NewTCP()
		if err := probes[i].Serve("127.0.0.1:0", func(context.Context, transport.Envelope) (transport.Envelope, error) {
			return transport.Envelope{}, fmt.Errorf("not ready")
		}); err != nil {
			b.Fatal(err)
		}
		addrs[i] = probes[i].Addrs()[0]
	}
	for _, p := range probes {
		p.Close()
	}

	cfg := Config{
		Rings: []RingSpec{{App: "bench", Class: "std", Partitions: 32, Replicas: 3}},
	}
	conts := []string{"eu", "eu", "us", "us", "ap", "ap"}
	for i := 0; i < servers; i++ {
		cfg.Nodes = append(cfg.Nodes, NodeInfo{
			Name:          fmt.Sprintf("n%d", i),
			Addr:          addrs[i],
			LocPath:       fmt.Sprintf("%s/c%d/dc0/r0/k0/s%d", conts[i], i, i),
			Confidence:    1,
			MonthlyRent:   100,
			Capacity:      1 << 30,
			QueryCapacity: 100000,
		})
	}

	nodes := make([]*Node, servers)
	for i := 0; i < servers; i++ {
		nt := transport.NewTCP()
		b.Cleanup(func() { nt.Close() })
		var err error
		var tr transport.Transport = &fixedAddrTCP{TCP: nt, addr: addrs[i]}
		if i == 0 && wrap0 != nil {
			tr = wrap0(tr)
		}
		nodes[i], err = NewNode(cfg, fmt.Sprintf("n%d", i), tr, store.NewMemory())
		if err != nil {
			b.Fatalf("NewNode over TCP: %v", err)
		}
	}
	for _, n := range nodes {
		n.ConfirmPeers()
	}
	ct := transport.NewTCP()
	b.Cleanup(func() { ct.Close() })
	return nodes, NewClient(ct, addrs[0]), ring.RingID{App: "bench", Class: "std"}
}

// BenchmarkTCPClusterPut measures a quorum write (W=2 of 3 replicas)
// end-to-end through the client — every leg over real sockets.
func BenchmarkTCPClusterPut(b *testing.B) {
	_, client, id := benchTCPCluster(b)
	val := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Put(ctx, id, fmt.Sprintf("key-%d", i%1024), val, nil, WriteOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPClusterGet seeds 512 keys and measures a quorum read
// end-to-end through the client.
func BenchmarkTCPClusterGet(b *testing.B) {
	_, client, id := benchTCPCluster(b)
	val := make([]byte, 256)
	for i := 0; i < 512; i++ {
		if err := client.Put(ctx, id, fmt.Sprintf("key-%d", i), val, nil, WriteOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := client.Get(ctx, id, fmt.Sprintf("key-%d", i%512), ReadOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPClusterMGet measures a 64-key batched read; the batch
// fans out one envelope per replica node, all over the wire.
func BenchmarkTCPClusterMGet(b *testing.B) {
	_, client, id := benchTCPCluster(b)
	entries := make([]Entry, 64)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("mget-%d", i)
		entries[i] = Entry{Key: keys[i], Value: make([]byte, 256)}
	}
	if err := client.MPut(ctx, id, entries, WriteOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := client.MGet(ctx, id, keys, ReadOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != len(keys) {
			b.Fatalf("got %d results", len(res))
		}
	}
}

// BenchmarkTCPClusterGetOne measures the coordinator's ConsistencyOne
// fast path with the full TCP cluster standing: the key is replicated on
// the coordinator, so the read is served from the local store under the
// read lease — no envelope, no store round trip beyond the engine get
// (see readpath.go). This is the per-read cost a client co-located with
// a replica pays after its request frame lands.
func BenchmarkTCPClusterGetOne(b *testing.B) {
	nodes, client, id := benchTCPCluster(b)
	// Seed keys and keep the ones the coordinator hosts.
	var local []string
	for i := 0; len(local) < 256 && i < 8192; i++ {
		key := fmt.Sprintf("one-%d", i)
		reps, err := nodes[0].Replicas(id, key)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range reps {
			if r == nodes[0].Name() {
				if err := client.Put(ctx, id, key, make([]byte, 256), nil, WriteOptions{}); err != nil {
					b.Fatal(err)
				}
				local = append(local, key)
				break
			}
		}
	}
	if len(local) == 0 {
		b.Fatal("no coordinator-hosted keys found")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := nodes[0].Get(ctx, id, local[i%len(local)], ReadOptions{Consistency: ConsistencyOne})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Values) != 1 {
			b.Fatalf("lease-served read returned %d values", len(res.Values))
		}
	}
}

// slowReplicaTransport delays the coordinator's quorum-read envelopes to
// one replica address — the single-slow-replica regime the hedged
// backup request exists for.
type slowReplicaTransport struct {
	transport.Transport
	victim string
	delay  time.Duration
}

func (s *slowReplicaTransport) Call(ctx context.Context, addr string, req transport.Envelope) (transport.Envelope, error) {
	if addr == s.victim && req.Kind == kindMultiGet {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return transport.Envelope{}, ctx.Err()
		}
	}
	return s.Transport.Call(ctx, addr, req)
}

// BenchmarkTCPClusterGetHedged measures quorum reads while one replica
// answers reads 5ms late. The hedged backup request bounds the tail near
// p99(healthy) instead of the slow replica's 5ms: the reported p99-ns
// should sit within ~2x of p50-ns, where the old unconditional wait
// would pin p99 at the injected delay.
func BenchmarkTCPClusterGetHedged(b *testing.B) {
	var slow *slowReplicaTransport
	nodes, client, id := benchTCPClusterWrapped(b, func(tr transport.Transport) transport.Transport {
		slow = &slowReplicaTransport{Transport: tr, delay: 5 * time.Millisecond}
		return slow
	})
	slow.victim = nodes[1].self.Addr
	// Keep only keys whose INITIAL quorum pair includes the slow replica
	// — the coordinator's own copy ordered to the front, then the first
	// R=2 of the replica list — so every measured read faces the slow
	// replica and must be rescued by the hedge. Keys that never touch it
	// would only dilute the distribution the benchmark exists to pin.
	var keys []string
	for i := 0; len(keys) < 256 && i < 8192; i++ {
		key := fmt.Sprintf("hedge-%d", i)
		reps, err := nodes[0].Replicas(id, key)
		if err != nil {
			b.Fatal(err)
		}
		for j, r := range reps {
			if r == nodes[0].Name() && j > 0 {
				reps[0], reps[j] = reps[j], reps[0]
				break
			}
		}
		if reps[0] != nodes[1].Name() && reps[1] != nodes[1].Name() {
			continue
		}
		if err := client.Put(ctx, id, key, make([]byte, 256), nil, WriteOptions{}); err != nil {
			b.Fatal(err)
		}
		keys = append(keys, key)
	}
	if len(keys) == 0 {
		b.Fatal("no keys found with the slow replica in the initial quorum pair")
	}
	// Warm the hedge tracker past its refresh interval so the delay has
	// converged from its 1ms default toward the cluster's healthy-read
	// p99 before the measured window.
	for start, i := time.Now(), 0; time.Since(start) < 1300*time.Millisecond; i++ {
		if _, err := nodes[0].Get(ctx, id, keys[i%len(keys)], ReadOptions{Consistency: ConsistencyQuorum}); err != nil {
			b.Fatal(err)
		}
	}
	hist := telemetry.NewHistogram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := nodes[0].Get(ctx, id, keys[i%len(keys)], ReadOptions{Consistency: ConsistencyQuorum}); err != nil {
			b.Fatal(err)
		}
		hist.RecordSince(start)
	}
	b.StopTimer()
	stats := hist.Snapshot()
	b.ReportMetric(float64(stats.Quantile(0.50)), "p50-ns")
	b.ReportMetric(float64(stats.Quantile(0.99)), "p99-ns")
}

// BenchmarkTCPMultiplexedHeartbeats measures a full heartbeat round
// while the data plane keeps the same peer connections busy with quorum
// writes — the multiplexing case: control-plane frames interleave with
// in-flight data-plane frames on the same pooled sockets instead of
// queueing behind them.
func BenchmarkTCPMultiplexedHeartbeats(b *testing.B) {
	nodes, client, id := benchTCPCluster(b)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			val := make([]byte, 256)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = client.Put(ctx, id, fmt.Sprintf("bg-%d-%d", g, i%256), val, nil, WriteOptions{Timeout: 5 * time.Second})
			}
		}(g)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes[0].SendHeartbeats(ctx)
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}
