package skute

import (
	"fmt"
	"os"
	"sync/atomic"
	"testing"

	"skute/internal/store"
	"skute/internal/vclock"
)

// benchScale selects the experiment scale for the figure benchmarks:
// Quick by default so `go test -bench=.` stays fast; set
// SKUTE_BENCH_SCALE=paper to regenerate every figure at the full Section
// III-A setup (200 servers, 3 x 200 partitions — minutes, and the numbers
// recorded in EXPERIMENTS.md).
func benchScale() bool { return os.Getenv("SKUTE_BENCH_SCALE") == "paper" }

// benchExperiment runs one experiment per benchmark iteration and reports
// a headline metric so regressions in the *result* (not just the runtime)
// are visible.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	paper := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := RunExperiment(id, paper)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for k, v := range res.Facts {
				b.ReportMetric(v, k)
			}
		}
	}
}

// BenchmarkFig2 regenerates Fig. 2: startup replication and convergence
// of virtual nodes per server (cheap vs expensive price classes).
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3 regenerates Fig. 3: per-ring virtual-node totals under a
// server upgrade and a correlated failure.
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4 regenerates Fig. 4: per-ring per-server query load
// through the Slashdot spike.
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5 regenerates Fig. 5: storage saturation and insert
// failures.
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkAblationPlacement compares the economy against random
// placement (cost and SLA compliance).
func BenchmarkAblationPlacement(b *testing.B) { benchExperiment(b, "ablation-placement") }

// BenchmarkAblationDiversity compares diversity-aware and count-only
// placement under a datacenter failure.
func BenchmarkAblationDiversity(b *testing.B) { benchExperiment(b, "ablation-diversity") }

// BenchmarkAblationFloor measures the anti-churn effect of the utility
// floor.
func BenchmarkAblationFloor(b *testing.B) { benchExperiment(b, "ablation-floor") }

// benchCluster builds a 6-server embedded cluster for the store-path
// benchmarks.
func benchCluster(b *testing.B) *Cluster {
	b.Helper()
	c, err := NewCluster(Options{
		Servers: []Server{
			{Name: "eu-1", Location: "eu/ch/dc0/r0/k0/s0", MonthlyRent: 100},
			{Name: "eu-2", Location: "eu/de/dc0/r0/k0/s1", MonthlyRent: 100},
			{Name: "us-1", Location: "us/us-east/dc0/r0/k0/s2", MonthlyRent: 100},
			{Name: "us-2", Location: "us/us-west/dc0/r0/k0/s3", MonthlyRent: 100},
			{Name: "ap-1", Location: "ap/jp/dc0/r0/k0/s4", MonthlyRent: 125},
			{Name: "ap-2", Location: "ap/sg/dc0/r0/k0/s5", MonthlyRent: 125},
		},
		Apps: []App{{Name: "bench", SLA: SLA{Class: "std", Replicas: 3}, Partitions: 32}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// BenchmarkClusterPut measures a quorum write (W=2 of 3 replicas) through
// the embedded cluster.
func BenchmarkClusterPut(b *testing.B) {
	c := benchCluster(b)
	val := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Put(ctx, "bench", fmt.Sprintf("key-%d", i%4096), val, nil, WriteOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterGet measures a quorum read with read repair through the
// embedded cluster.
func BenchmarkClusterGet(b *testing.B) {
	c := benchCluster(b)
	val := make([]byte, 256)
	for i := 0; i < 1024; i++ {
		if err := c.Put(ctx, "bench", fmt.Sprintf("key-%d", i), val, nil, WriteOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Get(ctx, "bench", fmt.Sprintf("key-%d", i%1024), ReadOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreParallel measures the sharded engine under parallel
// mixed load (1 put : 3 gets per iteration group) across all cores —
// the scaling the per-shard locks buy over the old single-mutex engine.
// Compare with -cpu 1,4,8: throughput should rise with cores instead of
// flatlining on lock contention.
func BenchmarkStoreParallel(b *testing.B) {
	e := store.NewMemory()
	val := make([]byte, 256)
	for i := 0; i < 4096; i++ {
		if _, err := e.Put(fmt.Sprintf("key-%d", i), store.Version{Value: val, Clock: vclock.VC{"seed": uint64(i + 1)}}); err != nil {
			b.Fatal(err)
		}
	}
	var worker atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		node := fmt.Sprintf("w%d", worker.Add(1))
		var clock uint64
		i := 0
		for pb.Next() {
			k := fmt.Sprintf("key-%d", i%4096)
			if i%4 == 0 {
				clock++
				if _, err := e.Put(k, store.Version{Value: val, Clock: vclock.VC{node: clock}}); err != nil {
					b.Error(err) // Fatal is not allowed off the benchmark goroutine
					return
				}
			} else {
				e.Get(k)
			}
			i++
		}
	})
}

// BenchmarkClusterPutParallel measures quorum writes issued from many
// client goroutines at once — the parallel replica fan-out plus the
// sharded engine on the replica side.
func BenchmarkClusterPutParallel(b *testing.B) {
	c := benchCluster(b)
	val := make([]byte, 256)
	var worker atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := worker.Add(1)
		i := 0
		for pb.Next() {
			if err := c.Put(ctx, "bench", fmt.Sprintf("key-%d-%d", g, i%1024), val, nil, WriteOptions{}); err != nil {
				b.Error(err) // Fatal is not allowed off the benchmark goroutine
				return
			}
			i++
		}
	})
}

// BenchmarkEconomicEpoch measures one full cluster-wide economic epoch
// (rent announcements + every hosted virtual node deciding).
func BenchmarkEconomicEpoch(b *testing.B) {
	c := benchCluster(b)
	for i := 0; i < 256; i++ {
		if err := c.Put(ctx, "bench", fmt.Sprintf("key-%d", i), []byte("v"), nil, WriteOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunEpoch(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMGetKeys seeds and returns 64 keys for the batched-read
// benchmarks.
func benchMGetKeys(b *testing.B, c *Cluster) []string {
	b.Helper()
	entries := make([]Entry, 64)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("mget-%d", i)
		entries[i] = Entry{Key: keys[i], Value: make([]byte, 256)}
	}
	if err := c.MPut(ctx, "bench", entries, WriteOptions{}); err != nil {
		b.Fatal(err)
	}
	return keys
}

// BenchmarkMGet measures a 64-key batched read: the keys group by
// partition and each replica node receives at most one envelope.
// Compare with BenchmarkMGetLoopedGets — the same 64 keys read as
// independent quorum rounds — to see what the batching buys.
func BenchmarkMGet(b *testing.B) {
	c := benchCluster(b)
	keys := benchMGetKeys(b, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.MGet(ctx, "bench", keys, ReadOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != len(keys) {
			b.Fatalf("got %d results", len(res))
		}
	}
}

// BenchmarkMGetLoopedGets is the baseline BenchmarkMGet beats: the same
// 64 keys, one independent quorum Get each.
func BenchmarkMGetLoopedGets(b *testing.B) {
	c := benchCluster(b)
	keys := benchMGetKeys(b, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			if _, _, err := c.Get(ctx, "bench", k, ReadOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMPut measures a 64-key batched write against its looped
// counterpart below.
func BenchmarkMPut(b *testing.B) {
	c := benchCluster(b)
	entries := make([]Entry, 64)
	for i := range entries {
		entries[i] = Entry{Key: fmt.Sprintf("mput-%d", i), Value: make([]byte, 256)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.MPut(ctx, "bench", entries, WriteOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
