package cluster

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"skute/internal/agent"
	"skute/internal/economy"
	"skute/internal/resilience"
	"skute/internal/ring"
	"skute/internal/store"
)

// TestJoinerRestartKeepsBlindWrites: a joined node that restarts on its
// WAL must seed its write dot from the recovered store, as a descriptor
// node does. A dot that restarted from zero re-issues clock entries the
// store already holds, so the next blind write is dominated by an older
// one and silently lost.
func TestJoinerRestartKeepsBlindWrites(t *testing.T) {
	cfg := joinTestConfig(8, 2)
	cfg.ReadQuorum, cfg.WriteQuorum = 1, 1
	mesh, nodes := bootJoinCluster(t, cfg)
	id := ring.RingID{App: "appJ", Class: "gold"}
	walDir := filepath.Join(t.TempDir(), "n3.wal")

	join := func() (*Node, *store.Engine) {
		t.Helper()
		eng, err := store.Open(walDir)
		if err != nil {
			t.Fatal(err)
		}
		jcfg := Config{Nodes: []NodeInfo{{
			Name: "n3", Addr: "mem-n3", LocPath: "eu/c9/dc1/r0/k0/s9",
			Confidence: 1, MonthlyRent: 10, Capacity: 1 << 30, QueryCapacity: 1000,
		}}}
		n, err := JoinNode(ctx, jcfg, "mem-n0", mesh, eng)
		if err != nil {
			t.Fatalf("JoinNode: %v", err)
		}
		// One heartbeat round each way lifts probation on both sides.
		n.SendHeartbeats(ctx)
		for _, p := range nodes {
			p.SendHeartbeats(ctx)
		}
		return n, eng
	}
	joiner, eng := join()

	// The joiner is the cheapest server; epochs place partitions on it.
	all := append(append([]*Node(nil), nodes...), joiner)
	for round := 0; round < 12; round++ {
		if cnt, err := nodes[0].HostedCount("n3"); err != nil {
			t.Fatal(err)
		} else if cnt > 0 {
			break
		}
		for _, n := range all {
			if _, _, err := n.AnnounceRent(ctx, economy.DefaultRentParams()); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range all {
			if _, err := n.RunEconomicEpoch(ctx, agent.DefaultParams(), economy.DefaultRentParams()); err != nil {
				t.Fatal(err)
			}
		}
	}
	key := ""
	for i := 0; i < 256 && key == ""; i++ {
		k := fmt.Sprintf("blind-%d", i)
		reps, err := joiner.Replicas(id, k)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(reps, "n3") {
			key = k
		}
	}
	if key == "" {
		t.Fatal("economy never placed a partition on the cheap joiner")
	}

	wAll := WriteOptions{Consistency: ConsistencyAll}
	for _, v := range []string{"a", "b", "c"} {
		if err := joiner.Put(ctx, id, key, []byte(v), nil, wAll); err != nil {
			t.Fatalf("blind put %s: %v", v, err)
		}
	}

	// Restart the joiner from its WAL and rejoin on the same address.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	joiner, eng = join()
	defer eng.Close()

	if err := joiner.Put(ctx, id, key, []byte("d"), nil, wAll); err != nil {
		t.Fatalf("blind put d after restart: %v", err)
	}
	res, err := nodes[0].Get(ctx, id, key, ReadOptions{Consistency: ConsistencyAll})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, v := range res.Values {
		got = append(got, string(v))
	}
	if !slices.Contains(got, "d") {
		t.Fatalf("read after restart = %q, want it to hold the acked blind write d", got)
	}
}

// nodeKnobs is what a node made of its node-local tuning, read back from
// the built parts rather than from its Config.
type nodeKnobs struct {
	gate, chunk, trace, cache, breaker int
}

func knobsOf(t *testing.T, n *Node) nodeKnobs {
	t.Helper()
	var k nodeKnobs
	// The gate bound: Write requests admitted before the first shed.
	var releases []func()
	for len(releases) < 1000 {
		release, err := n.gate.Enter(context.Background(), resilience.Write)
		if err != nil {
			break
		}
		releases = append(releases, release)
	}
	for _, release := range releases {
		release()
	}
	k.gate = len(releases)
	k.chunk = n.chunkItems
	k.trace = len(n.trace.buf)
	for i := range n.rcache.shards {
		k.cache += n.rcache.shards[i].cap
	}
	// The breaker threshold: consecutive failures until a peer's breaker
	// opens.
	for k.breaker < 100 && n.breakers.State("knob-probe") != resilience.BreakerOpen {
		n.breakers.Record("knob-probe", errors.New("down"), 0)
		k.breaker++
	}
	return k
}

// TestJoinerKnobParity: a joiner takes its node-local tuning from its
// Config the same way a descriptor node does, so every knob reaches the
// part it sizes.
func TestJoinerKnobParity(t *testing.T) {
	tune := func(c *Config) {
		c.MaxInflight = 7
		c.TransferChunkItems = 5
		c.TraceEvents = 9
		c.ReadCacheEntries = 4 * cacheShards
		c.BreakerFailures = 3
	}
	cfg := joinTestConfig(8, 2)
	tune(&cfg)
	mesh, nodes := bootJoinCluster(t, cfg)
	jcfg := Config{Nodes: []NodeInfo{{
		Name: "n3", Addr: "mem-n3", LocPath: "eu/c9/dc1/r0/k0/s9",
		Confidence: 1, MonthlyRent: 100, Capacity: 1 << 30, QueryCapacity: 1000,
	}}}
	tune(&jcfg)
	joiner, err := JoinNode(ctx, jcfg, "mem-n0", mesh, store.NewMemory())
	if err != nil {
		t.Fatalf("JoinNode: %v", err)
	}
	want := nodeKnobs{gate: 7, chunk: 5, trace: 9, cache: 4 * cacheShards, breaker: 3}
	if got := knobsOf(t, nodes[0]); got != want {
		t.Fatalf("descriptor node knobs %+v, want %+v", got, want)
	}
	if got := knobsOf(t, joiner); got != want {
		t.Fatalf("joiner knobs %+v, want the descriptor node's %+v", got, want)
	}
}
