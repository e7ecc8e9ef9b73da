package cluster

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"skute/internal/agent"
	"skute/internal/economy"
	"skute/internal/merkle"
	"skute/internal/ring"
	"skute/internal/store"
	"skute/internal/transport"
	"skute/internal/vclock"
)

// testConfig builds a 6-node cluster over 3 continents with two rings.
func testConfig() Config {
	var nodes []NodeInfo
	conts := []string{"eu", "us", "ap"}
	for i := 0; i < 6; i++ {
		ct := conts[i%3]
		nodes = append(nodes, NodeInfo{
			Name:          fmt.Sprintf("n%d", i),
			Addr:          fmt.Sprintf("mem-n%d", i),
			LocPath:       fmt.Sprintf("%s/c%d/dc0/r0/k0/s%d", ct, i%3, i),
			Confidence:    1,
			MonthlyRent:   100,
			Capacity:      1 << 30,
			QueryCapacity: 1000,
		})
	}
	// n5 is the expensive server.
	nodes[5].MonthlyRent = 200
	return Config{
		Nodes: nodes,
		Rings: []RingSpec{
			{App: "appA", Class: "gold", Partitions: 8, Replicas: 2},
			{App: "appB", Class: "plat", Partitions: 4, Replicas: 3},
		},
	}
}

// testCluster boots every node over one in-memory mesh.
func testCluster(t *testing.T) (*transport.Memory, []*Node) {
	t.Helper()
	mesh := transport.NewMemory()
	cfg := testConfig()
	var nodes []*Node
	for _, ni := range cfg.Nodes {
		n, err := NewNode(cfg, ni.Name, mesh, store.NewMemory())
		if err != nil {
			t.Fatalf("NewNode(%s): %v", ni.Name, err)
		}
		nodes = append(nodes, n)
	}
	// All nodes booted together: skip the probation round so quorum
	// traffic flows without a heartbeat exchange first.
	for _, n := range nodes {
		n.ConfirmPeers()
	}
	t.Cleanup(func() { mesh.Close() })
	return mesh, nodes
}

// kill makes the node unreachable and dead in every member table.
func kill(mesh *transport.Memory, nodes []*Node, name string) {
	for _, n := range nodes {
		if n.Name() == name {
			mesh.SetDown(n.self.Addr, true)
		}
		n.Membership().Fail(name)
	}
}

// ctx is the background context most tests coordinate under; the
// context-specific behaviors have their own tests in ops_ctx_test.go.
var ctx = context.Background()

var goldRing = ring.RingID{App: "appA", Class: "gold"}
var platRing = ring.RingID{App: "appB", Class: "plat"}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("good config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Nodes = nil },
		func(c *Config) { c.Nodes[0].Name = "" },
		func(c *Config) { c.Nodes[1].Name = c.Nodes[0].Name },
		func(c *Config) { c.Nodes[1].Addr = c.Nodes[0].Addr },
		func(c *Config) { c.Nodes[0].LocPath = "bad" },
		func(c *Config) { c.Nodes[0].Confidence = 2 },
		func(c *Config) { c.Nodes[0].MonthlyRent = 0 },
		func(c *Config) { c.Nodes[0].Capacity = 0 },
		func(c *Config) { c.Rings = nil },
		func(c *Config) { c.Rings[0].App = "" },
		func(c *Config) { c.Rings[0].Partitions = 0 },
		func(c *Config) { c.Rings[0].Replicas = 99 },
		func(c *Config) { c.ReadQuorum = -1 },
	}
	for i, mut := range mutations {
		c := testConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: want error", i)
		}
	}
}

func TestNewNodeUnknownName(t *testing.T) {
	mesh := transport.NewMemory()
	defer mesh.Close()
	if _, err := NewNode(testConfig(), "ghost", mesh, store.NewMemory()); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestLayoutDeterministicAndDiverse(t *testing.T) {
	cfg := testConfig()
	mrA, _, err := buildLayout(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mrB, _, _ := buildLayout(cfg)
	for _, id := range mrA.IDs() {
		pa, pb := mrA.Ring(id).Partitions(), mrB.Ring(id).Partitions()
		for i := range pa {
			if fmt.Sprint(pa[i].Replicas) != fmt.Sprint(pb[i].Replicas) {
				t.Fatalf("layout not deterministic for %s partition %d", id, i)
			}
		}
	}
	// Gold ring: 2 replicas, and they must sit on different continents
	// (diversity-aware placement has 3 continents to choose from).
	gr := mrA.Ring(goldRing)
	for _, p := range gr.Partitions() {
		if len(p.Replicas) != 2 {
			t.Fatalf("partition %d has %d replicas", p.ID, len(p.Replicas))
		}
		c0 := cfg.Nodes[int(p.Replicas[0])].LocPath[:2]
		c1 := cfg.Nodes[int(p.Replicas[1])].LocPath[:2]
		if c0 == c1 {
			t.Errorf("partition %d replicas co-located on continent %s", p.ID, c0)
		}
	}
}

func TestPutGetAcrossCoordinators(t *testing.T) {
	_, nodes := testCluster(t)
	if err := nodes[0].Put(ctx, goldRing, "user:42", []byte("hello"), nil, WriteOptions{}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Any node can coordinate the read.
	for _, n := range nodes {
		res, err := n.Get(ctx, goldRing, "user:42", ReadOptions{})
		if err != nil {
			t.Fatalf("Get via %s: %v", n.Name(), err)
		}
		if len(res.Values) != 1 || string(res.Values[0]) != "hello" {
			t.Fatalf("Get via %s = %q", n.Name(), res.Values)
		}
	}
	// Missing key.
	res, err := nodes[1].Get(ctx, goldRing, "missing", ReadOptions{})
	if err != nil {
		t.Fatalf("Get missing: %v", err)
	}
	if len(res.Values) != 0 {
		t.Errorf("missing key returned %q", res.Values)
	}
	// Unknown ring errors.
	if _, err := nodes[0].Get(ctx, ring.RingID{App: "x", Class: "y"}, "k", ReadOptions{}); err == nil {
		t.Error("unknown ring read accepted")
	}
	if err := nodes[0].Put(ctx, ring.RingID{App: "x", Class: "y"}, "k", nil, nil, WriteOptions{}); err == nil {
		t.Error("unknown ring write accepted")
	}
}

func TestReadModifyWrite(t *testing.T) {
	_, nodes := testCluster(t)
	if err := nodes[0].Put(ctx, goldRing, "counter", []byte("1"), nil, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := nodes[1].Get(ctx, goldRing, "counter", ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Put(ctx, goldRing, "counter", []byte("2"), res.Context, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	res2, err := nodes[2].Get(ctx, goldRing, "counter", ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Values) != 1 || string(res2.Values[0]) != "2" {
		t.Fatalf("after RMW: %q", res2.Values)
	}
}

func TestConcurrentSiblingsAndReconcile(t *testing.T) {
	_, nodes := testCluster(t)
	// Two writers with no context produce concurrent siblings.
	if err := nodes[0].Put(ctx, goldRing, "conflict", []byte("from-n0"), nil, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Put(ctx, goldRing, "conflict", []byte("from-n1"), nil, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := nodes[2].Get(ctx, goldRing, "conflict", ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 2 {
		t.Fatalf("want 2 siblings, got %q", res.Values)
	}
	// Writing with the merged context reconciles.
	if err := nodes[2].Put(ctx, goldRing, "conflict", []byte("merged"), res.Context, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err = nodes[3].Get(ctx, goldRing, "conflict", ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 || string(res.Values[0]) != "merged" {
		t.Fatalf("after reconcile: %q", res.Values)
	}
}

func TestDelete(t *testing.T) {
	_, nodes := testCluster(t)
	nodes[0].Put(ctx, goldRing, "gone", []byte("x"), nil, WriteOptions{})
	res, _ := nodes[0].Get(ctx, goldRing, "gone", ReadOptions{})
	if err := nodes[0].Delete(ctx, goldRing, "gone", res.Context, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := nodes[1].Get(ctx, goldRing, "gone", ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 0 {
		t.Fatalf("deleted key returned %q", res.Values)
	}
}

func TestReadRepairHealsStaleReplica(t *testing.T) {
	_, nodes := testCluster(t)
	if err := nodes[0].Put(ctx, goldRing, "heal-me", []byte("v1"), nil, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	// Find the replicas and wipe the key from one of them directly.
	replicas, err := nodes[0].Replicas(goldRing, "heal-me")
	if err != nil {
		t.Fatal(err)
	}
	var victim *Node
	for _, n := range nodes {
		if n.Name() == replicas[0] {
			victim = n
		}
	}
	if _, err := victim.Engine().Drop(storageKey(goldRing, "heal-me")); err != nil {
		t.Fatal(err)
	}
	if victim.Engine().Get(storageKey(goldRing, "heal-me")) != nil {
		t.Fatal("drop failed")
	}
	// A quorum read from any coordinator repairs the victim.
	if _, err := nodes[3].Get(ctx, goldRing, "heal-me", ReadOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := victim.Engine().Get(storageKey(goldRing, "heal-me")); len(got) != 1 || string(got[0].Value) != "v1" {
		t.Fatalf("read repair did not heal the victim: %+v", got)
	}
}

// TestStoredValuesOwnNoCallerBuffer: the engine keeps the versions it
// accepts as they are, so the coordinator's own write share and its own
// read repair must hand it copies. A caller that reuses its value buffer
// after Put, or the result slice of a repairing Get, must leave every
// replica unchanged.
func TestStoredValuesOwnNoCallerBuffer(t *testing.T) {
	_, nodes := testCluster(t)
	replicas, err := nodes[0].Replicas(goldRing, "own")
	if err != nil {
		t.Fatal(err)
	}
	var coord *Node
	for _, n := range nodes {
		if n.Name() == replicas[0] {
			coord = n
		}
	}
	buf := []byte("v1")
	if err := coord.Put(ctx, goldRing, "own", buf, nil, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XX")
	check := func(when string) {
		t.Helper()
		for _, n := range nodes {
			if !slices.Contains(replicas, n.Name()) {
				continue
			}
			if got := n.Engine().Get(storageKey(goldRing, "own")); len(got) != 1 || string(got[0].Value) != "v1" {
				t.Fatalf("%s: %s holds %+v, want v1", when, n.Name(), got)
			}
		}
	}
	check("after the caller reused its Put buffer")

	if _, err := coord.Engine().Drop(storageKey(goldRing, "own")); err != nil {
		t.Fatal(err)
	}
	res, err := coord.Get(ctx, goldRing, "own", ReadOptions{})
	if err != nil || len(res.Values) != 1 {
		t.Fatalf("Get = %+v, %v", res, err)
	}
	copy(res.Values[0], "YY")
	check("after the caller changed a repairing Get's result")
}

func TestQuorumFailure(t *testing.T) {
	mesh, nodes := testCluster(t)
	// Kill every node but the coordinator: most partitions lose their
	// replicas entirely, so writes through n0 must fail for keys whose
	// replica set excludes n0.
	for i := 1; i < len(nodes); i++ {
		kill(mesh, nodes, nodes[i].Name())
	}
	failures := 0
	for i := 0; i < 16; i++ {
		if err := nodes[0].Put(ctx, goldRing, fmt.Sprintf("k%d", i), []byte("v"), nil, WriteOptions{}); err != nil {
			if !strings.Contains(err.Error(), "quorum") {
				t.Fatalf("unexpected error: %v", err)
			}
			failures++
		}
	}
	if failures == 0 {
		t.Error("no quorum failures despite 5/6 nodes down")
	}
}

func TestAntiEntropyConvergence(t *testing.T) {
	_, nodes := testCluster(t)
	// ConsistencyAll: the test inspects replica engines directly, so the
	// write must complete on every replica before it returns.
	if err := nodes[0].Put(ctx, platRing, "sync-key", []byte("v1"), nil, WriteOptions{Consistency: ConsistencyAll}); err != nil {
		t.Fatal(err)
	}
	replicas, err := nodes[0].Replicas(platRing, "sync-key")
	if err != nil {
		t.Fatal(err)
	}
	if len(replicas) != 3 {
		t.Fatalf("replicas = %v", replicas)
	}
	byName := map[string]*Node{}
	for _, n := range nodes {
		byName[n.Name()] = n
	}
	a, b := byName[replicas[0]], byName[replicas[1]]
	// Diverge: write a newer version directly into a's engine only.
	sk := storageKey(platRing, "sync-key")
	cur := a.Engine().Get(sk)
	newer := store.Version{Value: []byte("v2"), Clock: vclock.Merge(cur[0].Clock, nil).Tick("direct")}
	if _, err := a.Engine().Put(sk, newer); err != nil {
		t.Fatal(err)
	}

	// Locate the partition id.
	n0 := nodes[0]
	n0.mu.Lock()
	part := n0.rings.Ring(platRing).Lookup(ring.HashKey("sync-key")).ID
	n0.mu.Unlock()

	repaired, err := b.SyncPartition(ctx, platRing, part, a.Name())
	if err != nil {
		t.Fatal(err)
	}
	if repaired != 1 {
		t.Errorf("repaired = %d, want 1", repaired)
	}
	// Both sides must now agree.
	ta := merkle.Build(a.partitionLeaves(platRing, part))
	tb := merkle.Build(b.partitionLeaves(platRing, part))
	if ta.Root() != tb.Root() {
		t.Error("replicas did not converge after anti-entropy")
	}
	if got := b.Engine().Get(sk); len(got) != 1 || string(got[0].Value) != "v2" {
		t.Errorf("b's state after sync: %+v", got)
	}
	// A second round finds nothing.
	repaired, err = b.SyncPartition(ctx, platRing, part, a.Name())
	if err != nil || repaired != 0 {
		t.Errorf("second sync: %d, %v", repaired, err)
	}
}

func TestEconomicEpochRepairsFailure(t *testing.T) {
	mesh, nodes := testCluster(t)
	// Seed data everywhere.
	for i := 0; i < 20; i++ {
		if err := nodes[i%6].Put(ctx, goldRing, fmt.Sprintf("key-%d", i), []byte("payload"), nil, WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	kill(mesh, nodes, "n2")

	params := agent.DefaultParams()
	rent := economy.DefaultRentParams()
	// Run a few epochs: announce rents, then decisions, on every alive
	// node sequentially (the cluster's epoch driver).
	for epoch := 0; epoch < 3; epoch++ {
		for _, n := range nodes {
			if n.Name() == "n2" {
				continue
			}
			if _, _, err := n.AnnounceRent(ctx, rent); err != nil {
				t.Fatalf("announce %s: %v", n.Name(), err)
			}
		}
		for _, n := range nodes {
			if n.Name() == "n2" {
				continue
			}
			if _, err := n.RunEconomicEpoch(ctx, params, rent); err != nil {
				t.Fatalf("epoch %s: %v", n.Name(), err)
			}
		}
	}

	// Every partition of the gold ring must be back above its threshold
	// from every alive node's viewpoint.
	for _, n := range nodes {
		if n.Name() == "n2" {
			continue
		}
		avails, err := n.Availability(goldRing)
		if err != nil {
			t.Fatal(err)
		}
		for part, av := range avails {
			if av < 59 {
				t.Errorf("%s sees partition %d at availability %.1f", n.Name(), part, av)
			}
		}
	}
	// And all data must remain readable.
	for i := 0; i < 20; i++ {
		res, err := nodes[0].Get(ctx, goldRing, fmt.Sprintf("key-%d", i), ReadOptions{})
		if err != nil {
			t.Fatalf("Get after repair: %v", err)
		}
		if len(res.Values) != 1 || string(res.Values[0]) != "payload" {
			t.Fatalf("key-%d lost after failure+repair: %q", i, res.Values)
		}
	}
}

func TestEconomicEpochMigratesOffExpensiveNode(t *testing.T) {
	_, nodes := testCluster(t)
	params := agent.DefaultParams()
	params.F = 1 // fast hysteresis for the test
	rent := economy.DefaultRentParams()

	countOn := func(name string) int {
		n := nodes[0]
		n.mu.Lock()
		defer n.mu.Unlock()
		id, _ := n.nodeID(name)
		total := 0
		for _, rid := range n.rings.IDs() {
			for _, p := range n.rings.Ring(rid).Partitions() {
				if p.HasReplica(id) {
					total++
				}
			}
		}
		return total
	}

	before := countOn("n5") // the 200$/month server
	for epoch := 0; epoch < 6; epoch++ {
		for _, n := range nodes {
			if _, _, err := n.AnnounceRent(ctx, rent); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range nodes {
			if _, err := n.RunEconomicEpoch(ctx, params, rent); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := countOn("n5")
	if after >= before && before > 0 {
		t.Errorf("expensive node n5 still hosts %d vnodes (was %d); economy should migrate away", after, before)
	}
	// SLAs must hold afterwards.
	for _, id := range []ring.RingID{goldRing, platRing} {
		avails, err := nodes[0].Availability(id)
		if err != nil {
			t.Fatal(err)
		}
		for part, av := range avails {
			if av <= 0 {
				t.Errorf("ring %s partition %d availability %.1f after migrations", id, part, av)
			}
		}
	}
}

func TestHeartbeatsKeepPeersAlive(t *testing.T) {
	_, nodes := testCluster(t)
	for _, n := range nodes {
		n.SendHeartbeats(ctx)
	}
	for _, n := range nodes {
		for _, p := range nodes {
			if !n.alive(p.Name()) {
				t.Errorf("%s considers %s dead after heartbeats", n.Name(), p.Name())
			}
		}
	}
}

func TestSplitStorageKey(t *testing.T) {
	user, id := splitStorageKey("appA/gold/user:42/profile")
	if user != "user:42/profile" || id != goldRing {
		t.Errorf("split = %q %v", user, id)
	}
	if _, id := splitStorageKey("no-slashes"); id != (ring.RingID{}) {
		t.Error("malformed key produced a ring id")
	}
}
