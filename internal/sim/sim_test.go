package sim

import (
	"testing"

	"skute/internal/agent"
	"skute/internal/economy"
	"skute/internal/server"
	"skute/internal/topology"
	"skute/internal/workload"
)

// smallConfig is a scaled-down paper cloud that converges in a few dozen
// epochs: 20 servers over 5 continents, 2 apps with SLAs of 2 and 3
// replicas, 16 partitions each.
func smallConfig() Config {
	apps := []AppSpec{
		{
			Name: "app1", Class: "gold", TargetReplicas: 2, Partitions: 16,
			PartitionSize: 1 << 20, LoadShare: 2.0 / 3,
			Popularity: workload.PaperPopularity(), PopClamp: 1000,
			Clients: workload.UniformClients{},
		},
		{
			Name: "app2", Class: "platinum", TargetReplicas: 3, Partitions: 16,
			PartitionSize: 1 << 20, LoadShare: 1.0 / 3,
			Popularity: workload.PaperPopularity(), PopClamp: 1000,
			Clients: workload.UniformClients{},
		},
	}
	return Config{
		Seed: 42,
		Topology: topology.Spec{
			Continents: 5, CountriesPerCont: 1, DCsPerCountry: 1,
			RoomsPerDC: 1, RacksPerRoom: 2, ServersPerRack: 2,
		},
		Capacities: server.Capacities{
			Storage:       64 << 20,
			ReplBandwidth: 8 << 20,
			MigrBandwidth: 4 << 20,
			QueryCapacity: 200,
		},
		Rent:              economy.DefaultRentParams(),
		Agent:             agent.DefaultParams(),
		CheapRent:         100,
		ExpensiveRent:     125,
		ExpensiveFraction: 0.3,
		Apps:              apps,
		Profile:           workload.Constant(300),
		MaxPartitionSize:  4 << 20,
		ConsistencyCost:   0.25,
	}
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("small config invalid: %v", err)
	}
	if err := PaperConfig().Validate(); err != nil {
		t.Fatalf("paper config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Topology.Continents = 0 },
		func(c *Config) { c.Capacities.Storage = 0 },
		func(c *Config) { c.Rent.EpochsPerMonth = 0 },
		func(c *Config) { c.Agent.F = 0 },
		func(c *Config) { c.CheapRent = 0 },
		func(c *Config) { c.ExpensiveFraction = 1.5 },
		func(c *Config) { c.Apps = nil },
		func(c *Config) { c.Apps[0].Name = "" },
		func(c *Config) { c.Apps[0].TargetReplicas = 0 },
		func(c *Config) { c.Apps[0].Partitions = 0 },
		func(c *Config) { c.Apps[0].PartitionSize = 0 },
		func(c *Config) { c.Apps[0].LoadShare = -1 },
		func(c *Config) { c.Apps[0].Popularity.Shape = 0 },
		func(c *Config) { c.Profile = nil },
		func(c *Config) { c.MaxPartitionSize = 0 },
		func(c *Config) { c.ConsistencyCost = -1 },
		func(c *Config) { c.Events = []Event{{Epoch: -1}} },
	}
	for i, mut := range mutations {
		c := smallConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: want validation error", i)
		}
		if _, err := New(c); err == nil {
			t.Errorf("mutation %d: New accepted invalid config", i)
		}
	}
}

func TestNewInitialPlacement(t *testing.T) {
	c, err := New(smallConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for ai, st := range c.apps {
		for _, p := range st.ring.Partitions() {
			if len(p.Replicas) != 1 {
				t.Errorf("app %d partition %d initial replicas = %d, want 1", ai, p.ID, len(p.Replicas))
			}
		}
	}
	assertStorageConsistent(t, c)
	if c.Board().Len() != 20 {
		t.Errorf("board has %d servers, want 20", c.Board().Len())
	}
	if c.AliveServers() != 20 {
		t.Errorf("alive = %d", c.AliveServers())
	}
}

// assertStorageConsistent checks the core accounting invariant: every
// server's used storage equals the sum of the sizes of the vnodes it
// hosts, and every vnode size matches its partition size.
func assertStorageConsistent(t *testing.T, c *Cloud) {
	t.Helper()
	want := make(map[int]int64)
	for _, st := range c.apps {
		for k, v := range st.vnodes {
			if v.Size != st.sizes[k.part] {
				t.Fatalf("vnode %v size %d != partition size %d", k, v.Size, st.sizes[k.part])
			}
			want[int(k.srv)] += v.Size
		}
	}
	for _, s := range c.Servers() {
		if !s.Alive() {
			continue
		}
		if s.UsedStorage() != want[int(s.ID())] {
			t.Fatalf("server %d used %d, vnodes account %d", s.ID(), s.UsedStorage(), want[int(s.ID())])
		}
	}
}

// assertReplicaSetsMatchVNodes checks ring metadata and agents agree.
func assertReplicaSetsMatchVNodes(t *testing.T, c *Cloud) {
	t.Helper()
	for ai, st := range c.apps {
		n := 0
		for _, p := range st.ring.Partitions() {
			for _, id := range p.Replicas {
				n++
				if _, ok := st.vnodes[vkey{p.ID, id}]; !ok {
					t.Fatalf("app %d partition %d replica on %d has no vnode", ai, p.ID, id)
				}
			}
		}
		if n != len(st.vnodes) {
			t.Fatalf("app %d: %d replicas but %d vnodes", ai, n, len(st.vnodes))
		}
	}
}

func TestConvergenceToSLA(t *testing.T) {
	c, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.Run(60, nil)
	for i, st := range c.AvailabilityStats() {
		if st.Violations != 0 {
			t.Errorf("ring %d: %d/%d partitions below threshold %v (min avail %v)",
				i, st.Violations, st.Partitions, st.Threshold, st.MinAvail)
		}
	}
	assertStorageConsistent(t, c)
	assertReplicaSetsMatchVNodes(t, c)
	// Replica counts should sit at or slightly above the SLA target.
	for ai, st := range c.apps {
		target := st.spec.TargetReplicas
		for _, p := range st.ring.Partitions() {
			if len(p.Replicas) < target {
				t.Errorf("app %d partition %d has %d replicas, SLA needs %d", ai, p.ID, len(p.Replicas), target)
			}
			if len(p.Replicas) > target+3 {
				t.Errorf("app %d partition %d over-replicated: %d replicas", ai, p.ID, len(p.Replicas))
			}
		}
	}
	if c.Epoch() != 60 {
		t.Errorf("Epoch = %d", c.Epoch())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() ([]int, Ops) {
		c, err := New(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		c.Run(30, nil)
		return c.VNodesPerRing(), c.Ops()
	}
	a1, o1 := run()
	a2, o2 := run()
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("ring %d vnodes differ across runs: %d vs %d", i, a1[i], a2[i])
		}
	}
	if o1 != o2 {
		t.Fatalf("ops differ: %+v vs %+v", o1, o2)
	}
}

func TestFailureRecovery(t *testing.T) {
	cfg := smallConfig()
	cfg.Events = []Event{{Epoch: 40, Kind: FailServers, Count: 4}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(40, nil)
	preOps := c.Ops()
	c.Run(40, nil)
	if c.AliveServers() != 16 {
		t.Fatalf("alive after failure = %d, want 16", c.AliveServers())
	}
	// A simultaneous 4-of-20 failure can statistically wipe both replicas
	// of a 2-replica partition (~3% per partition); such lost partitions
	// have no surviving agent and stay violated forever. Everything else
	// must recover.
	lost := int(c.Ops().LostPartitions)
	if lost > 2 {
		t.Fatalf("lost %d partitions; more than the statistical tail allows", lost)
	}
	viol := 0
	for _, st := range c.AvailabilityStats() {
		viol += st.Violations
	}
	if viol != lost {
		t.Errorf("%d violations after recovery, want exactly the %d lost partitions", viol, lost)
	}
	if got := c.Ops(); got.Replications <= preOps.Replications {
		t.Error("failure recovery performed no replications")
	}
	assertStorageConsistent(t, c)
	assertReplicaSetsMatchVNodes(t, c)
}

func TestAddServersEvent(t *testing.T) {
	cfg := smallConfig()
	cfg.Events = []Event{{Epoch: 30, Kind: AddServers, Count: 5}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(30, nil)
	before := 0
	for _, n := range c.VNodesPerRing() {
		before += n
	}
	c.Run(30, nil)
	if c.AliveServers() != 25 {
		t.Fatalf("alive = %d, want 25", c.AliveServers())
	}
	after := 0
	for _, n := range c.VNodesPerRing() {
		after += n
	}
	// Fig. 3: adding resources must not inflate the replica population.
	if diff := after - before; diff > before/5 || diff < -before/5 {
		t.Errorf("vnode total moved from %d to %d after upgrade", before, after)
	}
	assertStorageConsistent(t, c)
}

func TestCheapServersPreferred(t *testing.T) {
	cfg := smallConfig()
	cfg.Seed = 7
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(80, nil)
	counts := c.VNodeCounts()
	if counts.Cheap.N == 0 || counts.Expensive.N == 0 {
		t.Skip("seed produced a single price class")
	}
	if counts.Cheap.Mean <= counts.Expensive.Mean {
		t.Errorf("cheap servers host %.2f vnodes on average, expensive %.2f; economy should prefer cheap",
			counts.Cheap.Mean, counts.Expensive.Mean)
	}
}

func TestInsertsAndSplit(t *testing.T) {
	cfg := smallConfig()
	cfg.Inserts = workload.InsertStream{PerEpoch: 40, ValueSize: 64 << 10}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	partsBefore := c.rings.TotalPartitions()
	c.Run(60, nil)
	st := c.StorageStats()
	if st.InsertAttempts != 40*60 {
		t.Errorf("attempts = %d, want %d", st.InsertAttempts, 40*60)
	}
	if st.InsertFailures != 0 {
		t.Errorf("insert failures = %d with %.0f%% storage used", st.InsertFailures, st.UsedFraction*100)
	}
	if got := c.rings.TotalPartitions(); got <= partsBefore {
		t.Errorf("no partition split despite inserts: %d partitions", got)
	}
	assertStorageConsistent(t, c)
	assertReplicaSetsMatchVNodes(t, c)
}

func TestSlashdotAdaptation(t *testing.T) {
	cfg := smallConfig()
	cfg.Profile = workload.Slashdot{
		Base: 300, Peak: 6000, StartEpoch: 40, RampEpochs: 5, DecayEpochs: 30,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(40, nil)
	base := 0
	for _, n := range c.VNodesPerRing() {
		base += n
	}
	c.Run(15, nil) // through the peak
	peak := 0
	for _, n := range c.VNodesPerRing() {
		peak += n
	}
	if peak <= base {
		t.Errorf("no replication under the spike: %d -> %d vnodes", base, peak)
	}
	c.Run(120, nil) // decay and settle
	settled := 0
	for _, n := range c.VNodesPerRing() {
		settled += n
	}
	if settled >= peak {
		t.Errorf("surplus replicas never suicided: peak %d, settled %d", peak, settled)
	}
	assertStorageConsistent(t, c)
}

func TestMonthlyCostTracksHostingSet(t *testing.T) {
	c, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cost := c.MonthlyCost()
	if cost <= 0 {
		t.Fatalf("monthly cost = %v", cost)
	}
	// Upper bound: every server rented at the expensive price.
	if max := float64(len(c.Servers())) * 125; cost > max {
		t.Errorf("cost %v exceeds all-server bound %v", cost, max)
	}
}

func TestRingLoadStatsShape(t *testing.T) {
	c, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.Run(10, nil)
	stats := c.RingLoadStats()
	if len(stats) != 2 {
		t.Fatalf("stats for %d rings", len(stats))
	}
	// App 1 attracts 2x the load of app 2.
	if stats[0].Mean <= stats[1].Mean {
		t.Errorf("ring load means %v vs %v; app1 should dominate", stats[0].Mean, stats[1].Mean)
	}
}

func TestEventEpochIsExact(t *testing.T) {
	cfg := smallConfig()
	cfg.Events = []Event{{Epoch: 5, Kind: FailServers, Count: 100}} // fail everything
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(5, nil)
	if c.AliveServers() != 20 {
		t.Fatalf("event fired early: alive = %d", c.AliveServers())
	}
	c.Step()
	if c.AliveServers() != 0 {
		t.Fatalf("event did not fire: alive = %d", c.AliveServers())
	}
}

func BenchmarkEpochSmall(b *testing.B) {
	benchmarkEpoch(b, smallConfig(), 40)
}

// BenchmarkEpochPaper times one epoch of the Section III-A cloud (200
// servers, three applications) after the startup replication settled.
func BenchmarkEpochPaper(b *testing.B) {
	benchmarkEpoch(b, PaperConfig(), 30)
}

func benchmarkEpoch(b *testing.B, cfg Config, settle int) {
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	c.Run(settle, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}
