package cluster

import (
	"slices"
	"sync"
	"testing"
	"time"

	"skute/internal/agent"
	"skute/internal/economy"
	"skute/internal/ring"
	"skute/internal/store"
)

// cheapN3Cluster boots testConfig with n3 made the cheapest server: its
// idle rent is 0.5 where every other server's is 3.5 or more.
func cheapN3Cluster(t *testing.T) (Config, []*Node, func(name string)) {
	t.Helper()
	cfg := testConfig()
	cfg.Nodes[3].MonthlyRent = 15
	mesh, nodes := bootJoinCluster(t, cfg)
	return cfg, nodes, func(name string) { kill(mesh, nodes, name) }
}

// announceAll announces the rent of every listed node and returns them.
func announceAll(t *testing.T, nodes []*Node, params economy.RentParams) map[string]float64 {
	t.Helper()
	out := make(map[string]float64, len(nodes))
	for _, n := range nodes {
		r, _, err := n.AnnounceRent(ctx, params)
		if err != nil {
			t.Fatalf("announce %s: %v", n.Name(), err)
		}
		out[n.Name()] = r
	}
	return out
}

// candidateNames lists the adoption candidates n sees for a partition.
func candidateNames(t *testing.T, n *Node, id ring.RingID, part int) ([]string, []string) {
	t.Helper()
	_, p, err := n.partition(id, part)
	if err != nil {
		t.Fatal(err)
	}
	rents, _ := n.rents()
	var names []string
	for _, c := range n.candidatesFor(p, rents) {
		names = append(names, n.nodeName(c.ID))
	}
	slices.Sort(names)
	return names, n.replicasOf(p)
}

// TestRentBoardDeath: the lowest-named node, which was the board, dies
// between two epochs. The next announce-then-decide on a survivor still
// prices every alive member that does not host the partition.
func TestRentBoardDeath(t *testing.T) {
	_, nodes, kill := cheapN3Cluster(t)
	rent := economy.DefaultRentParams()
	announceAll(t, nodes, rent)
	kill("n3")
	kill("n0")

	n2 := nodes[2]
	if _, _, err := n2.AnnounceRent(ctx, rent); err != nil {
		t.Fatal(err)
	}
	got, hosts := candidateNames(t, n2, goldRing, 0)
	var want []string
	for _, name := range []string{"n1", "n2", "n4", "n5"} {
		if !slices.Contains(hosts, name) {
			want = append(want, name)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("gold#0 (hosts %v): candidates %v, want every alive non-host %v", hosts, got, want)
	}
	if _, err := n2.RunEconomicEpoch(ctx, agent.DefaultParams(), rent); err != nil {
		t.Fatal(err)
	}
}

// TestRentDepartedMemberLeavesFloor: the cheapest server dies. Its rent
// must leave with it, so the utility floor of every decision is the
// least rent among the survivors.
func TestRentDepartedMemberLeavesFloor(t *testing.T) {
	_, nodes, kill := cheapN3Cluster(t)
	rent := economy.DefaultRentParams()
	if r := announceAll(t, nodes, rent); r["n3"] != 0.5 {
		t.Fatalf("n3 rent %v, want 0.5", r["n3"])
	}
	kill("n3")
	var alive []*Node
	for _, n := range nodes {
		if n.Name() != "n3" {
			alive = append(alive, n)
		}
	}
	announced := announceAll(t, alive, rent)
	floor := 0.0
	for _, r := range announced {
		if floor == 0 || r < floor {
			floor = r
		}
	}
	for _, n := range alive {
		rents, minRent := n.rents()
		if _, ok := rents["n3"]; ok || minRent != floor {
			t.Errorf("%s: board %v, floor %v; want n3 gone and floor %v", n.Name(), rents, minRent, floor)
		}
	}
	if floor != 3.5 {
		t.Errorf("survivor floor %v, want 3.5", floor)
	}
}

// TestRentRestartSameIncarnation: a restarted process comes back at the
// same incarnation, knowing its peers only from the descriptor, and
// announces before its first heartbeat round. Every peer must adopt the
// new rent: a stamp that restarted from zero would lose to the rents
// the process announced before the restart.
func TestRentRestartSameIncarnation(t *testing.T) {
	cfg, nodes, _ := cheapN3Cluster(t)
	announceAll(t, nodes, economy.DefaultRentParams())

	fresh, err := NewNode(cfg, "n4", nodes[4].tr, store.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := fresh.Membership().Get("n4"); m.Incarnation != 1 {
		t.Fatalf("restarted at incarnation %d, want 1", m.Incarnation)
	}
	// Ten epochs a month instead of thirty: an idle rent of 10, not 3.5.
	pricier := economy.DefaultRentParams()
	pricier.EpochsPerMonth = 10
	r, _, err := fresh.AnnounceRent(ctx, pricier)
	if err != nil {
		t.Fatal(err)
	}
	if r != 10 {
		t.Fatalf("restarted rent %v, want 10", r)
	}
	for _, n := range nodes {
		if n.Name() == "n4" {
			continue
		}
		if rents, _ := n.rents(); rents["n4"] != r {
			t.Errorf("%s holds n4's rent at %v, want the restarted %v", n.Name(), rents["n4"], r)
		}
	}
}

// TestRentJoinerCandidate: a node joins through a seed other than the
// lowest-named member and announces before it has heard back from any
// peer but its seed. After that first announce it is an adoption
// candidate on every node that considers it alive.
func TestRentJoinerCandidate(t *testing.T) {
	_, nodes, _ := cheapN3Cluster(t)
	rent := economy.DefaultRentParams()
	announceAll(t, nodes, rent)
	joiner, err := JoinNode(ctx, NodeInfo{
		Name: "n6", Addr: "mem-n6", LocPath: "eu/c9/dc1/r0/k0/s9",
		Confidence: 1, MonthlyRent: 100, Capacity: 1 << 30, QueryCapacity: 1000,
	}, "mem-n3", JoinOptions{}, nodes[0].tr, store.NewMemory())
	if err != nil {
		t.Fatalf("JoinNode: %v", err)
	}
	if _, _, err := joiner.AnnounceRent(ctx, rent); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		// The joiner's beat reached n; n's answer is not needed here.
		n.Membership().Confirm("n6", n.Now())
		got, hosts := candidateNames(t, n, goldRing, 0)
		if !slices.Contains(got, "n6") {
			t.Errorf("%s: gold#0 (hosts %v) candidates %v lack the joiner", n.Name(), hosts, got)
		}
	}
}

// TestRentConcurrentEpochs: every node runs its heartbeat and epoch
// rounds at once, as the runtime loops do, so rent stamps race
// heartbeat applies, member pushes and the epochs' rent reads. Run with
// -race. Afterwards each node holds every member's last stamp.
func TestRentConcurrentEpochs(t *testing.T) {
	_, nodes := testCluster(t)
	params := agent.DefaultParams()
	rent := economy.DefaultRentParams()
	last := make([]uint64, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				n.SendHeartbeats(ctx)
				_, seq, err := n.AnnounceRent(ctx, rent)
				if err != nil {
					t.Errorf("announce %s: %v", n.Name(), err)
					return
				}
				last[i] = seq
				if _, err := n.RunEconomicEpoch(ctx, params, rent); err != nil {
					t.Errorf("epoch %s: %v", n.Name(), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, n := range nodes {
		n.SendHeartbeats(ctx)
	}
	for _, n := range nodes {
		for i, p := range nodes {
			if m, _ := n.Membership().Get(p.Name()); m.RentSeq != last[i] {
				t.Errorf("%s holds %s's rent stamp %d, want %d", n.Name(), p.Name(), m.RentSeq, last[i])
			}
		}
	}
}

// TestRentSlowPeerKeepsEpoch: one peer answers nothing. The epoch loop's
// rent push gives up on it after a heartbeat interval, and the epoch
// still decides for every hosted vnode.
func TestRentSlowPeerKeepsEpoch(t *testing.T) {
	mesh, nodes := testCluster(t)
	mesh.SetDelay(nodes[5].self.Addr, time.Hour)
	n0 := nodes[0]
	if err := n0.Start(ctx, RuntimeConfig{Heartbeat: 20 * time.Millisecond, Epoch: 200 * time.Millisecond, Jitter: -1}); err != nil {
		t.Fatal(err)
	}
	defer n0.Stop()
	waitFor(t, 5*time.Second, func() bool {
		n0.mu.RLock()
		defer n0.mu.RUnlock()
		return len(n0.ledgers) > 0
	}, "an epoch that decides behind a silent peer")
}
