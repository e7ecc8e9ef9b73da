package cluster

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRuntimeLoopsRun: Start drives heartbeats (and with them the
// digest exchange) autonomously; Stop halts the loops; a stopped node
// can be started again.
func TestRuntimeLoopsRun(t *testing.T) {
	_, nodes := testCluster(t)
	rc := RuntimeConfig{
		Heartbeat: 5 * time.Millisecond,
		Reconcile: 7 * time.Millisecond,
	}
	rctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, n := range nodes {
		if err := n.Start(rctx, rc); err != nil {
			t.Fatalf("Start(%s): %v", n.Name(), err)
		}
	}
	// Double start is refused.
	if err := nodes[0].Start(rctx, rc); err == nil {
		t.Error("second Start accepted")
	}
	for _, n := range nodes {
		n := n
		waitFor(t, 2*time.Second, func() bool {
			return n.Counters().HeartbeatRounds.Value() >= 2
		}, n.Name()+" heartbeat rounds")
	}
	for _, n := range nodes {
		n.Stop()
	}
	// Stop is idempotent and the loops really halted.
	nodes[0].Stop()
	quiesced := nodes[0].Counters().HeartbeatRounds.Value()
	time.Sleep(20 * time.Millisecond)
	if got := nodes[0].Counters().HeartbeatRounds.Value(); got != quiesced {
		t.Errorf("heartbeats kept running after Stop: %d -> %d", quiesced, got)
	}
	// Restart after Stop works.
	if err := nodes[0].Start(rctx, rc); err != nil {
		t.Fatalf("restart: %v", err)
	}
	waitFor(t, 2*time.Second, func() bool {
		return nodes[0].Counters().HeartbeatRounds.Value() > quiesced
	}, "heartbeats after restart")
	nodes[0].Stop()
}

// TestRuntimeHealsPlacementDivergence: with only the runtime loops
// running (no explicit pushes), a node that missed a migration
// converges through the jittered heartbeat/reconcile machinery.
func TestRuntimeHealsPlacementDivergence(t *testing.T) {
	mesh, nodes := testCluster(t)
	const part = 3
	seed := entryOf(t, nodes[0], goldRing, part)
	byName := map[string]*Node{}
	for _, n := range nodes {
		byName[n.Name()] = n
	}
	var straggler *Node
	for _, n := range nodes {
		if n.Name() != seed.Replicas[0] && n.Name() != seed.Replicas[1] {
			straggler = n
			break
		}
	}
	// The straggler misses a replica-set change...
	mesh.SetDown(straggler.self.Addr, true)
	coord := byName[seed.Replicas[0]]
	if d, ok := coord.propose(goldRing, part, straggler.Name() /* irrelevant who */, ""); ok {
		coord.disseminate(ctx, d)
	}
	mesh.SetDown(straggler.self.Addr, false)

	// ...and the autonomous loops alone heal it.
	rctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rc := RuntimeConfig{Heartbeat: 5 * time.Millisecond, Reconcile: 7 * time.Millisecond}
	for _, n := range nodes {
		if err := n.Start(rctx, rc); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	want := entryOf(t, coord, goldRing, part)
	waitFor(t, 5*time.Second, func() bool {
		e, ok := straggler.PlacementEntry(goldRing, part)
		return ok && e.Version == want.Version && e.Origin == want.Origin
	}, "straggler to converge via runtime gossip")
}

func TestJittered(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := 100 * time.Millisecond
	for i := 0; i < 200; i++ {
		d := jittered(base, 0.2, rng)
		if d < 80*time.Millisecond || d > 120*time.Millisecond {
			t.Fatalf("jittered escaped the band: %v", d)
		}
	}
	// Degenerate inputs pass through.
	if d := jittered(0, 0.2, rng); d != 0 {
		t.Errorf("jittered(0) = %v", d)
	}
	if d := jittered(base, 0, rng); d != base {
		t.Errorf("jittered(frac=0) = %v", d)
	}
	// frac >= 1 is clamped so intervals can never reach zero or go
	// negative.
	for i := 0; i < 200; i++ {
		if d := jittered(base, 5, rng); d <= 0 {
			t.Fatalf("clamped jittered produced %v", d)
		}
	}
}
