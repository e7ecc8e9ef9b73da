package cluster

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"skute/internal/placement"
	"skute/internal/ring"
	"skute/internal/store"
	"skute/internal/transport"
)

// inflateEntry rewrites one partition's placement entry to the given
// replica set on every node — the state a mid-transfer churn episode
// leaves behind, where donor and adopter are listed side by side and the
// entry temporarily exceeds the ring's spec target.
func inflateEntry(t *testing.T, nodes []*Node, id ring.RingID, part int, replicas []string) {
	t.Helper()
	cur, ok := nodes[0].pmap.Get(id, part)
	if !ok {
		t.Fatalf("no placement entry for %s#%d", id, part)
	}
	d := placement.Delta{
		Ring:     id,
		Part:     part,
		Replicas: replicas,
		Version:  cur.Version + 1,
		Origin:   "churn-test",
	}
	for _, n := range nodes {
		n.applyDeltas([]placement.Delta{d})
	}
	for _, n := range nodes {
		if got := n.replicasOf(n.rings.Ring(id).Get(part)); len(got) != len(replicas) {
			t.Fatalf("%s materialized %d replicas, want %d", n.Name(), len(got), len(replicas))
		}
	}
}

// pickSpread returns a key owned by the plat ring partition, the
// partition id, and a 5-name replica set (the current 3 plus 2 others).
func pickSpread(t *testing.T, nodes []*Node) (key string, part int, five []string) {
	t.Helper()
	n0 := nodes[0]
	p := n0.rings.Ring(platRing).Lookup(ring.HashKey("churn-key"))
	in := make(map[string]bool)
	five = n0.replicasOf(p)
	for _, name := range five {
		in[name] = true
	}
	for _, n := range nodes {
		if !in[n.Name()] && len(five) < 5 {
			five = append(five, n.Name())
			in[n.Name()] = true
		}
	}
	if len(five) != 5 {
		t.Fatalf("could not build a 5-replica set: %v", five)
	}
	return "churn-key", p.ID, five
}

// TestQuorumSizesFromLiveReplicaSet pins roadmap item 6a: quorums must be
// sized from the placement entry's LIVE replica count, not the ring's
// spec target. With an entry inflated to 5 replicas (spec target 3) and
// 3 of the 5 down, a default-consistency write must fail — acking with 2
// of 5 would let a later majority read miss the write entirely.
func TestQuorumSizesFromLiveReplicaSet(t *testing.T) {
	mesh, nodes := testCluster(t)
	key, part, five := pickSpread(t, nodes)
	inflateEntry(t, nodes, platRing, part, five)

	// Down 3 of the 5 replicas: only 2 can ack.
	for _, name := range five[2:] {
		kill(mesh, nodes, name)
	}
	coord := nodes[0]
	err := coord.Put(ctx, platRing, key, []byte("v"), nil, WriteOptions{})
	if err == nil {
		t.Fatalf("default-consistency Put acked with 2 of 5 replicas live (quorum sized from spec target, not live entry)")
	}
	if !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("Put failed for the wrong reason: %v", err)
	}
	if _, err := coord.Get(ctx, platRing, key, ReadOptions{}); err == nil {
		t.Fatalf("default-consistency Get answered with 2 of 5 replicas live")
	}

	// Heal one replica: 3 of 5 alive is a live majority again, and the
	// write a majority acks is visible to a majority read.
	revive := five[2]
	for _, n := range nodes {
		if n.Name() == revive {
			mesh.SetDown(n.self.Addr, false)
		}
		n.Membership().Revive(revive, n.Now())
	}
	if err := coord.Put(ctx, platRing, key, []byte("v2"), nil, WriteOptions{}); err != nil {
		t.Fatalf("Put with 3 of 5 alive: %v", err)
	}
	res, err := coord.Get(ctx, platRing, key, ReadOptions{})
	if err != nil {
		t.Fatalf("Get with 3 of 5 alive: %v", err)
	}
	if len(res.Values) != 1 || string(res.Values[0]) != "v2" {
		t.Fatalf("Get = %q, want v2", res.Values)
	}

	// An explicit Count(n) keeps its absolute meaning on the inflated
	// entry: 2 replicas can still satisfy ConsistencyCount(2)... but only
	// as an explicit opt-out of the overlap guarantee.
	if err := coord.Put(ctx, platRing, key, []byte("v3"), nil, WriteOptions{Consistency: 2}); err != nil {
		t.Fatalf("explicit count(2) Put with 3 alive: %v", err)
	}
}

// delayTo wraps a transport and delays calls to one address — a slow but
// healthy replica.
type delayTo struct {
	transport.Transport
	delay time.Duration

	mu       sync.Mutex
	addr     string
	released bool
}

func (d *delayTo) slowAddr(addr string) {
	d.mu.Lock()
	d.addr = addr
	d.mu.Unlock()
}

func (d *delayTo) release() {
	d.mu.Lock()
	d.released = true
	d.mu.Unlock()
}

func (d *delayTo) Call(ctx context.Context, addr string, req transport.Envelope) (transport.Envelope, error) {
	d.mu.Lock()
	slow := d.addr != "" && addr == d.addr && !d.released
	d.mu.Unlock()
	if slow {
		select {
		case <-time.After(d.delay):
		case <-ctx.Done():
			return transport.Envelope{}, ctx.Err()
		}
	}
	return d.Transport.Call(ctx, addr, req)
}

// TestTailFanoutSurvivesPostQuorumCancel pins roadmap item 6b: once the
// write quorum is met and the coordinator returns, its per-request
// timeout cancel fires — and must NOT abort the still-in-flight sends to
// the remaining replicas. All N replicas converge from the write fan-out
// alone, without anti-entropy.
func TestTailFanoutSurvivesPostQuorumCancel(t *testing.T) {
	mesh := transport.NewMemory()
	cfg := testConfig()
	var nodes []*Node
	wrappers := make([]*delayTo, len(cfg.Nodes))
	for i, ni := range cfg.Nodes {
		wrappers[i] = &delayTo{Transport: mesh, delay: 150 * time.Millisecond}
		n, err := NewNode(cfg, ni.Name, wrappers[i], store.NewMemory())
		if err != nil {
			t.Fatalf("NewNode(%s): %v", ni.Name, err)
		}
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		n.ConfirmPeers()
	}
	t.Cleanup(func() { mesh.Close() })

	// Find a coordinator and key whose plat-ring replica set excludes the
	// coordinator: all 3 replicas are remote, so every ack of the write
	// comes from a detached multi-put send.
	var coord *Node
	var slow *delayTo
	var key string
	var replicas []string
search:
	for _, cand := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		p := nodes[0].rings.Ring(platRing).Lookup(ring.HashKey(cand))
		rs := nodes[0].replicasOf(p)
		in := make(map[string]bool, len(rs))
		for _, name := range rs {
			in[name] = true
		}
		for i, n := range nodes {
			if !in[n.Name()] {
				coord, slow, key, replicas = n, wrappers[i], cand, rs
				break search
			}
		}
	}
	if key == "" {
		t.Fatalf("no all-remote (coordinator, partition) pair in this layout")
	}
	// The last replica is slow: the other two meet W=2 and the write
	// returns while its send is still in flight.
	byName := make(map[string]*Node, len(nodes))
	for _, n := range nodes {
		byName[n.Name()] = n
	}
	slow.slowAddr(byName[replicas[2]].self.Addr)

	err := coord.Put(ctx, platRing, key, []byte("v"), nil, WriteOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Put: %v", err)
	}

	// The write returned at quorum; the slow replica's send must still
	// land. No anti-entropy runs in this test — convergence can only come
	// from the original fan-out.
	deadline := time.Now().Add(3 * time.Second)
	for {
		vs := byName[replicas[2]].eng.Get(storageKey(platRing, key))
		if len(vs) == 1 && string(vs[0].Value) == "v" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow replica never received the post-quorum write (tail send aborted by the request cancel)")
		}
		time.Sleep(10 * time.Millisecond)
	}
	slow.release()

	// Every replica converged from the fan-out alone.
	for _, name := range replicas {
		vs := byName[name].eng.Get(storageKey(platRing, key))
		if len(vs) != 1 || string(vs[0].Value) != "v" {
			t.Fatalf("replica %s did not converge: %v", name, vs)
		}
	}
}
