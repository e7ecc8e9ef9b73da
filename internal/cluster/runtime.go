package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"skute/internal/agent"
	"skute/internal/economy"
)

// RuntimeConfig configures the autonomous loops a node runs between
// Start and Stop. Each loop fires on its own jittered interval — nodes
// booted in lockstep desynchronize instead of gossiping in waves — and
// every round runs under a context bounded by the loop's interval, so
// a stalled peer can never wedge a loop past its next tick.
type RuntimeConfig struct {
	// Heartbeat is the liveness announcement interval; each beat
	// piggybacks the placement digest (default 2s).
	Heartbeat time.Duration
	// Reconcile is the proactive gossip-reconcile interval: pull
	// placement deltas from one random alive peer (0 disables; the
	// digest check riding incoming heartbeats still reconciles).
	Reconcile time.Duration
	// AntiEntropy is the Merkle anti-entropy round interval
	// (0 disables).
	AntiEntropy time.Duration
	// Epoch is the economic epoch length: announce rent, then run the
	// Section II-C agents (0 disables the economy).
	Epoch time.Duration
	// Jitter is the per-tick interval spread fraction in [0,1);
	// 0 selects the default 0.1, negative disables jitter entirely
	// (deterministic intervals, mainly for tests).
	Jitter float64
	// Agent and Rent parameterize the economy; zero values select the
	// package defaults.
	Agent agent.Params
	Rent  economy.RentParams
	// Logf receives loop errors and epoch reports (nil discards).
	Logf func(format string, args ...any)
}

// withDefaults fills the zero values.
func (rc RuntimeConfig) withDefaults() RuntimeConfig {
	if rc.Heartbeat <= 0 {
		rc.Heartbeat = 2 * time.Second
	}
	if rc.Jitter == 0 {
		rc.Jitter = 0.1
	} else if rc.Jitter < 0 {
		rc.Jitter = 0 // explicit opt-out: jittered(d, 0, …) = d
	}
	if rc.Agent == (agent.Params{}) {
		rc.Agent = agent.DefaultParams()
	}
	if rc.Rent == (economy.RentParams{}) {
		rc.Rent = economy.DefaultRentParams()
	}
	if rc.Logf == nil {
		rc.Logf = func(string, ...any) {}
	}
	return rc
}

// runState tracks a node's running loops.
type runState struct {
	mu     sync.Mutex
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Start launches the node's autonomous runtime: the heartbeat,
// gossip-reconcile, anti-entropy and economic-epoch loops, each on its
// own jittered ticker. The loops stop when ctx is cancelled or Stop is
// called; after Stop the node can be started again (skute.Cluster uses
// that to model process death and restart during churn). Start returns
// an error if the runtime is already running.
func (n *Node) Start(ctx context.Context, rc RuntimeConfig) error {
	rc = rc.withDefaults()
	n.run.mu.Lock()
	defer n.run.mu.Unlock()
	if n.run.cancel != nil {
		return fmt.Errorf("cluster: node %s runtime already running", n.self.Name)
	}
	rctx, cancel := context.WithCancel(ctx)
	n.run.cancel = cancel
	// The heartbeats now supply liveness, so a manual failure detector
	// (an embedded cluster before Start) turns the clock on; the switch
	// counts as contact, like a boot.
	if n.mt.Manual() {
		n.mt.SetManual(false, n.Now())
		n.touchContact()
	}
	n.trace.Add("runtime", "start heartbeat=%s reconcile=%s anti-entropy=%s epoch=%s",
		rc.Heartbeat, rc.Reconcile, rc.AntiEntropy, rc.Epoch)

	n.startLoop(rctx, rc.Heartbeat, rc.Jitter, 1, func(cctx context.Context, _ int) {
		n.SendHeartbeats(cctx)
		n.RunMembershipRound(cctx)
		n.evictDeadPeerConns()
	})
	n.startLoop(rctx, rc.Reconcile, rc.Jitter, 2, func(cctx context.Context, _ int) {
		peer, ok := n.pickReconcilePeer()
		if !ok {
			return
		}
		if _, err := n.reconcileWith(cctx, peer, n.pmap.Digest()); err != nil {
			rc.Logf("cluster %s: reconcile with %s: %v", n.self.Name, peer, err)
		}
	})
	n.startLoop(rctx, rc.AntiEntropy, rc.Jitter, 3, func(cctx context.Context, round int) {
		repaired, err := n.RunAntiEntropy(cctx, round)
		if err != nil {
			rc.Logf("cluster %s: anti-entropy: %v", n.self.Name, err)
		}
		if repaired > 0 {
			rc.Logf("cluster %s: anti-entropy repaired %d keys", n.self.Name, repaired)
		}
	})
	n.startLoop(rctx, rc.Epoch, rc.Jitter, 4, func(cctx context.Context, _ int) {
		// The rent push waits at most one heartbeat interval, so a slow
		// or blackholed peer cannot eat the epoch's decisions: a peer the
		// push misses gets the rent from this node's next beat.
		actx, cancel := context.WithTimeout(cctx, rc.Heartbeat)
		_, _, err := n.AnnounceRent(actx, rc.Rent)
		cancel()
		if err != nil {
			rc.Logf("cluster %s: announce rent: %v", n.self.Name, err)
		}
		rep, err := n.RunEconomicEpoch(cctx, rc.Agent, rc.Rent)
		if err != nil {
			rc.Logf("cluster %s: economic epoch: %v", n.self.Name, err)
			return
		}
		if rep.Repairs+rep.Replications+rep.Migrations+rep.Suicides > 0 {
			rc.Logf("cluster %s: epoch rent=%.2f repairs=%d repl=%d migr=%d suicides=%d",
				n.self.Name, rep.Rent, rep.Repairs, rep.Replications, rep.Migrations, rep.Suicides)
		}
	})
	return nil
}

// startLoop runs fn every jittered `every` until the context dies; a
// non-positive interval disables the loop. Each round gets a context
// bounded by the interval and its round number. The seed offsets the
// per-loop rng so the loops of one node don't share a jitter sequence.
func (n *Node) startLoop(ctx context.Context, every time.Duration, jitter float64, seed int64, fn func(ctx context.Context, round int)) {
	if every <= 0 {
		return
	}
	n.run.wg.Add(1)
	rng := rand.New(rand.NewSource(int64(n.selfI)*31 + seed))
	go func() {
		defer n.run.wg.Done()
		t := time.NewTimer(jittered(every, jitter, rng))
		defer t.Stop()
		for round := 0; ; round++ {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			cctx, cancel := context.WithTimeout(ctx, every)
			fn(cctx, round)
			cancel()
			t.Reset(jittered(every, jitter, rng))
		}
	}()
}

// jittered spreads a loop interval by a random factor in
// [1-frac, 1+frac], so that the periodic gossip loops of a cluster
// booted in lockstep desynchronize instead of thundering together.
// frac is clamped to [0, 1); a non-positive d or frac returns d
// unchanged.
func jittered(d time.Duration, frac float64, rng *rand.Rand) time.Duration {
	if d <= 0 || frac <= 0 {
		return d
	}
	if frac >= 1 {
		frac = 0.99
	}
	f := 1 + frac*(2*rng.Float64()-1)
	return time.Duration(float64(d) * f)
}

// evictDeadPeerConns drops pooled transport connections to peers the
// failure detector currently considers dead (pool lifecycle riding the
// heartbeat loop): sockets to a failed node are released right away
// instead of lingering until the idle reaper finds them, and a revived
// peer gets a clean fresh dial. A no-op for transports without a pool
// (the in-memory mesh).
func (n *Node) evictDeadPeerConns() {
	ev, ok := n.tr.(interface{ Evict(addr string) })
	if !ok {
		return
	}
	for _, m := range n.mt.Members() {
		if m.Info.Name != n.self.Name && !n.alive(m.Info.Name) {
			ev.Evict(m.Info.Addr)
		}
	}
}

// pickReconcilePeer selects one random alive peer for the proactive
// reconcile loop.
func (n *Node) pickReconcilePeer() (string, bool) {
	var peers []string
	for _, name := range n.aliveNames() {
		if name != n.self.Name {
			peers = append(peers, name)
		}
	}
	if len(peers) == 0 {
		return "", false
	}
	n.mu.Lock()
	pick := peers[n.rng.Intn(len(peers))]
	n.mu.Unlock()
	return pick, true
}

// Stop halts the runtime loops and waits for in-flight rounds to
// finish. It is a no-op when the runtime is not running; a stopped node
// can be started again.
func (n *Node) Stop() {
	n.run.mu.Lock()
	cancel := n.run.cancel
	n.run.cancel = nil
	n.run.mu.Unlock()
	if cancel == nil {
		return
	}
	cancel()
	n.run.wg.Wait()
	n.trace.Add("runtime", "stop")
}
