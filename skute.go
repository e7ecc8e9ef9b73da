package skute

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"skute/internal/agent"
	"skute/internal/availability"
	"skute/internal/cluster"
	"skute/internal/economy"
	"skute/internal/ring"
	"skute/internal/store"
	"skute/internal/transport"
	"skute/internal/vclock"
)

// SLA names an availability class in terms of the number of
// geographically well-spread replicas that satisfies it (the paper's three
// applications use 2, 3 and 4).
type SLA struct {
	Class    string
	Replicas int
}

// Threshold returns the Eq. 2 availability threshold of the SLA.
func (s SLA) Threshold() float64 { return availability.ThresholdForReplicas(s.Replicas) }

// Server describes one storage server of the cluster.
type Server struct {
	// Name is the unique node name.
	Name string
	// Location is a 6-level path "continent/country/datacenter/room/rack/server".
	Location string
	// MonthlyRent is the real monthly price of the server in dollars.
	MonthlyRent float64
	// Confidence in [0,1]; 0 defaults to 1.
	Confidence float64
	// Capacity in bytes; 0 defaults to 16 GiB.
	Capacity int64
	// QueryCapacity per epoch; 0 defaults to 10000.
	QueryCapacity float64
}

// App declares one application renting the cluster.
type App struct {
	Name string
	SLA  SLA
	// Partitions is the number of data partitions (0 defaults to 16).
	Partitions int
}

// Options configure an embedded cluster.
type Options struct {
	Servers []Server
	Apps    []App
	// ReadQuorum/WriteQuorum override the default majority quorums
	// cluster-wide; individual requests override them again through
	// ReadOptions/WriteOptions.
	ReadQuorum  int
	WriteQuorum int
	// MaxInflight bounds each server's admission gate: the concurrent
	// requests a server accepts before shedding with ErrOverloaded
	// (0 selects the cluster default, 256). Shed requests fail fast —
	// the embedded API re-routes them once to another coordinator.
	MaxInflight int
	// DisableAdmission turns overload shedding off entirely: requests
	// queue until their deadline no matter the load.
	DisableAdmission bool
	// BreakerFailures, BreakerOpenFor and BreakerSlowAfter tune each
	// server's per-peer circuit breakers (zero values select the
	// cluster defaults; see cluster.Config). BreakerSlowAfter also
	// counts successful-but-slow calls as failures, so a degraded peer
	// injected with SlowServer trips its breakers without erroring.
	BreakerFailures  int
	BreakerOpenFor   time.Duration
	BreakerSlowAfter time.Duration
}

// ErrOverloaded reports a request shed by a server's admission gate
// before any work started. It is cluster.ErrOverloaded re-exported at
// the embedded surface; errors.Is-match it to tell a clean fast-fail
// shed from a deadline timeout.
var ErrOverloaded = cluster.ErrOverloaded

// Context carries the causal version context from a Get into a dependent
// Put or Delete.
type Context = vclock.VC

// Consistency selects how many replicas must acknowledge one request,
// letting each caller trade consistency for latency per request instead
// of inheriting the boot-time quorums. The zero value defers to the
// cluster configuration.
type Consistency = cluster.Consistency

// Consistency levels. One acknowledges after a single replica, Quorum
// after a majority of the app's SLA replicas, All only after every
// replica; ConsistencyCount demands an explicit replica count (rejected
// when it exceeds the SLA's replica target).
const (
	One    = cluster.ConsistencyOne
	Quorum = cluster.ConsistencyQuorum
	All    = cluster.ConsistencyAll
)

// ConsistencyCount demands exactly n replica acknowledgements.
func ConsistencyCount(n int) Consistency { return cluster.ConsistencyCount(n) }

// ReadOptions tune one read: the per-request consistency level and an
// optional timeout layered over the caller's context deadline.
type ReadOptions = cluster.ReadOptions

// WriteOptions tune one write or delete the same way.
type WriteOptions = cluster.WriteOptions

// Entry is one key/value pair of a batched MPut.
type Entry = cluster.Entry

// GetResult is one key's outcome in a batched MGet: sibling values,
// causal context, and how many replicas answered.
type GetResult = cluster.GetResult

// Cluster is an embedded Skute store: every server runs in-process over
// an in-memory transport (cmd/skuted runs the identical node logic over
// TCP, where every RPC rides the pooled multiplexed wire — see
// DESIGN.md, "The wire"; the in-memory mesh has no connections to pool,
// so Close tears it down whole, and on TCP deployments the node
// runtime's heartbeat loop evicts pooled connections to dead peers
// while transport Close releases pooled and established sockets). All
// methods are safe for concurrent use.
//
// Every request method takes a context.Context honored end-to-end: a
// cancelled or expired context stops the quorum fan-out without waiting
// for stragglers, and a context that is already done returns before any
// replica is contacted.
type Cluster struct {
	mesh  *transport.Memory
	cfg   cluster.Config
	nodes map[string]*cluster.Node
	order []string
	apps  map[string]ring.RingID

	// coordIdx rotates coordinator picks round-robin over alive nodes so
	// embedded-API traffic spreads instead of funneling through the
	// first server.
	coordIdx atomic.Uint64

	// mu guards downed (FailServer/ReviveServer vs the request path),
	// nodes and order (AddServer grows both while requests pick
	// coordinators), and the runtime state.
	mu     sync.RWMutex
	downed map[string]bool
	// rt is non-nil while the cluster runs autonomously (Start/Stop);
	// FailServer kills a failed server's loops and ReviveServer restarts
	// them, modeling process death and rebirth.
	rt *clusterRuntime

	agentParams agent.Params
	rentParams  economy.RentParams
}

// clusterRuntime remembers how Start configured the autonomous loops so
// ReviveServer can relaunch a node's runtime the same way.
type clusterRuntime struct {
	ctx    context.Context
	cancel context.CancelFunc
	rc     cluster.RuntimeConfig
}

// NewCluster boots an in-process cluster: it derives the shared
// descriptor, starts one node per server and places every partition with
// the diversity-aware initial placement.
func NewCluster(opts Options) (*Cluster, error) {
	if len(opts.Servers) == 0 {
		return nil, fmt.Errorf("skute: need at least one server")
	}
	if len(opts.Apps) == 0 {
		return nil, fmt.Errorf("skute: need at least one app")
	}
	cfg := cluster.Config{
		ReadQuorum:       opts.ReadQuorum,
		WriteQuorum:      opts.WriteQuorum,
		MaxInflight:      opts.MaxInflight,
		DisableAdmission: opts.DisableAdmission,
		BreakerFailures:  opts.BreakerFailures,
		BreakerOpenFor:   opts.BreakerOpenFor,
		BreakerSlowAfter: opts.BreakerSlowAfter,
	}
	for _, s := range opts.Servers {
		conf := s.Confidence
		if conf == 0 {
			conf = 1
		}
		capacity := s.Capacity
		if capacity == 0 {
			capacity = 16 << 30
		}
		qcap := s.QueryCapacity
		if qcap == 0 {
			qcap = 10000
		}
		cfg.Nodes = append(cfg.Nodes, cluster.NodeInfo{
			Name:          s.Name,
			Addr:          "mem://" + s.Name,
			LocPath:       s.Location,
			Confidence:    conf,
			MonthlyRent:   s.MonthlyRent,
			Capacity:      capacity,
			QueryCapacity: qcap,
		})
	}
	apps := make(map[string]ring.RingID, len(opts.Apps))
	for _, a := range opts.Apps {
		parts := a.Partitions
		if parts == 0 {
			parts = 16
		}
		if a.SLA.Replicas < 1 {
			return nil, fmt.Errorf("skute: app %q needs an SLA with at least 1 replica", a.Name)
		}
		class := a.SLA.Class
		if class == "" {
			class = fmt.Sprintf("r%d", a.SLA.Replicas)
		}
		spec := cluster.RingSpec{App: a.Name, Class: class, Partitions: parts, Replicas: a.SLA.Replicas}
		cfg.Rings = append(cfg.Rings, spec)
		apps[a.Name] = spec.ID()
	}

	c := &Cluster{
		mesh:        transport.NewMemory(),
		cfg:         cfg,
		nodes:       make(map[string]*cluster.Node, len(cfg.Nodes)),
		apps:        apps,
		downed:      make(map[string]bool),
		agentParams: agent.DefaultParams(),
		rentParams:  economy.DefaultRentParams(),
	}
	for _, ni := range cfg.Nodes {
		n, err := cluster.NewNode(cfg, ni.Name, c.mesh, store.NewMemory())
		if err != nil {
			c.mesh.Close()
			return nil, err
		}
		c.nodes[ni.Name] = n
		c.order = append(c.order, ni.Name)
	}
	// All servers booted together in-process, so skip the probation round
	// a real deployment pays: every peer counts as directly confirmed
	// from the start (TCP deployments earn confirmation through the first
	// heartbeat exchange instead). Until Start runs heartbeats, nothing
	// ages into suspicion: liveness changes only through FailServer,
	// ReviveServer, AddServer and RemoveServer.
	for _, n := range c.nodes {
		n.ConfirmPeers()
		n.Membership().SetManual(true, time.Time{})
	}
	return c, nil
}

// AddServer joins a brand-new server to the running cluster through the
// named seed — the dynamic-membership path: no shared descriptor, just
// the server's own metadata and one existing member. The joiner starts
// with zero partitions and the cluster's converged placement view; the
// next economic epochs place replicas on it (announced rent permitting)
// and the data arrives via throttled chunked transfer. If the cluster
// runs autonomously, the new server's loops start immediately.
func (c *Cluster) AddServer(ctx context.Context, s Server, seed string) error {
	if _, exists := c.nodeOf(s.Name); exists {
		return fmt.Errorf("skute: server %q already present", s.Name)
	}
	if !c.alive(seed) {
		return fmt.Errorf("skute: seed server %q unknown or down", seed)
	}
	conf := s.Confidence
	if conf == 0 {
		conf = 1
	}
	capacity := s.Capacity
	if capacity == 0 {
		capacity = 16 << 30
	}
	qcap := s.QueryCapacity
	if qcap == 0 {
		qcap = 10000
	}
	ni := cluster.NodeInfo{
		Name:          s.Name,
		Addr:          "mem://" + s.Name,
		LocPath:       s.Location,
		Confidence:    conf,
		MonthlyRent:   s.MonthlyRent,
		Capacity:      capacity,
		QueryCapacity: qcap,
	}
	n, err := cluster.JoinNode(ctx, ni, "mem://"+seed, cluster.JoinOptions{}, c.mesh, store.NewMemory())
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.nodes[s.Name] = n
	c.order = append(c.order, s.Name)
	rt := c.rt
	c.mu.Unlock()
	// In-process convenience, mirroring NewCluster: confirm both ways so
	// the joiner is usable without waiting a heartbeat round (the seed's
	// join handler already spread the join record over the synchronous
	// mesh, so every alive peer knows the name).
	n.ConfirmPeers()
	for _, peerName := range c.serverOrder() {
		if peerName != s.Name && c.alive(peerName) {
			if peer, ok := c.nodeOf(peerName); ok {
				peer.Membership().Confirm(s.Name, peer.Now())
			}
		}
	}
	if rt != nil && rt.ctx.Err() == nil {
		return n.Start(rt.ctx, rt.rc)
	}
	n.Membership().SetManual(true, time.Time{})
	return nil
}

// RemoveServer gracefully removes a server: its Left record spreads
// cluster-wide (terminal, like a death but without the suspicion
// window), every remaining host evicts it from its replica sets through
// versioned placement deltas, and its process goes down. The shrunken
// partitions are re-replicated up to their SLA by the following
// economic epochs, copying from the surviving replicas. The name stays
// known to the cluster (Left is a terminal member state).
func (c *Cluster) RemoveServer(ctx context.Context, name string) error {
	leaving, ok := c.nodeOf(name)
	if !ok {
		return fmt.Errorf("skute: unknown server %q", name)
	}
	d := leaving.Membership().Leave()
	for _, peerName := range c.serverOrder() {
		if peerName == name || !c.alive(peerName) {
			continue
		}
		if peer, ok := c.nodeOf(peerName); ok {
			peer.Membership().Apply(d, peer.Now())
		}
	}
	// Evict promptly instead of waiting for each peer's next heartbeat
	// round: every remaining host proposes the removal deltas now.
	for _, peerName := range c.serverOrder() {
		if peerName == name || !c.alive(peerName) {
			continue
		}
		if peer, ok := c.nodeOf(peerName); ok {
			peer.RunMembershipRound(ctx)
		}
	}
	leaving.Stop()
	c.mesh.SetDown("mem://"+name, true)
	c.mu.Lock()
	c.downed[name] = true
	c.mu.Unlock()
	return nil
}

// Close stops the autonomous runtime (if running) and shuts the
// in-memory mesh down.
func (c *Cluster) Close() error {
	c.Stop()
	return c.mesh.Close()
}

// Runtime configures the cluster's autonomous mode: per-loop intervals
// with jitter for heartbeats, gossip reconciliation, Merkle
// anti-entropy and economic epochs. Zero values pick the embedded
// defaults (fast heartbeats and reconciliation, anti-entropy and the
// economy disabled — step epochs deterministically with RunEpoch, or
// set Epoch to let them free-run).
type Runtime struct {
	// Heartbeat is the liveness + placement-digest announcement
	// interval (default 500ms for the in-process mesh).
	Heartbeat time.Duration
	// Reconcile is the proactive gossip-reconcile interval (default 1s;
	// negative disables — heartbeat receipt still reconciles).
	Reconcile time.Duration
	// AntiEntropy is the Merkle anti-entropy interval (0 disables).
	AntiEntropy time.Duration
	// Epoch is the economic epoch length (0 disables; RunEpoch still
	// steps epochs manually).
	Epoch time.Duration
	// Jitter is the per-tick interval spread fraction in [0,1);
	// 0 selects the default 0.1, negative disables jitter.
	Jitter float64
}

// Start switches the cluster into autonomous mode: every alive server
// runs its own heartbeat, gossip-reconcile, anti-entropy and
// economic-epoch loops, exactly like a fleet of cmd/skuted processes.
// The loops stop when ctx is cancelled or Stop (or Close) is called.
// FailServer halts a failed server's loops and ReviveServer restarts
// them, so churn scripts exercise the same convergence machinery a real
// deployment relies on.
func (c *Cluster) Start(ctx context.Context, rt Runtime) error {
	if rt.Heartbeat <= 0 {
		rt.Heartbeat = 500 * time.Millisecond
	}
	if rt.Reconcile == 0 {
		rt.Reconcile = time.Second
	} else if rt.Reconcile < 0 {
		rt.Reconcile = 0
	}
	rc := cluster.RuntimeConfig{
		Heartbeat:   rt.Heartbeat,
		Reconcile:   rt.Reconcile,
		AntiEntropy: rt.AntiEntropy,
		Epoch:       rt.Epoch,
		Jitter:      rt.Jitter,
		Agent:       c.agentParams,
		Rent:        c.rentParams,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rt != nil {
		return fmt.Errorf("skute: cluster runtime already running")
	}
	rctx, cancel := context.WithCancel(ctx)
	for _, name := range c.order {
		if c.downed[name] {
			continue
		}
		if err := c.nodes[name].Start(rctx, rc); err != nil {
			cancel()
			for _, started := range c.order {
				c.nodes[started].Stop()
			}
			return err
		}
	}
	c.rt = &clusterRuntime{ctx: rctx, cancel: cancel, rc: rc}
	return nil
}

// Stop halts the autonomous loops on every server and waits for
// in-flight rounds to finish. It is a no-op when Start was never
// called.
func (c *Cluster) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopLocked()
}

// stopLocked tears the runtime down; callers hold c.mu.
func (c *Cluster) stopLocked() {
	if c.rt == nil {
		return
	}
	c.rt.cancel()
	c.rt = nil
	for _, name := range c.order {
		c.nodes[name].Stop()
		c.nodes[name].Membership().SetManual(true, time.Time{})
	}
}

// ringOf resolves an app name.
func (c *Cluster) ringOf(app string) (ring.RingID, error) {
	id, ok := c.apps[app]
	if !ok {
		return ring.RingID{}, fmt.Errorf("skute: unknown app %q", app)
	}
	return id, nil
}

// coordinator picks an alive node to coordinate a request, rotating
// round-robin so no single server becomes the funnel for every
// embedded-API request.
func (c *Cluster) coordinator() (*cluster.Node, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	start := int(c.coordIdx.Add(1)-1) % len(c.order)
	for i := 0; i < len(c.order); i++ {
		name := c.order[(start+i)%len(c.order)]
		if !c.downed[name] {
			if n, ok := c.nodes[name]; ok {
				return n, nil
			}
		}
	}
	return nil, fmt.Errorf("skute: no alive servers")
}

// withCoordinator runs one embedded-API operation against a rotated
// coordinator, re-routing ONCE to the next coordinator when the first
// shed it with ErrOverloaded: a shed is an explicit "try someone else"
// — another node may have admission capacity — and hammering the
// shedding node again is exactly what the fast-fail exists to prevent.
// A second shed propagates to the caller, who owns backoff.
func (c *Cluster) withCoordinator(do func(n *cluster.Node) error) error {
	n, err := c.coordinator()
	if err != nil {
		return err
	}
	if err = do(n); !errors.Is(err, ErrOverloaded) {
		return err
	}
	n2, cerr := c.coordinator()
	if cerr != nil || n2 == n {
		return err
	}
	return do(n2)
}

// alive consults the failure injection map and the node map.
func (c *Cluster) alive(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if _, ok := c.nodes[name]; !ok {
		return false
	}
	return !c.downed[name]
}

// nodeOf looks a server up under the membership lock — AddServer grows
// the node map while requests are in flight.
func (c *Cluster) nodeOf(name string) (*cluster.Node, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n, ok := c.nodes[name]
	return n, ok
}

// serverOrder snapshots the server list under the membership lock.
func (c *Cluster) serverOrder() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.order...)
}

// Get reads a key: the remaining concurrent values (one, normally) plus
// the causal context for a follow-up Put. The context cancels or bounds
// the quorum fan-out; opts pick the per-request consistency and timeout.
func (c *Cluster) Get(ctx context.Context, app, key string, opts ReadOptions) ([][]byte, Context, error) {
	id, err := c.ringOf(app)
	if err != nil {
		return nil, nil, err
	}
	var res GetResult
	err = c.withCoordinator(func(n *cluster.Node) error {
		var err error
		res, err = n.Get(ctx, id, key, opts)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return res.Values, res.Context, nil
}

// Put writes a value. Pass the Context of a preceding Get for
// read-modify-write; nil for a blind write (concurrent blind writes
// surface as siblings on the next Get).
func (c *Cluster) Put(ctx context.Context, app, key string, value []byte, vctx Context, opts WriteOptions) error {
	id, err := c.ringOf(app)
	if err != nil {
		return err
	}
	return c.withCoordinator(func(n *cluster.Node) error {
		return n.Put(ctx, id, key, value, vctx, opts)
	})
}

// Delete tombstones a key.
func (c *Cluster) Delete(ctx context.Context, app, key string, vctx Context, opts WriteOptions) error {
	id, err := c.ringOf(app)
	if err != nil {
		return err
	}
	return c.withCoordinator(func(n *cluster.Node) error {
		return n.Delete(ctx, id, key, vctx, opts)
	})
}

// MGet reads a batch of keys in one coordinated operation. The
// coordinator groups the keys by partition and sends each replica node
// at most ONE envelope instead of running len(keys) independent quorum
// rounds — the hot path for fan-out-heavy reads. Missing keys map to an
// empty GetResult.
func (c *Cluster) MGet(ctx context.Context, app string, keys []string, opts ReadOptions) (map[string]GetResult, error) {
	id, err := c.ringOf(app)
	if err != nil {
		return nil, err
	}
	var out map[string]GetResult
	err = c.withCoordinator(func(n *cluster.Node) error {
		var err error
		out, err = n.MultiGet(ctx, id, keys, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MPut writes a batch of entries in one coordinated operation, grouped
// by partition the same way; each partition group must reach its write
// quorum (or the per-request override) independently. Within a batch, a
// later entry for the same key supersedes an earlier one.
func (c *Cluster) MPut(ctx context.Context, app string, entries []Entry, opts WriteOptions) error {
	id, err := c.ringOf(app)
	if err != nil {
		return err
	}
	return c.withCoordinator(func(n *cluster.Node) error {
		return n.MultiPut(ctx, id, entries, opts)
	})
}

// Replicas reports which servers hold the partition of a key.
func (c *Cluster) Replicas(ctx context.Context, app, key string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	id, err := c.ringOf(app)
	if err != nil {
		return nil, err
	}
	n, err := c.coordinator()
	if err != nil {
		return nil, err
	}
	return n.Replicas(id, key)
}

// Availability reports the Eq. 2 availability of every partition of the
// app alongside its SLA threshold.
func (c *Cluster) Availability(ctx context.Context, app string) (map[int]float64, float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	id, err := c.ringOf(app)
	if err != nil {
		return nil, 0, err
	}
	n, err := c.coordinator()
	if err != nil {
		return nil, 0, err
	}
	av, err := n.Availability(id)
	if err != nil {
		return nil, 0, err
	}
	var th float64
	for _, r := range c.cfg.Rings {
		if r.ID() == id {
			th = availability.ThresholdForReplicas(r.Replicas)
		}
	}
	return av, th, nil
}

// RunEpoch closes one economic epoch cluster-wide: every alive server
// announces its rent, then runs its virtual-node agents. It returns the
// aggregate operations performed. The context bounds every control RPC
// of the epoch (rent announcements, adopts, placement delta pushes).
func (c *Cluster) RunEpoch(ctx context.Context) (EpochOps, error) {
	var ops EpochOps
	order := c.serverOrder()
	for _, name := range order {
		if !c.alive(name) {
			continue
		}
		n, ok := c.nodeOf(name)
		if !ok {
			continue
		}
		if _, _, err := n.AnnounceRent(ctx, c.rentParams); err != nil {
			return ops, err
		}
	}
	for _, name := range order {
		if !c.alive(name) {
			continue
		}
		n, ok := c.nodeOf(name)
		if !ok {
			continue
		}
		rep, err := n.RunEconomicEpoch(ctx, c.agentParams, c.rentParams)
		if err != nil {
			return ops, err
		}
		ops.Replications += rep.Replications + rep.Repairs
		ops.Migrations += rep.Migrations
		ops.Suicides += rep.Suicides
	}
	return ops, nil
}

// EpochOps aggregates the structural operations of one economic epoch.
type EpochOps struct {
	Replications int
	Migrations   int
	Suicides     int
}

// FailServer simulates a hard failure of the named server: it becomes
// unreachable and every peer's member table marks it dead immediately
// (in a real deployment the alive → suspect → dead progression of the
// heartbeat timeouts does this, and the next membership round evicts
// its replicas).
func (c *Cluster) FailServer(name string) error {
	failed, ok := c.nodeOf(name)
	if !ok {
		return fmt.Errorf("skute: unknown server %q", name)
	}
	c.mesh.SetDown("mem://"+name, true)
	c.mu.Lock()
	c.downed[name] = true
	c.mu.Unlock()
	// A dead process sends nothing: halt the failed server's autonomous
	// loops (no-op when the runtime is not active).
	failed.Stop()
	for _, peerName := range c.serverOrder() {
		if peer, ok := c.nodeOf(peerName); ok {
			peer.Membership().Fail(name)
		}
	}
	return nil
}

// SlowServer injects d of extra latency in front of every request the
// named server receives over the in-memory mesh; d <= 0 heals it. It
// models a degraded-but-alive process — calls still succeed, just
// slowly — which is exactly the signal BreakerSlowAfter and the hedged
// read path exist to route around. The embedded counterpart of the
// scenario harness's process-level `slow` fault.
func (c *Cluster) SlowServer(name string, d time.Duration) error {
	if _, ok := c.nodeOf(name); !ok {
		return fmt.Errorf("skute: unknown server %q", name)
	}
	c.mesh.SetDelay("mem://"+name, d)
	return nil
}

// ReviveServer heals a server previously taken down with FailServer: it
// becomes reachable again (with whatever data it held when it failed —
// anti-entropy and the economy re-converge it) and every failure
// detector immediately considers it alive. Fail/revive pairs script
// churn scenarios without rebuilding the cluster.
func (c *Cluster) ReviveServer(name string) error {
	revived, ok := c.nodeOf(name)
	if !ok {
		return fmt.Errorf("skute: unknown server %q", name)
	}
	c.mesh.SetDown("mem://"+name, false)
	c.mu.Lock()
	delete(c.downed, name)
	c.mu.Unlock()
	// Refresh liveness both ways: peers mark the revived server alive at
	// a fresh incarnation (superseding the death record wherever it
	// gossiped), the revived server adopts that incarnation, as a
	// heartbeat echo would hand it, so its own records and rents are not
	// stale on arrival, and it re-confirms every peer still alive.
	for _, peerName := range c.serverOrder() {
		peer, ok := c.nodeOf(peerName)
		if !ok {
			continue
		}
		peer.Membership().Revive(name, peer.Now())
		if m, ok := peer.Membership().Get(name); ok && peerName != name {
			revived.Membership().Apply(m.Delta, revived.Now())
		}
		if c.alive(peerName) {
			revived.Membership().Revive(peerName, revived.Now())
		}
	}
	// The reborn process resumes its autonomous loops; the gossip digest
	// exchange pulls in every placement change it slept through. Under
	// c.mu so a concurrent Stop cannot interleave and strand running
	// loops.
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rt == nil {
		return nil
	}
	// The caller may have ended autonomous mode by cancelling the Start
	// context instead of calling Stop; every loop already exited, so
	// finish the teardown rather than launch stillborn loops here.
	if c.rt.ctx.Err() != nil {
		c.stopLocked()
		return nil
	}
	return revived.Start(c.rt.ctx, c.rt.rc)
}

// Servers lists the server names in descriptor order (joiners appended).
func (c *Cluster) Servers() []string { return c.serverOrder() }

// NodeStats is one server's observability snapshot (what GET /stats
// serves on a TCP deployment).
type NodeStats = cluster.Stats

// TraceEvent is one control-plane decision-trace entry (what GET /trace
// serves on a TCP deployment).
type TraceEvent = cluster.TraceEvent

// StatsOf returns the named server's own observability snapshot — its
// view, not a coordinator's, so scenario invariants can compare
// placement digests across servers exactly like scraping each
// process's admin endpoint.
func (c *Cluster) StatsOf(name string) (NodeStats, error) {
	n, ok := c.nodeOf(name)
	if !ok {
		return NodeStats{}, fmt.Errorf("skute: unknown server %q", name)
	}
	return n.Stats(), nil
}

// TraceOf returns the named server's decision trace, oldest first.
func (c *Cluster) TraceOf(name string) ([]TraceEvent, error) {
	n, ok := c.nodeOf(name)
	if !ok {
		return nil, fmt.Errorf("skute: unknown server %q", name)
	}
	return n.Trace().Events(), nil
}

// VNodesOn counts the partition replicas currently assigned to a server,
// as seen from an alive coordinator's replica table.
func (c *Cluster) VNodesOn(name string) (int, error) {
	n, err := c.coordinator()
	if err != nil {
		return 0, err
	}
	return n.HostedCount(name)
}
