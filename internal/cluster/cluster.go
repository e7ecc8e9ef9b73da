// Package cluster implements the Skute prototype store the paper lists as
// future work: a replicated key-value cluster whose replica placement is
// driven by the same virtual economy as the simulator.
//
// Each Node serves reads and writes with configurable R/W quorums over the
// multi-ring partition layout, performs read repair, synchronizes replicas
// with Merkle-tree anti-entropy, detects failed peers through heartbeats,
// and — at the end of each economic epoch — runs the Section II-C agent
// for every virtual node it hosts, replicating, migrating or deleting
// partition replicas across the cluster accordingly. Rents are announced
// to a board node elected as the lowest-named alive member.
//
// Replica placement is a versioned, gossip-carried cluster state
// (internal/placement): epoch decisions stamp last-writer-wins deltas,
// heartbeats piggyback per-ring digests, and digest mismatches trigger
// delta pulls, so every node converges to the same replica map under
// churn without coordinated broadcasts. Start/Stop run the node's
// autonomous loops (heartbeat, gossip-reconcile, anti-entropy, economic
// epoch) on jittered intervals.
package cluster

import (
	"fmt"
	"time"

	"skute/internal/availability"
	"skute/internal/ring"
	"skute/internal/topology"
)

// NodeInfo describes one member of the cluster. Locations travel as
// slash-separated 6-level paths (see topology.ParsePath) so that the
// descriptor is plainly serializable.
type NodeInfo struct {
	Name string
	Addr string
	// Bind optionally overrides the address the node LISTENS on while
	// Addr stays what peers and clients dial. Scenario harnesses use it
	// to front a node with a fault-injection proxy: Addr is the proxy,
	// Bind the real socket behind it. Empty means listen on Addr. Bind
	// is node-local and never gossiped.
	Bind        string
	LocPath     string
	Confidence  float64
	MonthlyRent float64
	// Capacity is the storage capacity in bytes used for the rent's
	// storage_usage term.
	Capacity int64
	// QueryCapacity is the per-epoch query capacity for the rent's
	// query_load term.
	QueryCapacity float64
}

// Loc parses the node's location path.
func (n NodeInfo) Loc() (topology.Location, error) { return topology.ParsePath(n.LocPath) }

// RingSpec declares one virtual ring: an application's availability class
// with its partition count and SLA replica target.
type RingSpec struct {
	App        string
	Class      string
	Partitions int
	// Replicas is the SLA target; the availability threshold is
	// availability.ThresholdForReplicas(Replicas).
	Replicas int
}

// ID returns the ring identity.
func (r RingSpec) ID() ring.RingID { return ring.RingID{App: r.App, Class: r.Class} }

// Config is the static cluster descriptor every node boots from.
type Config struct {
	Nodes []NodeInfo
	Rings []RingSpec
	// ReadQuorum/WriteQuorum are the R/W parameters; both default to a
	// majority of the smallest ring's replica target when zero.
	ReadQuorum  int
	WriteQuorum int
	// SuspectAfter is the heartbeat staleness after which a peer counts
	// as suspect (default 10s).
	SuspectAfter time.Duration
	// DeadAfter is the additional refutation grace after suspicion
	// before a member is declared dead and its partitions re-placed
	// (default 3× SuspectAfter).
	DeadAfter time.Duration
	// EpochWorkers bounds the worker pool RunEconomicEpoch uses to run
	// hosted virtual-node decisions concurrently; 0 selects GOMAXPROCS,
	// negative is invalid.
	EpochWorkers int
	// TransferChunkItems caps the keys per partition-transfer chunk
	// (default 128); TransferBytesPerSec throttles this node's donor-side
	// transfer bandwidth (0 = unlimited).
	TransferChunkItems  int
	TransferBytesPerSec int64
	// TraceEvents bounds the control-plane decision-trace ring served on
	// GET /trace (0 selects the default 1024).
	TraceEvents int
	// ReadCacheEntries bounds the coordinator hot-key read cache (total
	// entries across shards; 0 selects the default 4096). The cache
	// serves only ConsistencyOne reads of keys the node does not host —
	// see readpath.go.
	ReadCacheEntries int
	// ReadCacheTTL bounds how long a cached read may be served when no
	// placement delta invalidates it first (0 selects the default
	// 500ms).
	ReadCacheTTL time.Duration
	// MaxInflight bounds the node's admission gate: the concurrent
	// requests (client ops plus background traffic; membership
	// heartbeats are exempt) admitted before the node sheds with
	// ErrOverloaded. Background anti-entropy/transfer/epoch traffic
	// sheds at half this bound, reads at 90%, writes at the full bound.
	// 0 selects the default (256); set DisableAdmission to turn
	// shedding off entirely.
	MaxInflight int
	// DisableAdmission turns the admission gate off: every request is
	// admitted no matter the load, restoring the pre-resilience
	// queue-until-timeout behavior (the -shed=false daemon flag).
	DisableAdmission bool
	// BreakerFailures is the consecutive-failure count that opens a
	// peer's circuit breaker (0 selects the default 5).
	BreakerFailures int
	// BreakerOpenFor is how long an opened breaker refuses the peer
	// before half-open probing (0 selects the default 2s).
	BreakerOpenFor time.Duration
	// BreakerSlowAfter, when positive, additionally counts successful
	// calls slower than this as breaker failures — the signal that
	// routes hedged reads and quorum fan-out around a peer that is up
	// but sick. 0 disables latency-based tripping.
	BreakerSlowAfter time.Duration
}

// defaultMaxInflight is the admission-gate bound when Config.MaxInflight
// is zero: generous enough that a healthy node never sheds, small enough
// that a saturated node fast-fails instead of queueing every request
// into its deadline.
const defaultMaxInflight = 256

// Validate rejects unusable descriptors.
func (c Config) Validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("cluster: no nodes")
	}
	seenName := map[string]bool{}
	seenAddr := map[string]bool{}
	for i, n := range c.Nodes {
		if n.Name == "" || n.Addr == "" {
			return fmt.Errorf("cluster: node %d needs a name and an address", i)
		}
		if seenName[n.Name] || seenAddr[n.Addr] {
			return fmt.Errorf("cluster: duplicate node name or address %q/%q", n.Name, n.Addr)
		}
		seenName[n.Name] = true
		seenAddr[n.Addr] = true
		if _, err := n.Loc(); err != nil {
			return fmt.Errorf("cluster: node %s: %w", n.Name, err)
		}
		if n.Confidence < 0 || n.Confidence > 1 {
			return fmt.Errorf("cluster: node %s confidence %v outside [0,1]", n.Name, n.Confidence)
		}
		if n.MonthlyRent <= 0 || n.Capacity <= 0 || n.QueryCapacity <= 0 {
			return fmt.Errorf("cluster: node %s needs positive rent, capacity and query capacity", n.Name)
		}
	}
	if len(c.Rings) == 0 {
		return fmt.Errorf("cluster: no rings")
	}
	for i, r := range c.Rings {
		if r.App == "" || r.Class == "" {
			return fmt.Errorf("cluster: ring %d needs app and class", i)
		}
		if r.Partitions < 1 {
			return fmt.Errorf("cluster: ring %s needs partitions", r.ID())
		}
		if r.Replicas < 1 || r.Replicas > len(c.Nodes) {
			return fmt.Errorf("cluster: ring %s replica target %d outside [1,%d]", r.ID(), r.Replicas, len(c.Nodes))
		}
	}
	if c.ReadQuorum < 0 || c.WriteQuorum < 0 {
		return fmt.Errorf("cluster: negative quorum")
	}
	if c.EpochWorkers < 0 {
		return fmt.Errorf("cluster: negative epoch workers")
	}
	if c.SuspectAfter < 0 || c.DeadAfter < 0 {
		return fmt.Errorf("cluster: negative failure-detector timeout")
	}
	if c.TransferChunkItems < 0 || c.TransferBytesPerSec < 0 {
		return fmt.Errorf("cluster: negative transfer tuning")
	}
	if c.TraceEvents < 0 {
		return fmt.Errorf("cluster: negative trace capacity")
	}
	if c.ReadCacheEntries < 0 || c.ReadCacheTTL < 0 {
		return fmt.Errorf("cluster: negative read-cache tuning")
	}
	if c.MaxInflight < 0 {
		return fmt.Errorf("cluster: negative admission gate")
	}
	if c.BreakerFailures < 0 || c.BreakerOpenFor < 0 || c.BreakerSlowAfter < 0 {
		return fmt.Errorf("cluster: negative breaker tuning")
	}
	return nil
}

// quorums resolves the effective R/W values for a ring target.
func (c Config) quorums(target int) (r, w int) {
	r, w = c.ReadQuorum, c.WriteQuorum
	if r == 0 {
		r = target/2 + 1
	}
	if w == 0 {
		w = target/2 + 1
	}
	if r > target {
		r = target
	}
	if w > target {
		w = target
	}
	return r, w
}

// buildLayout constructs the multi-ring with a deterministic,
// diversity-aware initial placement: every node derives the identical
// layout from the descriptor, so no coordination is needed at bootstrap.
// Placement seeds each partition on a node chosen round-robin and greedily
// adds the replica maximizing Eq. 3 (pure diversity at bootstrap: equal
// rents, g = 1) until the SLA target is met.
func buildLayout(cfg Config) (*ring.MultiRing, map[ring.RingID]RingSpec, error) {
	hosts := make([]availability.Host, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		loc, err := n.Loc()
		if err != nil {
			return nil, nil, err
		}
		hosts[i] = availability.Host{ID: ring.ServerID(i), Loc: loc, Conf: n.Confidence}
	}
	mr := ring.NewMultiRing()
	specs := make(map[ring.RingID]RingSpec, len(cfg.Rings))
	for _, spec := range cfg.Rings {
		r, err := mr.Add(spec.ID(), spec.Partitions)
		if err != nil {
			return nil, nil, err
		}
		specs[spec.ID()] = spec
		for pi, p := range r.Partitions() {
			seed := hosts[pi%len(hosts)]
			p.AddReplica(seed.ID)
			current := []availability.Host{seed}
			for len(current) < spec.Replicas {
				var cands []availability.Candidate
				for _, h := range hosts {
					if !p.HasReplica(h.ID) {
						cands = append(cands, availability.Candidate{Host: h, G: 1})
					}
				}
				best, ok := availability.Best(current, cands)
				if !ok {
					break
				}
				p.AddReplica(best.ID)
				current = append(current, best.Host)
			}
		}
	}
	return mr, specs, nil
}
