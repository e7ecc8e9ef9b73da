package cluster

import (
	"context"
	"fmt"

	"skute/internal/membership"
	"skute/internal/parallel"
	"skute/internal/placement"
	"skute/internal/ring"
	"skute/internal/store"
	"skute/internal/transport"
)

// Dynamic membership: the cluster-side plumbing around the SWIM table
// in internal/membership. Member records spread on the heartbeat frames
// the nodes already exchange (the sender's own record plus a table
// digest rides every beat; a digest mismatch pulls the full list), new
// nodes join through any seed with kindJoin, and members the table
// declares dead are evicted from every replica set through the same
// versioned placement deltas the economy uses — their partitions are
// then re-placed by the ordinary repair machinery.

// memberInfoOf converts the static descriptor entry to the gossiped
// member metadata.
func memberInfoOf(n NodeInfo) membership.Info {
	return membership.Info{
		Name:          n.Name,
		Addr:          n.Addr,
		LocPath:       n.LocPath,
		Confidence:    n.Confidence,
		MonthlyRent:   n.MonthlyRent,
		Capacity:      n.Capacity,
		QueryCapacity: n.QueryCapacity,
	}
}

// nodeInfoOf is the inverse conversion.
func nodeInfoOf(i membership.Info) NodeInfo {
	return NodeInfo{
		Name:          i.Name,
		Addr:          i.Addr,
		LocPath:       i.LocPath,
		Confidence:    i.Confidence,
		MonthlyRent:   i.MonthlyRent,
		Capacity:      i.Capacity,
		QueryCapacity: i.QueryCapacity,
	}
}

// applyMemberDeltas merges gossiped member records into the table,
// registering newly heard names in the local ID registry. A delta that
// accused this node itself of suspicion or death was refuted by the
// table (incarnation bumped); the refreshed self record is pushed out
// immediately so the accusation dies fast. It returns the number of
// records applied.
func (n *Node) applyMemberDeltas(ctx context.Context, ds ...membership.Delta) int {
	applied := 0
	refuted := false
	now := n.Now()
	for _, d := range ds {
		switch n.mt.Apply(d, now) {
		case membership.Applied:
			n.registerName(d.Info.Name)
			n.counters.MemberDeltasApplied.Inc()
			n.trace.Add("member", "apply %s=%s@%d", d.Info.Name, d.State, d.Incarnation)
			applied++
		case membership.Stale:
			n.counters.MemberDeltasStale.Inc()
		case membership.Refuted:
			n.counters.MemberRefutations.Inc()
			n.trace.Add("member", "refuted accusation %s@%d", d.State, d.Incarnation)
			refuted = true
		}
	}
	if refuted {
		n.spreadMembers(ctx, n.mt.SelfDelta())
	}
	return applied
}

// pullMembers fetches the named peer's full member list after a digest
// mismatch — anti-entropy for the member table, mirroring the placement
// delta pull.
func (n *Node) pullMembers(ctx context.Context, peer string) error {
	info, ok := n.mt.Info(peer)
	if !ok {
		return fmt.Errorf("cluster: unknown member %q", peer)
	}
	resp, err := n.tr.Call(ctx, info.Addr, transport.Envelope{
		Kind:    kindMemberPull,
		Payload: encode(memberPullReq{Digest: n.mt.Digest()}),
	})
	if err != nil {
		return err
	}
	var pr memberPullResp
	if err := decode(resp.Payload, &pr); err != nil {
		return err
	}
	n.counters.MemberPulls.Inc()
	n.applyMemberDeltas(ctx, pr.Deltas...)
	return nil
}

// spreadMembers pushes fresh member records (a join, a suspicion, a
// death, a refutation, a rent) to every non-terminal peer, best effort:
// a peer that misses the push converges through the next heartbeats,
// which carry the sender's own record and the digest exchange.
func (n *Node) spreadMembers(ctx context.Context, ds ...membership.Delta) {
	if len(ds) == 0 {
		return
	}
	env := transport.Envelope{Kind: kindMemberDelta, Payload: encode(memberDeltaReq{Deltas: ds})}
	peers := n.mt.GossipPeers()
	parallel.ForEach(len(peers), len(peers), func(i int) {
		_, _ = n.tr.Call(ctx, peers[i].Addr, env)
	})
}

// RunMembershipRound advances the local failure detector one step
// (alive → suspect → dead on heartbeat silence), gossips whatever
// changed, and evicts dead members from the replica sets this node
// hosts. The runtime drives it on the heartbeat loop.
func (n *Node) RunMembershipRound(ctx context.Context) {
	suspects, deads := n.mt.Tick(n.Now())
	n.counters.MembersSuspected.Add(int64(len(suspects)))
	n.counters.MembersDead.Add(int64(len(deads)))
	for _, d := range suspects {
		n.trace.Add("detector", "suspect %s@%d", d.Info.Name, d.Incarnation)
	}
	for _, d := range deads {
		n.trace.Add("detector", "dead %s@%d", d.Info.Name, d.Incarnation)
	}
	if len(suspects)+len(deads) > 0 {
		n.spreadMembers(ctx, append(suspects, deads...)...)
	}
	n.evictDeadMembers(ctx)
}

// evictDeadMembers removes every Dead or Left member from the replica
// sets of partitions this node hosts, one versioned placement delta per
// partition. It is idempotent — once the replica sets are clean it does
// nothing — and deliberately re-runs every round, so deaths observed
// through gossip (another node's Tick, or an injected FailServer)
// trigger eviction here too, not only deaths this node's own detector
// declared. Only hosting vnodes decide, matching the economy's rule,
// and the re-placement itself is left to the ordinary repair machinery:
// the shrunken replica set fails the availability threshold and the
// next economic epoch replicates it somewhere alive.
func (n *Node) evictDeadMembers(ctx context.Context) {
	type eviction struct {
		id   ring.RingID
		part int
		name string
	}
	var evs []eviction
	for _, m := range n.mt.Members() {
		if m.State != membership.Dead && m.State != membership.Left {
			continue
		}
		id, ok := n.nodeID(m.Info.Name)
		if !ok {
			continue
		}
		n.mu.RLock()
		for _, rid := range n.rings.IDs() {
			for _, p := range n.rings.Ring(rid).Partitions() {
				if p.HasReplica(ring.ServerID(n.selfI)) && p.HasReplica(id) {
					evs = append(evs, eviction{rid, p.ID, m.Info.Name})
				}
			}
		}
		n.mu.RUnlock()
	}
	for _, ev := range evs {
		if d, ok := n.propose(ev.id, ev.part, "", ev.name); ok {
			n.disseminate(ctx, d)
			n.counters.MemberEvictions.Inc()
			n.trace.Add("evict", "%s out of %s#%d", ev.name, ev.id, ev.part)
		}
	}
}

// handleJoin admits a new (or returning) member through this node. The
// joiner is stamped with an incarnation strictly above any prior record
// of its name, so a rejoin supersedes the old death everywhere it
// gossips; the response hands back everything needed to become a
// functioning member: the full member list, the ring specs, the
// cluster parameters and the current placement map.
func (n *Node) handleJoin(ctx context.Context, req joinReq) (transport.Envelope, error) {
	if err := req.Info.Validate(); err != nil {
		return transport.Envelope{}, err
	}
	if req.Info.Name == n.self.Name {
		return transport.Envelope{}, fmt.Errorf("cluster: join under this node's own name %q", n.self.Name)
	}
	assigned := uint64(1)
	if m, ok := n.mt.Get(req.Info.Name); ok {
		assigned = m.Incarnation + 1
	}
	d := membership.Delta{Info: req.Info, State: membership.Alive, Incarnation: assigned}
	n.applyMemberDeltas(ctx, d)
	// The join RPC itself is direct contact: the joiner skips probation
	// on this seed (every other node still demands its own heartbeat
	// exchange before routing traffic to it).
	n.mt.Confirm(req.Info.Name, n.Now())
	n.spreadMembers(ctx, d)
	n.counters.JoinsServed.Inc()
	n.trace.Add("join", "admitted %s (%s) at incarnation %d", req.Info.Name, req.Info.Addr, assigned)
	return transport.Envelope{Kind: "ok", Payload: encode(joinResp{
		Assigned:     assigned,
		Members:      n.mt.Deltas(),
		Rings:        n.cfg.Rings,
		Placement:    n.pmap.Deltas(),
		ReadQuorum:   n.cfg.ReadQuorum,
		WriteQuorum:  n.cfg.WriteQuorum,
		SuspectAfter: n.suspectAfter,
		DeadAfter:    n.deadAfter,
	})}, nil
}

// JoinNode boots a node into an existing cluster through any live seed:
// no shared descriptor file, just a Config whose Nodes holds the node's
// own entry, its node-local tuning, and one address. The seed answers
// with the member list, ring specs, cluster parameters (quorums and
// failure-detector timeouts, which override cfg's) and placement map;
// the joiner starts with EMPTY replica sets and materializes the real
// ones from the placement deltas, so it holds exactly the cluster's
// converged view. It owns no partitions until the economy places some
// on it — at which point the data arrives via throttled chunked
// transfer (handleAdopt).
func JoinNode(ctx context.Context, cfg Config, seedAddr string, tr transport.Transport, eng *store.Engine) (*Node, error) {
	if len(cfg.Nodes) != 1 {
		return nil, fmt.Errorf("cluster: a joiner's config lists its own node only, not %d", len(cfg.Nodes))
	}
	mi := memberInfoOf(cfg.Nodes[0])
	if err := mi.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validateLocal(); err != nil {
		return nil, err
	}
	resp, err := tr.Call(ctx, seedAddr, transport.Envelope{
		Kind:    kindJoin,
		Payload: encode(joinReq{Info: mi}),
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: join via %s: %w", seedAddr, err)
	}
	var jr joinResp
	if err := decode(resp.Payload, &jr); err != nil {
		return nil, err
	}
	if len(jr.Rings) == 0 {
		return nil, fmt.Errorf("cluster: join via %s: seed returned no rings", seedAddr)
	}

	// The ring layout starts EMPTY: partitions exist (the specs fix the
	// token space) but no replicas — the placement deltas below, not a
	// bootstrap computation, materialize the cluster's actual view.
	mr := ring.NewMultiRing()
	specs := make(map[ring.RingID]RingSpec, len(jr.Rings))
	for _, spec := range jr.Rings {
		if _, err := mr.Add(spec.ID(), spec.Partitions); err != nil {
			return nil, err
		}
		specs[spec.ID()] = spec
	}
	cfg.Rings = jr.Rings
	cfg.ReadQuorum, cfg.WriteQuorum = jr.ReadQuorum, jr.WriteQuorum
	cfg.SuspectAfter, cfg.DeadAfter = jr.SuspectAfter, jr.DeadAfter
	n := newNode(cfg, 0, mr, specs, placement.NewMap(), int64(len(jr.Members))+1, tr, eng)
	// The seed's member list includes this node's own record at the
	// assigned incarnation; Apply's self path adopts it, so a rejoin
	// immediately gossips above its old death record.
	n.applyMemberDeltas(ctx, jr.Members...)
	// The seed answered the join RPC: direct evidence it is up, so it is
	// immediately usable for quorum traffic while everyone else earns
	// confirmation through the first heartbeat round.
	for _, m := range n.mt.Members() {
		if m.Info.Addr == seedAddr {
			n.mt.Confirm(m.Info.Name, n.Now())
		}
	}
	n.applyDeltas(jr.Placement)
	n.trace.Add("join", "joined via seed %s", seedAddr)
	if err := n.serve(); err != nil {
		return nil, err
	}
	return n, nil
}
