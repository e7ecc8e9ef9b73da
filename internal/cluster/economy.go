package cluster

import (
	"context"
	"fmt"
	"sort"

	"skute/internal/agent"
	"skute/internal/availability"
	"skute/internal/economy"
	"skute/internal/parallel"
	"skute/internal/ring"
	"skute/internal/topology"
	"skute/internal/transport"
)

// EpochReport summarizes what one economic epoch did on this node.
type EpochReport struct {
	Board        string
	Rent         float64
	Replications int
	Migrations   int
	Suicides     int
	Repairs      int // availability-driven replications
}

// AnnounceRent computes this node's virtual rent (Eq. 1) from its storage
// usage and the query traffic since the last epoch, and announces it to
// the board (the lowest-named alive node). It returns the rent and the
// board's name. The context bounds the announcement RPC.
func (n *Node) AnnounceRent(ctx context.Context, params economy.RentParams) (float64, string, error) {
	board, ok := boardOf(n.aliveNames())
	if !ok {
		return 0, "", fmt.Errorf("cluster: no alive nodes to elect a board")
	}
	n.qmu.Lock()
	var q float64
	for _, c := range n.queries {
		q += c
	}
	n.qmu.Unlock()
	usage := float64(n.eng.Bytes()) / float64(n.self.Capacity)
	load := q / n.self.QueryCapacity
	rent := params.Rent(params.UsagePrice(n.self.MonthlyRent), usage, load)

	env := transport.Envelope{Kind: kindAnnounce, Payload: encode(announceReq{Node: n.self.Name, Rent: rent})}
	if board == n.self.Name {
		n.mu.Lock()
		n.rents[n.self.Name] = rent
		n.mu.Unlock()
	} else {
		info, _ := n.info(board)
		if _, err := n.tr.Call(ctx, info.Addr, env); err != nil {
			return rent, board, fmt.Errorf("cluster: announce to board %s: %w", board, err)
		}
	}
	return rent, board, nil
}

// fetchRents pulls the rent board.
func (n *Node) fetchRents(ctx context.Context) (map[string]float64, string, error) {
	board, ok := boardOf(n.aliveNames())
	if !ok {
		return nil, "", fmt.Errorf("cluster: no alive nodes to elect a board")
	}
	if board == n.self.Name {
		n.mu.RLock()
		out := make(map[string]float64, len(n.rents))
		for k, v := range n.rents {
			out[k] = v
		}
		n.mu.RUnlock()
		return out, board, nil
	}
	info, _ := n.info(board)
	resp, err := n.tr.Call(ctx, info.Addr, transport.Envelope{Kind: kindRents})
	if err != nil {
		return nil, board, err
	}
	var rr rentsResp
	if err := decode(resp.Payload, &rr); err != nil {
		return nil, board, err
	}
	rents := make(map[string]float64, len(rr.Rents))
	for _, r := range rr.Rents {
		rents[r.Node] = r.Rent
	}
	return rents, board, nil
}

// RunEconomicEpoch closes the epoch on this node: it runs the Section
// II-C decision process for every virtual node hosted here, using the
// rents on the board, and executes the decisions across the cluster
// (replicate = adopt on the target, migrate = adopt + local drop, suicide
// = local drop). Every replica-set change is stamped as a versioned
// placement delta — applied locally, pushed to alive peers, healed onto
// stragglers by the gossip digest exchange. Query counters reset
// afterwards. Callers should AnnounceRent on every node first. The
// context bounds all the epoch's RPCs (rent fetch, adopts, delta pushes).
//
// Hosted vnodes manage disjoint partitions, so their decisions run
// concurrently on a pool of Config.EpochWorkers workers; replica-table
// mutations stay serialized behind the node lock.
func (n *Node) RunEconomicEpoch(ctx context.Context, params agent.Params, rentParams economy.RentParams) (EpochReport, error) {
	rents, board, err := n.fetchRents(ctx)
	if err != nil {
		return EpochReport{}, err
	}
	rep := EpochReport{Board: board}
	rep.Rent = rents[n.self.Name]
	minRent := 0.0
	first := true
	for _, r := range rents {
		if first || r < minRent {
			minRent, first = r, false
		}
	}

	// Deterministic enumeration of hosted vnodes.
	type hosted struct {
		id   ring.RingID
		part int
	}
	var mine []hosted
	n.mu.RLock()
	for _, rid := range n.rings.IDs() {
		r := n.rings.Ring(rid)
		for _, p := range r.Partitions() {
			if p.HasReplica(ring.ServerID(n.selfI)) {
				mine = append(mine, hosted{rid, p.ID})
			}
		}
	}
	n.mu.RUnlock()
	sort.Slice(mine, func(i, j int) bool {
		if mine[i].id != mine[j].id {
			return mine[i].id.String() < mine[j].id.String()
		}
		return mine[i].part < mine[j].part
	})

	// One result slot per vnode: workers never contend on the report.
	type outcome struct{ repairs, replications, migrations, suicides int }
	outcomes := make([]outcome, len(mine))
	parallel.ForEach(len(mine), n.epochWorkers, func(i int) {
		h := mine[i]
		_, p, err := n.partition(h.id, h.part)
		if err != nil {
			return
		}
		spec := n.specs[h.id]
		hosts := n.hostsOf(p)
		cands := n.candidatesFor(p, rents)
		key := vnodeKey(h.id, h.part)
		n.mu.Lock()
		st, ok := n.ledgers[key]
		if !ok {
			st = &ledgerState{}
			n.ledgers[key] = st
		}
		n.mu.Unlock()
		n.qmu.Lock()
		queries := n.queries[key]
		n.qmu.Unlock()

		v := agent.VNode{
			Ring: h.id, Partition: h.part, Server: ring.ServerID(n.selfI),
			Ledger: st.ledger,
		}
		d := v.Decide(params, agent.Inputs{
			Threshold:  availability.ThresholdForReplicas(spec.Replicas),
			Hosts:      hosts,
			Candidates: cands,
			Queries:    queries,
			// Read per decision, not hoisted: vnodes that already shed
			// data this epoch relieve the pressure later deciders see,
			// the same feedback the sequential loop had (Bytes is an
			// atomic sum, so this stays cheap).
			StoragePressure: float64(n.eng.Bytes()) / float64(n.self.Capacity),
			G:               1,
			Rent:            rents[n.self.Name],
			MinRent:         minRent,
			ConsistencyCost: 0.1 * float64(len(hosts)),
		})
		st.ledger = v.Ledger

		switch d.Action {
		case agent.Replicate:
			repair := availability.Of(hosts) < availability.ThresholdForReplicas(spec.Replicas)
			if err := n.executeAdopt(ctx, h.id, h.part, d.Target); err == nil {
				if repair {
					outcomes[i].repairs = 1
				} else {
					outcomes[i].replications = 1
				}
				st.ledger.Reset()
			}
		case agent.Migrate:
			if err := n.executeAdopt(ctx, h.id, h.part, d.Target); err == nil {
				if del, ok := n.propose(h.id, h.part, "", n.self.Name); ok {
					n.disseminate(ctx, del)
					// Drain writes acked after the adopt pull's snapshot
					// into the survivors before deleting the local copy.
					n.handoffSync(ctx, h.id, h.part)
					n.dropIfEvicted(h.id, h.part)
					outcomes[i].migrations = 1
				} else {
					// The removal was a no-op (a concurrent delta beat
					// us to it, or we were the last listed replica):
					// the partition only gained the adopted copy.
					outcomes[i].replications = 1
				}
			}
		case agent.Suicide:
			n.mu.RLock()
			lone := len(p.Replicas) <= 1
			n.mu.RUnlock()
			if !lone {
				// propose refuses to stamp an empty replica set, so a
				// suicide racing another removal of the same partition
				// degrades to a no-op instead of orphaning it.
				if del, ok := n.propose(h.id, h.part, "", n.self.Name); ok {
					n.disseminate(ctx, del)
					// Same drain as Migrate: a suicide may hold the only
					// copy of a write it acknowledged moments ago.
					n.handoffSync(ctx, h.id, h.part)
					n.dropIfEvicted(h.id, h.part)
					outcomes[i].suicides = 1
				}
			}
		}
	})
	for _, o := range outcomes {
		rep.Repairs += o.repairs
		rep.Replications += o.replications
		rep.Migrations += o.migrations
		rep.Suicides += o.suicides
	}
	n.counters.EpochRepairs.Add(int64(rep.Repairs))
	n.counters.EpochReplications.Add(int64(rep.Replications))
	n.counters.EpochMigrations.Add(int64(rep.Migrations))
	n.counters.EpochSuicides.Add(int64(rep.Suicides))
	if rep.Repairs+rep.Replications+rep.Migrations+rep.Suicides > 0 {
		n.trace.Add("epoch", "board=%s rent=%.3f repairs=%d replications=%d migrations=%d suicides=%d",
			board, rep.Rent, rep.Repairs, rep.Replications, rep.Migrations, rep.Suicides)
	}

	n.qmu.Lock()
	n.queries = make(map[string]float64)
	n.qmu.Unlock()
	return rep, nil
}

// executeAdopt asks the target node to pull a replica of the partition
// from this node, then stamps and disseminates the versioned delta
// adding the target to the replica set.
func (n *Node) executeAdopt(ctx context.Context, id ring.RingID, part int, target ring.ServerID) error {
	name := n.nodeName(target)
	if !n.alive(name) {
		return fmt.Errorf("cluster: adopt target %s down", name)
	}
	info, _ := n.info(name)
	_, err := n.tr.Call(ctx, info.Addr, transport.Envelope{
		Kind:    kindAdopt,
		Payload: encode(adoptReq{Ring: id, Part: part, FromAddr: n.self.Addr}),
	})
	if err != nil {
		return err
	}
	n.trace.Add("adopt", "%s#%d -> %s", id, part, name)
	if d, ok := n.propose(id, part, name, ""); ok {
		n.disseminate(ctx, d)
	}
	return nil
}

// memberHost resolves one replica's availability view from the member
// table; members that are dead, suspect or still in probation
// contribute nothing.
func (n *Node) memberHost(id ring.ServerID) (availability.Host, bool) {
	name := n.nodeName(id)
	if name == "" || !n.alive(name) {
		return availability.Host{}, false
	}
	mi, ok := n.mt.Info(name)
	if !ok {
		return availability.Host{}, false
	}
	loc, err := topology.ParsePath(mi.LocPath)
	if err != nil {
		return availability.Host{}, false
	}
	return availability.Host{ID: id, Loc: loc, Conf: mi.Confidence}, true
}

// hostsOf builds the availability view of a partition's replica set,
// excluding replicas on members the table considers down: a failed
// server no longer contributes diversity, which is exactly what drives
// the repair replication of Section II-C.
func (n *Node) hostsOf(p *ring.Partition) []availability.Host {
	n.mu.RLock()
	defer n.mu.RUnlock()
	hosts := make([]availability.Host, 0, len(p.Replicas))
	for _, id := range p.Replicas {
		if h, ok := n.memberHost(id); ok {
			hosts = append(hosts, h)
		}
	}
	return hosts
}

// candidatesFor lists alive members not hosting the partition, priced
// from the board (members without an announced rent are skipped). The
// member table — not the boot descriptor — is the candidate source, so
// freshly joined nodes become adoption targets as soon as their rent
// lands on the board. The replica table is read under the node lock:
// peers broadcast assignment changes concurrently with epoch decisions.
func (n *Node) candidatesFor(p *ring.Partition, rents map[string]float64) []availability.Candidate {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var cands []availability.Candidate
	for _, m := range n.mt.Members() {
		name := m.Info.Name
		if !n.alive(name) {
			continue
		}
		id := n.registerName(name)
		if p.HasReplica(id) {
			continue
		}
		rent, ok := rents[name]
		if !ok {
			continue
		}
		loc, err := topology.ParsePath(m.Info.LocPath)
		if err != nil {
			continue
		}
		cands = append(cands, availability.Candidate{
			Host: availability.Host{ID: id, Loc: loc, Conf: m.Info.Confidence},
			Rent: rent,
			G:    1,
		})
	}
	return cands
}

// Availability reports Eq. 2 for every partition of a ring, as seen from
// this node's replica table.
func (n *Node) Availability(id ring.RingID) (map[int]float64, error) {
	n.mu.RLock()
	r := n.rings.Ring(id)
	n.mu.RUnlock()
	if r == nil {
		return nil, fmt.Errorf("%w %s", ErrUnknownRing, id)
	}
	out := make(map[int]float64, r.Len())
	for _, p := range r.Partitions() {
		out[p.ID] = availability.Of(n.hostsOf(p))
	}
	return out, nil
}

// Stats is an observability snapshot of one node.
type Stats struct {
	Name        string
	Keys        int
	Bytes       int64
	Capacity    int64
	AlivePeers  []string
	Hosted      int
	Rings       []RingStats
	MonthlyRent float64
	// PlacementDigest folds the per-ring placement digests into one
	// comparable value: nodes agreeing on it hold identical replica
	// maps, the convergence check scenario invariants poll for.
	PlacementDigest uint64
}

// RingStats summarizes one ring from this node's replica table.
type RingStats struct {
	App        string
	Class      string
	Partitions int
	Replicas   int // SLA target
	Threshold  float64
	Violations int
	MinAvail   float64
}

// Stats gathers the node's observability snapshot.
func (n *Node) Stats() Stats {
	st := Stats{
		Name:        n.self.Name,
		Keys:        n.eng.Len(),
		Bytes:       n.eng.Bytes(),
		Capacity:    n.self.Capacity,
		AlivePeers:  n.aliveNames(),
		MonthlyRent: n.self.MonthlyRent,
	}
	st.PlacementDigest = n.pmap.Digest().Sum()
	st.Hosted, _ = n.HostedCount(n.self.Name)
	for _, spec := range n.cfg.Rings {
		rs := RingStats{
			App: spec.App, Class: spec.Class,
			Replicas:  spec.Replicas,
			Threshold: availability.ThresholdForReplicas(spec.Replicas),
			MinAvail:  -1,
		}
		avails, err := n.Availability(spec.ID())
		if err == nil {
			for _, av := range avails {
				rs.Partitions++
				if av < rs.Threshold {
					rs.Violations++
				}
				if rs.MinAvail < 0 || av < rs.MinAvail {
					rs.MinAvail = av
				}
			}
		}
		st.Rings = append(st.Rings, rs)
	}
	return st
}

// HostedCount reports how many partition replicas across all rings are
// currently assigned to the named peer, per this node's replica table.
func (n *Node) HostedCount(name string) (int, error) {
	id, ok := n.nodeID(name)
	if !ok {
		return 0, fmt.Errorf("cluster: unknown node %q", name)
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	total := 0
	for _, rid := range n.rings.IDs() {
		for _, p := range n.rings.Ring(rid).Partitions() {
			if p.HasReplica(id) {
				total++
			}
		}
	}
	return total, nil
}

// Replicas exposes the replica names of the partition holding a key —
// observability for tests and the CLI.
func (n *Node) Replicas(id ring.RingID, key string) ([]string, error) {
	n.mu.RLock()
	r := n.rings.Ring(id)
	n.mu.RUnlock()
	if r == nil {
		return nil, fmt.Errorf("%w %s", ErrUnknownRing, id)
	}
	n.mu.RLock()
	p := r.Lookup(ring.HashKey(key))
	n.mu.RUnlock()
	return n.replicasOf(p), nil
}
