package sim

import (
	"cmp"
	"slices"
	"sort"

	"skute/internal/agent"
	"skute/internal/availability"
	"skute/internal/ring"
	"skute/internal/workload"
)

// Step advances the simulation by one epoch:
//
//  1. scheduled cloud events (server upgrades/failures) take effect;
//  2. per-epoch bandwidth budgets and query counters reset;
//  3. the query workload of the epoch arrives and is routed to replicas;
//  4. the insert workload (if any) arrives; partitions over the size cap
//     split;
//  5. every virtual node runs the Section II-C decision process, in a
//     seeded random order, and its decision executes immediately subject
//     to the bandwidth and storage budgets ("all transfers complete
//     within the epoch", Section III-A);
//  6. every server announces its virtual rent for the next epoch (Eq. 1).
func (c *Cloud) Step() {
	c.applyEvents()

	for _, s := range c.servers {
		s.BeginEpoch()
	}
	for _, st := range c.apps {
		clear(st.queries)
		clear(st.serverLoad)
		c.refreshG(st)
	}

	c.routeQueries()
	c.runInserts()
	c.runDecisions()
	c.announceRents()
	c.epoch++
}

// Run advances n epochs, invoking hook (when non-nil) after each one.
func (c *Cloud) Run(n int, hook func(*Cloud)) {
	for i := 0; i < n; i++ {
		c.Step()
		if hook != nil {
			hook(c)
		}
	}
}

// vnodeQueries returns the per-replica query share of the epoch, keyed by
// vnode.
type vnodeQueries map[vkey]float64

// routeQueries draws the epoch's query load (profile rate x app share,
// split over partitions by popularity, Poisson noise per partition) and
// routes each partition's queries to its replicas proportionally to the
// replicas' geographic preference (uniform clients = even split).
func (c *Cloud) routeQueries() {
	rate := c.cfg.Profile.Rate(c.epoch)
	var gs []float64
	for _, st := range c.apps {
		if st.vqueries == nil {
			st.vqueries = make(vnodeQueries, len(st.vnodes))
		} else {
			clear(st.vqueries)
		}
		appRate := rate * st.spec.LoadShare
		if appRate <= 0 {
			continue
		}
		var wsum float64
		for _, w := range st.popularity {
			wsum += w
		}
		if wsum <= 0 {
			continue
		}
		for _, p := range st.ring.Partitions() {
			q := workload.Poisson(c.rng, appRate*st.popularity[p.ID]/wsum)
			if q == 0 || len(p.Replicas) == 0 {
				continue
			}
			st.queries[p.ID] = q
			// Route proportionally to each replica's geographic
			// preference.
			if cap(gs) < len(p.Replicas) {
				gs = make([]float64, len(p.Replicas))
			} else {
				gs = gs[:len(p.Replicas)]
			}
			var gsum float64
			for i, id := range p.Replicas {
				gs[i] = st.gOf(id)
				gsum += gs[i]
			}
			for i, id := range p.Replicas {
				share := float64(q) / float64(len(p.Replicas))
				if gsum > 0 {
					share = float64(q) * gs[i] / gsum
				}
				c.server(id).AddQueries(share)
				st.serverLoad[id] += share
				st.vqueries[vkey{p.ID, id}] += share
			}
		}
	}
}

// runInserts executes the storage-saturation workload: each insert picks
// an application proportionally to load share and a partition
// proportionally to popularity, then must land on every replica of the
// partition; if any replica's server is full the insert fails (Fig. 5
// counts these). Partitions exceeding the size cap split afterwards.
func (c *Cloud) runInserts() {
	if c.cfg.Inserts.PerEpoch <= 0 {
		return
	}
	appCum := make([]float64, len(c.apps))
	var total float64
	for i, st := range c.apps {
		total += st.spec.LoadShare
		appCum[i] = total
	}
	// Per-app cumulative popularity over live partitions, in sorted
	// partition-id order for determinism.
	type pcum struct {
		ids []int
		cum []float64
	}
	cums := make([]pcum, len(c.apps))
	for i, st := range c.apps {
		ids := make([]int, 0, len(st.popularity))
		for id := range st.popularity {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		cum := make([]float64, len(ids))
		var s float64
		for j, id := range ids {
			s += st.popularity[id]
			cum[j] = s
		}
		cums[i] = pcum{ids: ids, cum: cum}
	}

	size := c.cfg.Inserts.ValueSize
	for n := 0; n < c.cfg.Inserts.PerEpoch; n++ {
		c.insertAttempts++
		ai := 0
		if total > 0 {
			x := c.rng.Float64() * total
			ai = sort.SearchFloat64s(appCum, x)
			if ai == len(appCum) {
				ai = len(appCum) - 1
			}
		}
		st := c.apps[ai]
		pc := cums[ai]
		if len(pc.ids) == 0 || pc.cum[len(pc.cum)-1] <= 0 {
			c.insertFailures++
			continue
		}
		x := c.rng.Float64() * pc.cum[len(pc.cum)-1]
		pi := sort.SearchFloat64s(pc.cum, x)
		if pi == len(pc.ids) {
			pi = len(pc.ids) - 1
		}
		p := st.ring.Get(pc.ids[pi])
		if p == nil || len(p.Replicas) == 0 {
			c.insertFailures++
			continue
		}
		// The insert must fit on every replica.
		ok := true
		for _, id := range p.Replicas {
			if !c.server(id).CanHost(size) {
				ok = false
				break
			}
		}
		if !ok {
			c.insertFailures++
			continue
		}
		for _, id := range p.Replicas {
			if err := c.server(id).Store(size); err != nil {
				// CanHost was checked; a failure here is a bug.
				panic(err)
			}
			if v := st.vnodes[vkey{p.ID, id}]; v != nil {
				v.Size += size
			}
		}
		st.sizes[p.ID] += size
	}

	c.splitOversized()
}

// splitOversized splits every partition whose data exceeds the cap,
// halving size and popularity into the two children, and repeats until no
// partition is oversized: a partition that absorbed several times the cap
// within one epoch must end the epoch fully divided, otherwise it can
// outgrow the migration bandwidth budget and become unmovable. The
// children stay on the same servers (total stored bytes are unchanged),
// each child getting its own fresh virtual-node agents.
func (c *Cloud) splitOversized() {
	for _, st := range c.apps {
		for {
			// Collect first: splitting mutates the ring's partition list.
			var oversized []*ring.Partition
			for _, p := range st.ring.Partitions() {
				if st.sizes[p.ID] > c.cfg.MaxPartitionSize {
					oversized = append(oversized, p)
				}
			}
			if len(oversized) == 0 {
				break
			}
			progressed := c.splitBatch(st, oversized)
			if !progressed {
				break // only unsplittable hash ranges remain
			}
		}
	}
}

// splitBatch splits each partition once; it reports whether any split
// succeeded.
func (c *Cloud) splitBatch(st *appState, oversized []*ring.Partition) bool {
	progressed := false
	{
		for _, p := range oversized {
			np, err := st.ring.Split(p)
			if err != nil {
				continue // unsplittable hash range; keep the fat partition
			}
			progressed = true
			half := st.sizes[p.ID] / 2
			st.sizes[np.ID] = half
			st.sizes[p.ID] -= half
			w := st.popularity[p.ID] / 2
			st.popularity[np.ID] = w
			st.popularity[p.ID] = w
			for _, id := range p.Replicas {
				old := st.vnodes[vkey{p.ID, id}]
				if old != nil {
					old.Size = st.sizes[p.ID]
				}
				st.vnodes[vkey{np.ID, id}] = &agent.VNode{
					Ring: st.spec.RingID(), Partition: np.ID, Server: id, Size: half,
				}
			}
		}
	}
	return progressed
}

// decisionRef orders the epoch's decision queue.
type decisionRef struct {
	app int
	key vkey
}

// runDecisions runs Section II-C for every virtual node in a seeded random
// order. Decisions execute immediately and sequentially, so later agents
// observe the effects of earlier ones — the paper's uncoordinated agents
// observing board and ring metadata — which prevents, e.g., every replica
// of an under-replicated partition replicating in the same epoch.
func (c *Cloud) runDecisions() {
	queue := c.queueScratch[:0]
	for ai, st := range c.apps {
		for k := range st.vnodes {
			queue = append(queue, decisionRef{ai, k})
		}
	}
	c.queueScratch = queue
	slices.SortFunc(queue, func(a, b decisionRef) int {
		if a.app != b.app {
			return cmp.Compare(a.app, b.app)
		}
		if a.key.part != b.key.part {
			return cmp.Compare(a.key.part, b.key.part)
		}
		return cmp.Compare(a.key.srv, b.key.srv)
	})
	c.rng.Shuffle(len(queue), func(i, j int) { queue[i], queue[j] = queue[j], queue[i] })

	minRent := c.board.MinRent()
	for _, st := range c.apps {
		c.baseCandidates(st)
	}
	hostScratch := make([]availability.Host, 0, 8)
	for _, ref := range queue {
		st := c.apps[ref.app]
		v, ok := st.vnodes[ref.key]
		if !ok || v.Server != ref.key.srv {
			continue // removed or migrated earlier this epoch
		}
		p := st.ring.Get(v.Partition)
		if p == nil || !p.HasReplica(v.Server) {
			continue
		}
		self := c.server(v.Server)
		rent, _ := c.board.Rent(v.Server)
		hostScratch = c.appendHosts(hostScratch[:0], p)
		in := agent.Inputs{
			Threshold:  st.threshold,
			Hosts:      hostScratch,
			Candidates: st.cands,
			// Bandwidth spreads placements instead of herding them onto the cheapest server.
			Admit: func(id ring.ServerID) bool {
				s := c.server(id)
				return s.CanHost(v.Size) && s.ReplBudget() >= v.Size && !p.HasReplica(id)
			},
			Queries:         st.vqueries[ref.key],
			StoragePressure: self.StorageUsage(),
			G:               st.gOf(v.Server),
			Rent:            rent,
			MinRent:         minRent,
			ConsistencyCost: c.cfg.ConsistencyCost * float64(len(p.Replicas)),
		}
		var d agent.Decision
		switch c.cfg.Policy {
		case RandomPlacement:
			d = c.randomPlacementDecision(st, p, c.admitted(in))
		case CountOnly:
			d = c.countOnlyDecision(st, p, c.admitted(in))
		default:
			d = v.Decide(c.cfg.Agent, in)
		}
		c.execute(st, p, v, d, in)
	}
}

// admitted lists the decision's admitted candidates in server-ID order
// into a scratch slice reused across decisions. Only the ablation
// policies need the list; the agent reads candidates lazily.
func (c *Cloud) admitted(in agent.Inputs) []availability.Candidate {
	out := c.candScratch[:0]
	for _, cand := range in.Candidates {
		if in.Admit(cand.ID) {
			out = append(out, cand)
		}
	}
	c.candScratch = out
	return out
}

// randomPlacementDecision is the ablation baseline that keeps
// TargetReplicas copies per partition on uniformly random capable servers
// and never migrates or deletes.
func (c *Cloud) randomPlacementDecision(st *appState, p *ring.Partition, cands []availability.Candidate) agent.Decision {
	if len(p.Replicas) >= st.spec.TargetReplicas || len(cands) == 0 {
		return agent.Decision{Action: agent.Hold}
	}
	pick := cands[c.rng.Intn(len(cands))]
	return agent.Decision{Action: agent.Replicate, Target: pick.ID}
}

// countOnlyDecision is the ablation baseline that keeps TargetReplicas
// copies per partition on the cheapest capable servers, ignoring
// geographic diversity entirely.
func (c *Cloud) countOnlyDecision(st *appState, p *ring.Partition, cands []availability.Candidate) agent.Decision {
	if len(p.Replicas) >= st.spec.TargetReplicas || len(cands) == 0 {
		return agent.Decision{Action: agent.Hold}
	}
	best := cands[0]
	for _, cand := range cands[1:] {
		if cand.Rent < best.Rent || (cand.Rent == best.Rent && cand.ID < best.ID) {
			best = cand
		}
	}
	return agent.Decision{Action: agent.Replicate, Target: best.ID}
}

// execute applies one decision, enforcing the per-epoch bandwidth budgets
// and storage capacities; decisions that do not fit are dropped (the agent
// retries next epoch). A migration whose target has exhausted its
// migration budget is retargeted by the agent's own migration rule, with
// admission narrowed to servers that still hold migration budget: with
// ticked prices many candidates score identically, and without
// retargeting every evicting node of a filling server herds onto one
// destination that can absorb only a single transfer per epoch.
func (c *Cloud) execute(st *appState, p *ring.Partition, v *agent.VNode, d agent.Decision, in agent.Inputs) {
	switch d.Action {
	case agent.Replicate:
		t := c.server(d.Target)
		if !t.CanHost(v.Size) || !t.ReserveReplication(v.Size) {
			return
		}
		if err := t.Store(v.Size); err != nil {
			return
		}
		p.AddReplica(d.Target)
		st.vnodes[vkey{p.ID, d.Target}] = &agent.VNode{
			Ring: st.spec.RingID(), Partition: p.ID, Server: d.Target, Size: v.Size,
		}
		v.Ledger.Reset()
		c.replications++

	case agent.Migrate:
		t := c.server(d.Target)
		if !t.CanHost(v.Size) || !t.ReserveMigration(v.Size) {
			admit := in.Admit
			in.Admit = func(id ring.ServerID) bool { return admit(id) && c.server(id).MigrBudget() >= v.Size }
			best, ok := v.MigrationTarget(in)
			if !ok || !c.server(best.ID).ReserveMigration(v.Size) {
				return
			}
			d.Target, t = best.ID, c.server(best.ID)
		}
		if err := t.Store(v.Size); err != nil {
			return
		}
		c.server(v.Server).Release(v.Size)
		p.ReplaceReplica(v.Server, d.Target)
		delete(st.vnodes, vkey{p.ID, v.Server})
		v.Server = d.Target
		st.vnodes[vkey{p.ID, d.Target}] = v
		v.Ledger.Reset()
		c.migrations++

	case agent.Suicide:
		if len(p.Replicas) <= 1 {
			return // never delete the last copy
		}
		c.server(v.Server).Release(v.Size)
		p.RemoveReplica(v.Server)
		delete(st.vnodes, vkey{p.ID, v.Server})
		c.suicides++

	case agent.Hold:
	}
}
