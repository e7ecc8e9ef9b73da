package sim

import (
	"fmt"
	"math/rand"

	"skute/internal/agent"
	"skute/internal/availability"
	"skute/internal/economy"
	"skute/internal/ring"
	"skute/internal/server"
	"skute/internal/topology"
	"skute/internal/workload"
)

// vkey identifies one virtual node: a partition replica on a server.
type vkey struct {
	part int
	srv  ring.ServerID
}

// appState is the simulator's view of one application's virtual ring.
type appState struct {
	spec      AppSpec
	threshold float64
	ring      *ring.Ring
	// popularity holds the unnormalized popularity weight of each live
	// partition; splitting a partition halves the weight into both
	// children.
	popularity map[int]float64
	sizes      map[int]int64
	vnodes     map[vkey]*agent.VNode
	// queries is the per-partition query count of the current epoch.
	queries map[int]int
	// serverLoad is the per-server query traffic of this ring in the
	// current epoch, for the Fig. 4 metric.
	serverLoad map[ring.ServerID]float64
	// vqueries is the per-replica query share of the current epoch.
	vqueries vnodeQueries
	// gcache holds the epoch's normalized geographic preference of every
	// alive server for this application's clients (1 for the best-placed
	// server), refreshed at the start of each epoch.
	gcache map[ring.ServerID]float64
	cands  []availability.Candidate // the epoch's candidates, see baseCandidates
}

// Cloud is a running simulation: the cloud of servers, the virtual rings
// and the virtual economy, advanced epoch by epoch.
type Cloud struct {
	cfg   Config
	rng   *rand.Rand
	epoch int

	servers []*server.Server // dense by ServerID; failed servers stay
	board   *economy.Board
	rings   *ring.MultiRing
	apps    []*appState

	// next location slot for servers added by upgrade events
	addSeq int

	// queueScratch is reused across epochs for the decision queue.
	queueScratch []decisionRef
	candScratch  []availability.Candidate // the ablation policies' admitted list

	// Cumulative counters.
	insertAttempts int64
	insertFailures int64
	lostPartitions int64
	migrations     int64
	replications   int64
	suicides       int64
}

// New builds the cloud, assigns price classes, creates the virtual rings
// and places one initial replica per partition on a random server. The
// replication process that brings every partition up to its SLA then runs
// inside the first epochs (Fig. 2's startup phase).
func New(cfg Config) (*Cloud, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cloud{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		board: economy.NewBoard(),
		rings: ring.NewMultiRing(),
	}

	sites := topology.MustBuild(cfg.Topology)
	// Price classes: exactly ExpensiveFraction of the servers, chosen by a
	// seeded shuffle, pay the expensive rent.
	expensive := make([]bool, len(sites))
	nExp := int(cfg.ExpensiveFraction * float64(len(sites)))
	perm := c.rng.Perm(len(sites))
	for i := 0; i < nExp; i++ {
		expensive[perm[i]] = true
	}
	for i, site := range sites {
		rent := cfg.CheapRent
		if expensive[i] {
			rent = cfg.ExpensiveRent
		}
		srv, err := server.New(ring.ServerID(i), site.Loc, site.Confidence, rent, cfg.Capacities)
		if err != nil {
			return nil, err
		}
		c.servers = append(c.servers, srv)
	}

	for _, spec := range cfg.Apps {
		r, err := c.rings.Add(spec.RingID(), spec.Partitions)
		if err != nil {
			return nil, err
		}
		weights, err := spec.Popularity.Weights(c.rng, spec.Partitions, spec.PopClamp)
		if err != nil {
			return nil, err
		}
		st := &appState{
			spec:       spec,
			threshold:  availability.ThresholdForReplicas(spec.TargetReplicas),
			ring:       r,
			popularity: make(map[int]float64, spec.Partitions),
			sizes:      make(map[int]int64, spec.Partitions),
			vnodes:     make(map[vkey]*agent.VNode),
			queries:    make(map[int]int),
			serverLoad: make(map[ring.ServerID]float64),
		}
		if st.spec.Clients == nil {
			st.spec.Clients = workload.UniformClients{}
		}
		for i, p := range r.Partitions() {
			st.popularity[p.ID] = weights[i]
			st.sizes[p.ID] = spec.PartitionSize
			if err := c.placeInitial(st, p); err != nil {
				return nil, err
			}
		}
		c.apps = append(c.apps, st)
	}

	// First board announcement: rents of an idle cloud.
	c.announceRents()
	return c, nil
}

// placeInitial puts the first replica of a partition on a random server
// with room.
func (c *Cloud) placeInitial(st *appState, p *ring.Partition) error {
	size := st.sizes[p.ID]
	for attempts := 0; attempts < 4*len(c.servers); attempts++ {
		srv := c.servers[c.rng.Intn(len(c.servers))]
		if srv.CanHost(size) {
			if err := srv.Store(size); err != nil {
				return err
			}
			p.AddReplica(srv.ID())
			st.vnodes[vkey{p.ID, srv.ID()}] = &agent.VNode{
				Ring: st.spec.RingID(), Partition: p.ID, Server: srv.ID(), Size: size,
			}
			return nil
		}
	}
	return fmt.Errorf("sim: no server can host the initial replica of partition %d (%d bytes)", p.ID, size)
}

// Epoch returns the number of completed epochs.
func (c *Cloud) Epoch() int { return c.epoch }

// Config returns the simulation configuration.
func (c *Cloud) Config() Config { return c.cfg }

// Servers returns the dense server list (failed servers included).
func (c *Cloud) Servers() []*server.Server { return c.servers }

// Board returns the rent board.
func (c *Cloud) Board() *economy.Board { return c.board }

// server returns the server with the id; ids are dense slice indexes.
func (c *Cloud) server(id ring.ServerID) *server.Server { return c.servers[int(id)] }

// hostsOf builds the availability view of a partition's replica set.
func (c *Cloud) hostsOf(p *ring.Partition) []availability.Host {
	return c.appendHosts(make([]availability.Host, 0, len(p.Replicas)), p)
}

// appendHosts appends the partition's replica hosts to dst.
func (c *Cloud) appendHosts(dst []availability.Host, p *ring.Partition) []availability.Host {
	for _, id := range p.Replicas {
		s := c.server(id)
		dst = append(dst, availability.Host{ID: id, Loc: s.Location(), Conf: s.Confidence()})
	}
	return dst
}

// refreshG recomputes the app's normalized geographic preference for
// every alive server: Eq. 4's raw g, divided by the maximum over the
// alive cloud, so the best-placed server weighs 1 and distance discounts
// from there. The uniform distribution of the paper's evaluation yields 1
// everywhere (Section III-A: "g_j is 1 for any server j").
func (c *Cloud) refreshG(st *appState) {
	if st.gcache == nil {
		st.gcache = make(map[ring.ServerID]float64, len(c.servers))
	} else {
		clear(st.gcache)
	}
	var max float64
	for _, s := range c.servers {
		if !s.Alive() {
			continue
		}
		g := st.spec.Clients.G(s.Location())
		st.gcache[s.ID()] = g
		if g > max {
			max = g
		}
	}
	if max > 0 {
		for id := range st.gcache {
			st.gcache[id] /= max
		}
	}
}

// gOf returns the cached normalized preference of a server.
func (st *appState) gOf(id ring.ServerID) float64 { return st.gcache[id] }

// baseCandidates lists into st.cands every alive server with its rent and
// the app's geographic preference, once per epoch; the per-decision
// admission check (hosting, storage, bandwidth) is runDecisions' Admit.
func (c *Cloud) baseCandidates(st *appState) {
	cands := st.cands[:0]
	for _, s := range c.servers {
		if !s.Alive() {
			continue
		}
		rent, ok := c.board.Rent(s.ID())
		if !ok {
			continue
		}
		cands = append(cands, availability.Candidate{
			Host: availability.Host{ID: s.ID(), Loc: s.Location(), Conf: s.Confidence()},
			Rent: rent,
			G:    st.gOf(s.ID()),
		})
	}
	st.cands = cands
}

// announceRents publishes every alive server's virtual rent for the next
// epoch (Eq. 1), computed from the current epoch's storage usage and query
// load, and drops failed servers from the board.
func (c *Cloud) announceRents() {
	for _, s := range c.servers {
		if !s.Alive() {
			c.board.Forget(s.ID())
			continue
		}
		up := c.cfg.Rent.UsagePrice(s.MonthlyRent())
		c.board.Announce(s.ID(), c.cfg.Rent.Rent(up, s.StorageUsage(), s.QueryLoad()))
	}
}
