package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"skute/internal/economy"
	"skute/internal/membership"
	"skute/internal/merkle"
	"skute/internal/parallel"
	"skute/internal/placement"
	"skute/internal/resilience"
	"skute/internal/ring"
	"skute/internal/store"
	"skute/internal/telemetry"
	"skute/internal/transport"
)

// Message kinds on the wire.
const (
	kindHeartbeat = "heartbeat"
	kindLeaves    = "merkle-leaves"
	kindAdopt     = "adopt"
	// Membership kinds: join-via-any-seed, the digest-driven member
	// pull, and the active push of fresh member records (suspicions,
	// deaths, joins, rents) — see membership.go.
	kindJoin        = "member-join"
	kindMemberPull  = "member-pull"
	kindMemberDelta = "member-delta"
	// Chunked partition transfer: a joining or adopting replica pulls a
	// partition in bounded, resumable chunks instead of one giant
	// envelope — see transfer.go.
	kindFetchChunk = "fetch-chunk"
	// Control-plane placement kinds: a push of freshly proposed
	// versioned deltas, and the digest-driven pull that heals any node
	// the push missed (see internal/placement).
	kindDelta     = "placement-delta"
	kindDeltaPull = "placement-pull"
	// Replica data kinds: one envelope carries every key a batch needs
	// from one replica node, whatever partitions they fall on (see
	// Node.MultiGet and writeBatch); single-key writes, read repair and
	// anti-entropy pulls and pushes ride them too.
	kindMultiGet = "multi-get"
	kindMultiPut = "multi-put"
	// Client-facing kinds: the receiving node coordinates the quorum
	// operation on the caller's behalf (cmd/skutectl uses these). The
	// requests carry the caller's consistency level and timeout budget so
	// the coordinator honors the caller's choice, not its own defaults.
	kindClientGet     = "client-get"
	kindClientPut     = "client-put"
	kindClientDel     = "client-del"
	kindClientMGet    = "client-mget"
	kindClientMPut    = "client-mput"
	kindClientMembers = "client-members"
)

// Wire payloads, carried in transport.Envelope.Payload and laid out by
// hand (codec.go).
type (
	heartbeatReq struct {
		From string
		// Digest piggybacks the sender's per-ring placement
		// fingerprints on every heartbeat; a receiver whose own digest
		// disagrees pulls the sender's deltas (gossip anti-entropy for
		// the control plane).
		Digest placement.Digest
		// Member is the sender's own membership record, so a receiver
		// that has never heard of the sender (a fresh joiner beating
		// before its join record gossiped this far) learns its metadata
		// from the beat itself.
		Member membership.Delta
		// MDigest fingerprints the sender's member table; a mismatch
		// triggers a member pull, mirroring the placement digest.
		MDigest uint64
	}
	heartbeatResp struct {
		// Member echoes the receiver's own record of the SENDER when the
		// two disagree (worse state, or a higher incarnation). This is
		// how an accusation reaches the accused: a node that restarted
		// after being declared dead gossips to nobody's benefit — peers
		// drop its stale records and never beat back (terminal members
		// attract no heartbeats) — so the echo is its only way to learn
		// of the standing death record and refute it.
		Member membership.Delta
	}
	leavesReq struct {
		Ring ring.RingID
		Part int
		// Root is the requester's incremental-tree root for the
		// partition; a responder whose own root matches answers
		// Same=true with no leaves at all — the O(1) fast path of
		// steady-state anti-entropy.
		Root []byte
	}
	leavesResp struct {
		Same   bool
		Keys   []string
		Hashes [][]byte
	}
	kv struct {
		Key      string
		Versions []store.Version
	}
	adoptReq struct {
		Ring     ring.RingID
		Part     int
		FromAddr string
	}
	// Chunked partition transfer (see transfer.go): the adopter pulls
	// key-ordered chunks after a cursor; the donor throttles by bytes.
	fetchChunkReq struct {
		Ring     ring.RingID
		Part     int
		After    string // resume cursor: last storage key already applied
		MaxItems int
	}
	fetchChunkResp struct {
		Items []kv
		Next  string // cursor to pass as After on the next chunk
		Done  bool
	}
	// Membership wire payloads (see membership.go).
	joinReq struct {
		Info membership.Info
	}
	joinResp struct {
		// Assigned is the incarnation the seed stamped the joiner with —
		// strictly above any prior record of the same name, so a rejoin
		// supersedes the old death everywhere.
		Assigned  uint64
		Members   []membership.Delta
		Rings     []RingSpec
		Placement []placement.Delta
		// Cluster-wide parameters the joiner adopts.
		ReadQuorum   int
		WriteQuorum  int
		SuspectAfter time.Duration
		DeadAfter    time.Duration
	}
	memberPullReq struct {
		Digest uint64
	}
	memberPullResp struct {
		Deltas []membership.Delta
	}
	memberDeltaReq struct {
		Deltas []membership.Delta
	}
	clientMembersResp struct {
		Members []MemberRecord
	}
	deltaReq struct {
		Deltas []placement.Delta
	}
	deltaPullReq struct {
		// Digest is the puller's own per-ring fingerprints; the serving
		// node answers with its entries for every mismatched ring.
		Digest placement.Digest
	}
	deltaPullResp struct {
		Deltas []placement.Delta
	}
	putItem struct {
		Key     string
		Version store.Version
	}
	multiGetReq struct {
		Ring ring.RingID
		Keys []string
	}
	multiGetResp struct {
		Items []kv
	}
	multiPutReq struct {
		Ring  ring.RingID
		Items []putItem
	}
	clientGetReq struct {
		Ring        ring.RingID
		Key         string
		Consistency Consistency
		Timeout     time.Duration
	}
	clientGetResp struct {
		Values  [][]byte
		Context map[string]uint64
	}
	clientPutReq struct {
		Ring        ring.RingID
		Key         string
		Value       []byte
		Delete      bool
		Context     map[string]uint64
		Consistency Consistency
		Timeout     time.Duration
	}
	clientMGetReq struct {
		Ring        ring.RingID
		Keys        []string
		Consistency Consistency
		Timeout     time.Duration
	}
	clientKV struct {
		Key     string
		Values  [][]byte
		Context map[string]uint64
	}
	clientMGetResp struct {
		Items []clientKV
	}
	clientMPutReq struct {
		Ring        ring.RingID
		Entries     []Entry
		Consistency Consistency
		Timeout     time.Duration
	}
)

// MemberRecord is one member-table row as reported to clients
// (skutectl members): the gossiped record plus the serving node's local
// probation/confirmation view.
type MemberRecord struct {
	Name        string
	Addr        string
	State       string // alive | probation | suspect | left | dead
	Incarnation uint64
	Confirmed   bool
	// AgeMillis is how long ago the serving node last heard evidence of
	// the member (0 when never heard from).
	AgeMillis int64
}

// Node is one prototype server.
type Node struct {
	cfg   Config
	self  NodeInfo
	selfI int
	tr    transport.Transport
	eng   *store.Engine
	// mt is the SWIM-style member table — the single authority on peer
	// liveness and metadata (see internal/membership). It subsumes the
	// old heartbeat detector and the static cfg.Nodes peer view: quorum
	// fan-out, epoch rents and epoch candidates all read from it.
	mt           *membership.Table
	suspectAfter time.Duration
	deadAfter    time.Duration
	// Now is the clock source; overridable in tests.
	Now func() time.Time
	// epochWorkers bounds the economic-epoch worker pool (see
	// Config.EpochWorkers).
	epochWorkers int

	// nmu guards the node-local name↔ServerID registry. ServerIDs are
	// purely local handles — the wire carries names only — handed out
	// monotonically as members are first heard of, so a node joining
	// mid-flight needs no global ID coordination. Lock order: mu may be
	// held when taking nmu, never the reverse.
	nmu   sync.RWMutex
	names []string // index == ServerID
	ids   map[string]ring.ServerID

	// tmu guards the per-partition incremental Merkle trees the store
	// write hook maintains (see initTrees); anti-entropy compares their
	// always-current roots instead of rescanning the engine each round.
	tmu   sync.RWMutex
	trees map[placement.Key]*merkle.Incremental

	// throttle bounds outbound partition-transfer bandwidth and
	// chunkItems caps items per transfer chunk (see transfer.go); resume
	// holds adopter-side cursors keyed ring#part@donor so an interrupted
	// pull restarts mid-stream instead of from scratch.
	throttle   *rateLimiter
	chunkItems int
	xmu        sync.Mutex
	resume     map[string]string

	// counters are the control-plane observability counters; RegisterMetrics
	// exposes them on a metrics.Registry.
	counters ControlCounters

	// trace is the bounded control-plane decision ring served on the
	// admin endpoint's GET /trace (see trace.go).
	trace *TraceRing

	// tel is the latency registry (GET /metrics); opTel caches the
	// coordinator per-op histograms off the registry lock (telemetry.go).
	tel   *telemetry.Registry
	opTel *opHists

	// gate is the admission gate (nil when Config.DisableAdmission):
	// coordinator client ops and background traffic enter it, and a full
	// node sheds with ErrOverloaded instead of queueing work into its
	// deadline. breakers holds one circuit breaker per peer, fed by
	// remote call outcomes on the read and write paths; the read fan-out
	// orders replicas with open breakers last so a sick peer is probed,
	// not hammered.
	gate     *resilience.Gate
	breakers *resilience.BreakerSet

	// run tracks the autonomous runtime (Start/Stop); see runtime.go.
	run runState

	// dot is the node-local monotonic write counter: every coordinated
	// write stamps its clock's own entry from this counter instead of
	// incrementing whatever the read context carried (see stampClock).
	// Seeded at boot past every own entry in the recovered store.
	dot atomic.Uint64

	// Tiered read path state (see readpath.go): lastContact is the unix
	// nano timestamp of the last evidence a peer could reach this node —
	// the coordinator read lease; rcache is the bounded hot-key cache;
	// hedge tracks accepted read RTTs and derives the backup-request
	// delay; repairTick/repairInflight sample async read repair on
	// lease-served local reads.
	lastContact    atomic.Int64
	rcache         *readCache
	hedge          *hedgeTracker
	repairTick     atomic.Uint64
	repairInflight atomic.Int32

	// mu guards the ring layout, the placement map's materialization into
	// it, and ledgers. The quorum read/write path only ever
	// read-locks it, so data-plane traffic does not serialize behind
	// control-plane updates.
	mu    sync.RWMutex
	rings *ring.MultiRing
	// pmap is the versioned placement map — the authority on replica
	// sets. The ring partitions' replica slices are a materialized view
	// of it for routing; every accepted delta rewrites them under mu.
	pmap    *placement.Map
	specs   map[ring.RingID]RingSpec
	ledgers map[string]*ledgerState // per hosted vnode, keyed ring/part
	rng     *rand.Rand

	// qmu guards only the per-vnode query counters, which every quorum
	// operation bumps; keeping them off mu removes the last exclusive
	// lock from the hot path.
	qmu     sync.Mutex
	queries map[string]float64 // per hosted vnode epoch query count
}

// ledgerState is a hosted vnode's economic memory.
type ledgerState struct {
	ledger economyLedger
}

// economyLedger aliases the economy ledger to keep the import local.
type economyLedger = economy.Ledger

// NewNode boots a node from the shared descriptor. The engine may be a
// fresh in-memory engine or one recovered from a WAL.
func NewNode(cfg Config, name string, tr transport.Transport, eng *store.Engine) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	selfI := -1
	for i, n := range cfg.Nodes {
		if n.Name == name {
			selfI = i
			break
		}
	}
	if selfI < 0 {
		return nil, fmt.Errorf("cluster: node %q not in descriptor", name)
	}
	rings, specs, err := buildLayout(cfg)
	if err != nil {
		return nil, err
	}
	// Seed the versioned placement map from the deterministic bootstrap
	// layout: every node derives the identical version-1 entries, so the
	// cluster starts converged without any exchange.
	pmap := placement.NewMap()
	for _, rid := range rings.IDs() {
		for _, p := range rings.Ring(rid).Partitions() {
			names := make([]string, len(p.Replicas))
			for i, id := range p.Replicas {
				names[i] = cfg.Nodes[int(id)].Name
			}
			pmap.Seed(rid, p.ID, names)
		}
	}
	suspect := cfg.SuspectAfter
	if suspect == 0 {
		suspect = 10 * time.Second
	}
	dead := cfg.DeadAfter
	if dead == 0 {
		dead = 3 * suspect
	}
	n := &Node{
		cfg:          cfg,
		self:         cfg.Nodes[selfI],
		selfI:        selfI,
		tr:           tr,
		eng:          eng,
		mt:           membership.New(memberInfoOf(cfg.Nodes[selfI]), suspect, dead),
		suspectAfter: suspect,
		deadAfter:    dead,
		Now:          time.Now,
		epochWorkers: cfg.EpochWorkers,
		ids:          make(map[string]ring.ServerID, len(cfg.Nodes)),
		trees:        make(map[placement.Key]*merkle.Incremental),
		throttle:     newRateLimiter(cfg.TransferBytesPerSec),
		chunkItems:   cfg.TransferChunkItems,
		resume:       make(map[string]string),
		rings:        rings,
		pmap:         pmap,
		specs:        specs,
		ledgers:      make(map[string]*ledgerState),
		queries:      make(map[string]float64),
		rng:          rand.New(rand.NewSource(int64(selfI) + 1)),
		trace:        NewTraceRing(cfg.Nodes[selfI].Name, cfg.TraceEvents),
		tel:          telemetry.NewRegistry(),
	}
	n.opTel = &opHists{reg: n.tel}
	if n.chunkItems <= 0 {
		n.chunkItems = defaultChunkItems
	}
	n.initResilience(cfg)
	n.rcache = newReadCache(cfg.ReadCacheEntries, cfg.ReadCacheTTL)
	n.hedge = newHedgeTracker(n.tel.Histogram("cluster_read_rtt_ns"))
	// The boot instant counts as contact: a freshly started node serves
	// lease reads until the suspicion window passes without hearing from
	// any peer (matching how descriptor peers get that same grace before
	// aging into suspicion).
	n.lastContact.Store(n.Now().UnixNano())
	// Seed the write dot past every own entry in the recovered store: a
	// restarted coordinator whose counter restarted below its stored
	// clocks could re-issue an own entry it already used, making a fresh
	// write's clock comparable-below an older one (see stampClock).
	seed := uint64(0)
	for _, sk := range eng.Keys() {
		for _, v := range eng.Get(sk) {
			if own := v.Clock.Get(name); own > seed {
				seed = own
			}
		}
	}
	n.dot.Store(seed)
	// The registry mirrors descriptor order, so the ServerIDs baked into
	// the bootstrap layout stay valid; members learned later (joiners)
	// get the next free IDs via registerName.
	for _, p := range cfg.Nodes {
		n.registerName(p.Name)
	}
	// Descriptor peers start in probation — known but unconfirmed — until
	// the first successful heartbeat exchange; a listed peer that never
	// answers ages into suspicion and death without ever having counted
	// as alive. (This replaces the old optimistic bootstrap that presumed
	// every listed peer up.)
	now := n.Now()
	for i, p := range cfg.Nodes {
		if i != selfI {
			n.mt.SeedPeer(memberInfoOf(p), now)
		}
	}
	n.initTrees()
	if err := tr.Serve(listenAddr(n.self), n.handle); err != nil {
		return nil, err
	}
	return n, nil
}

// listenAddr is the address a node binds: the optional Bind override,
// or the advertised Addr.
func listenAddr(n NodeInfo) string {
	if n.Bind != "" {
		return n.Bind
	}
	return n.Addr
}

// Name returns the node's name.
func (n *Node) Name() string { return n.self.Name }

// Engine exposes the local storage engine (read-mostly introspection).
func (n *Node) Engine() *store.Engine { return n.eng }

// Membership exposes the member table (tests and skutectl drive churn
// and inspect member states through it).
func (n *Node) Membership() *membership.Table { return n.mt }

// ConfirmPeers marks every known peer as directly confirmed. In-process
// harnesses (skute.NewCluster, tests) call it right after booting all
// nodes to skip the probation round a real deployment pays; production
// confirmation flows from successful heartbeat exchanges.
func (n *Node) ConfirmPeers() {
	now := n.Now()
	for _, m := range n.mt.Members() {
		n.mt.Confirm(m.Info.Name, now)
	}
	n.touchContact()
}

// registerName returns the node-local ServerID of a name, assigning the
// next free one on first sight.
func (n *Node) registerName(name string) ring.ServerID {
	n.nmu.Lock()
	defer n.nmu.Unlock()
	if id, ok := n.ids[name]; ok {
		return id
	}
	internMember(name)
	id := ring.ServerID(len(n.names))
	n.names = append(n.names, name)
	n.ids[name] = id
	return id
}

// info returns the cluster metadata of a named member.
func (n *Node) info(name string) (NodeInfo, bool) {
	if mi, ok := n.mt.Info(name); ok {
		return nodeInfoOf(mi), true
	}
	return NodeInfo{}, false
}

// nodeName maps a node-local ServerID back to the member name.
func (n *Node) nodeName(id ring.ServerID) string {
	n.nmu.RLock()
	defer n.nmu.RUnlock()
	if int(id) < len(n.names) {
		return n.names[int(id)]
	}
	return ""
}

// nodeID maps a name to its node-local ServerID, if one was assigned.
func (n *Node) nodeID(name string) (ring.ServerID, bool) {
	n.nmu.RLock()
	defer n.nmu.RUnlock()
	id, ok := n.ids[name]
	return id, ok
}

// alive reports liveness per the member table; a node always trusts
// itself, and probation members (never directly confirmed) count as
// down until their first successful heartbeat exchange.
func (n *Node) alive(name string) bool { return n.mt.Alive(name, n.Now()) }

// aliveNames returns the names of members (including self) currently alive.
func (n *Node) aliveNames() []string { return n.mt.AliveNames(n.Now()) }

// storageKey namespaces a user key by ring.
func storageKey(id ring.RingID, key string) string {
	return id.App + "/" + id.Class + "/" + key
}

// SendHeartbeats announces this node to every non-terminal member
// concurrently — suspects included (the beat doubles as the refutation
// probe) and probation members included (the answered beat is exactly
// what confirms them). Each beat piggybacks the sender's placement
// digest plus its own membership record and member-table digest, so
// membership spreads on the frames the cluster already exchanges. A
// peer that answers is directly confirmed; unreachable peers miss the
// beat and age toward suspicion. The fan-out runs on internal/parallel
// with one worker per peer, so one dead TCP peer burns only its own
// dial timeout, never the whole round.
func (n *Node) SendHeartbeats(ctx context.Context) {
	env := transport.Envelope{Kind: kindHeartbeat, Payload: encode(heartbeatReq{
		From:    n.self.Name,
		Digest:  n.pmap.Digest(),
		Member:  n.mt.SelfDelta(),
		MDigest: n.mt.Digest(),
	})}
	var peers []membership.Info
	for _, p := range n.mt.GossipPeers() {
		if p.Name != n.self.Name {
			peers = append(peers, p)
		}
	}
	parallel.ForEach(len(peers), len(peers), func(i int) {
		resp, err := n.tr.Call(ctx, peers[i].Addr, env)
		if err != nil {
			return
		}
		// The peer answered our beat: direct evidence it is up, which
		// ends probation even before its own beat reaches us — and
		// evidence the cluster can reach US, renewing the read lease.
		n.mt.Confirm(peers[i].Name, n.Now())
		n.touchContact()
		// The answer may echo the peer's record of US (an accusation we
		// have not heard — e.g. this node restarted after being declared
		// dead); applying it triggers the refutation path.
		var hr heartbeatResp
		if len(resp.Payload) > 0 && decode(resp.Payload, &hr) == nil && hr.Member.Info.Name != "" {
			n.applyMemberDeltas(ctx, hr.Member)
		}
		transport.RecyclePayload(resp.Payload) // decode copied it out
	})
	n.counters.HeartbeatRounds.Inc()
}

// initResilience builds the node's admission gate and per-peer circuit
// breakers from the overload knobs of its config. NewNode and JoinNode
// both run it — a joiner faces the same saturation a descriptor-booted
// node does.
func (n *Node) initResilience(cfg Config) {
	if !cfg.DisableAdmission {
		maxInflight := cfg.MaxInflight
		if maxInflight == 0 {
			maxInflight = defaultMaxInflight
		}
		// The clock indirects through n.Now so tests that override the
		// node clock drive the gate's deadline math too.
		n.gate = resilience.NewGate(maxInflight, func() time.Time { return n.Now() })
		n.gate.RegisterTelemetry(n.tel)
	}
	n.breakers = resilience.NewBreakerSet(resilience.BreakerConfig{
		Failures:  cfg.BreakerFailures,
		OpenFor:   cfg.BreakerOpenFor,
		SlowAfter: cfg.BreakerSlowAfter,
		Now:       func() time.Time { return n.Now() },
		OnTransition: func(peer string, from, to resilience.BreakerState) {
			n.counters.BreakerTransitions.Inc()
			if to == resilience.BreakerOpen {
				n.counters.BreakerOpens.Inc()
			}
			n.trace.Add("breaker", "%s: %s -> %s", peer, from, to)
		},
	})
}

// kindPriority classifies an incoming request kind for admission.
// Membership traffic (heartbeats, joins, member gossip) is Critical:
// shedding it under load would turn an overload into a false-suspicion
// cascade. Replica-level data ops (kindMultiGet/kindMultiPut) are Critical
// too — the coordinator that fanned them out already paid admission at
// the client edge, so shedding them mid-quorum would fail work the
// cluster has committed to. Background covers anti-entropy, partition
// transfer, epoch/economy and placement gossip — everything that
// retries on its own schedule. Client kinds return gated=false: the
// coordinator op they invoke runs the gate itself (so the embedded
// in-process path is covered identically and nothing is gated twice).
func kindPriority(kind string) (pri resilience.Priority, gated bool) {
	switch kind {
	case kindHeartbeat, kindJoin, kindMemberPull, kindMemberDelta,
		kindMultiGet, kindMultiPut:
		return resilience.Critical, true
	case kindLeaves, kindFetchChunk, kindAdopt, kindDelta, kindDeltaPull:
		return resilience.Background, true
	default:
		return 0, false
	}
}

// handle dispatches one incoming request. The context comes from the
// transport (the caller's own context for in-memory calls, the
// connection's lifetime for TCP) and flows into any nested quorum
// coordination this request triggers. Gated kinds pass the admission
// gate first: a node past its in-flight bound sheds background work
// with ErrOverloaded instead of queueing it (client kinds are admitted
// inside the coordinator ops, see kindPriority).
func (n *Node) handle(ctx context.Context, req transport.Envelope) (transport.Envelope, error) {
	if pri, gated := kindPriority(req.Kind); gated {
		release, err := n.gate.Enter(ctx, pri)
		if err != nil {
			return transport.Envelope{}, err
		}
		defer release()
	}
	switch req.Kind {
	case kindHeartbeat:
		var hb heartbeatReq
		if err := decode(req.Payload, &hb); err != nil {
			return transport.Envelope{}, err
		}
		// The piggybacked self record first: a fresh joiner's beat may be
		// the first time we hear its name at all, and a refuting member's
		// bumped incarnation must land before liveness is judged.
		n.applyMemberDeltas(ctx, hb.Member)
		n.mt.Confirm(hb.From, n.Now())
		n.touchContact()
		// Digest mismatch: the sender's placement view differs from
		// ours, so pull its deltas right away. Last-writer-wins keeps
		// the merge safe in both directions; if WE hold the newer
		// entries, the sender converges when our own next heartbeat
		// reaches it.
		if dg := n.pmap.Digest(); len(dg.Mismatch(hb.Digest)) > 0 {
			_, _ = n.reconcileWith(ctx, hb.From, dg) // best effort; the next beat retries
		}
		// Same exchange for the member table: a digest mismatch pulls the
		// sender's full member list (anti-entropy for membership).
		if hb.MDigest != n.mt.Digest() {
			_ = n.pullMembers(ctx, hb.From)
		}
		// Echo our record of the sender when it supersedes the beat's
		// self record — the only channel an accusation has back to the
		// accused (see heartbeatResp.Member).
		var hr heartbeatResp
		if m, ok := n.mt.Get(hb.From); ok &&
			(m.State != membership.Alive || m.Incarnation > hb.Member.Incarnation) {
			hr.Member = m.Delta
		}
		return transport.Envelope{Kind: "ok", Payload: encode(hr)}, nil

	case kindJoin:
		var j joinReq
		if err := decode(req.Payload, &j); err != nil {
			return transport.Envelope{}, err
		}
		return n.handleJoin(ctx, j)

	case kindMemberPull:
		var mp memberPullReq
		if err := decode(req.Payload, &mp); err != nil {
			return transport.Envelope{}, err
		}
		var resp memberPullResp
		if mp.Digest != n.mt.Digest() {
			resp.Deltas = n.mt.Deltas()
		}
		return transport.Envelope{Kind: "ok", Payload: encode(resp)}, nil

	case kindMemberDelta:
		var md memberDeltaReq
		if err := decode(req.Payload, &md); err != nil {
			return transport.Envelope{}, err
		}
		n.applyMemberDeltas(ctx, md.Deltas...)
		return transport.Envelope{Kind: "ok"}, nil

	case kindClientMembers:
		now := n.Now()
		members := n.mt.Members()
		resp := clientMembersResp{Members: make([]MemberRecord, 0, len(members))}
		for _, m := range members {
			rec := MemberRecord{
				Name:        m.Info.Name,
				Addr:        m.Info.Addr,
				State:       m.State.String(),
				Incarnation: m.Incarnation,
				Confirmed:   m.Confirmed,
			}
			if m.Probation() {
				rec.State = "probation"
			}
			if !m.LastHeard.IsZero() {
				rec.AgeMillis = now.Sub(m.LastHeard).Milliseconds()
			}
			resp.Members = append(resp.Members, rec)
		}
		return transport.Envelope{Kind: "ok", Payload: encode(resp)}, nil

	case kindMultiGet:
		var m multiGetReq
		if err := decode(req.Payload, &m); err != nil {
			return transport.Envelope{}, err
		}
		resp := multiGetResp{Items: make([]kv, len(m.Keys))}
		for i, k := range m.Keys {
			resp.Items[i] = kv{Key: k, Versions: n.eng.Get(storageKey(m.Ring, k))}
		}
		return transport.Envelope{Kind: "ok", Payload: encode(resp)}, nil

	case kindMultiPut:
		var m multiPutReq
		if err := decode(req.Payload, &m); err != nil {
			return transport.Envelope{}, err
		}
		if _, err := n.eng.PutBatch(storeItems(m.Ring, m.Items, false)); err != nil {
			return transport.Envelope{}, err
		}
		return transport.Envelope{Kind: "ok"}, nil

	case kindLeaves:
		var l leavesReq
		if err := decode(req.Payload, &l); err != nil {
			return transport.Envelope{}, err
		}
		return n.handleLeaves(l)

	case kindFetchChunk:
		var f fetchChunkReq
		if err := decode(req.Payload, &f); err != nil {
			return transport.Envelope{}, err
		}
		return n.handleFetchChunk(ctx, f)

	case kindAdopt:
		var a adoptReq
		if err := decode(req.Payload, &a); err != nil {
			return transport.Envelope{}, err
		}
		return n.handleAdopt(ctx, a)

	case kindDelta:
		var dr deltaReq
		if err := decode(req.Payload, &dr); err != nil {
			return transport.Envelope{}, err
		}
		n.applyDeltas(dr.Deltas)
		return transport.Envelope{Kind: "ok"}, nil

	case kindDeltaPull:
		var pq deltaPullReq
		if err := decode(req.Payload, &pq); err != nil {
			return transport.Envelope{}, err
		}
		var resp deltaPullResp
		// Deltas() with no ring filter would export everything; an
		// empty mismatch must answer with nothing instead.
		if mismatched := n.pmap.Digest().Mismatch(pq.Digest); len(mismatched) > 0 {
			resp.Deltas = n.pmap.Deltas(mismatched...)
		}
		return transport.Envelope{Kind: "ok", Payload: encode(resp)}, nil

	case kindClientGet:
		var g clientGetReq
		if err := decode(req.Payload, &g); err != nil {
			return transport.Envelope{}, err
		}
		cctx, cancel := withTimeout(ctx, g.Timeout)
		defer cancel()
		res, err := n.Get(cctx, g.Ring, g.Key, ReadOptions{Consistency: g.Consistency})
		if err != nil {
			return transport.Envelope{}, err
		}
		return transport.Envelope{Kind: "ok", Payload: encode(clientGetResp{
			Values:  res.Values,
			Context: res.Context,
		})}, nil

	case kindClientPut, kindClientDel:
		var p clientPutReq
		if err := decode(req.Payload, &p); err != nil {
			return transport.Envelope{}, err
		}
		cctx, cancel := withTimeout(ctx, p.Timeout)
		defer cancel()
		opts := WriteOptions{Consistency: p.Consistency}
		var err error
		if req.Kind == kindClientDel || p.Delete {
			err = n.Delete(cctx, p.Ring, p.Key, p.Context, opts)
		} else {
			err = n.Put(cctx, p.Ring, p.Key, p.Value, p.Context, opts)
		}
		if err != nil {
			return transport.Envelope{}, err
		}
		return transport.Envelope{Kind: "ok"}, nil

	case kindClientMGet:
		var g clientMGetReq
		if err := decode(req.Payload, &g); err != nil {
			return transport.Envelope{}, err
		}
		cctx, cancel := withTimeout(ctx, g.Timeout)
		defer cancel()
		res, err := n.MultiGet(cctx, g.Ring, g.Keys, ReadOptions{Consistency: g.Consistency})
		if err != nil {
			return transport.Envelope{}, err
		}
		resp := clientMGetResp{Items: make([]clientKV, 0, len(res))}
		for k, r := range res {
			resp.Items = append(resp.Items, clientKV{Key: k, Values: r.Values, Context: r.Context})
		}
		return transport.Envelope{Kind: "ok", Payload: encode(resp)}, nil

	case kindClientMPut:
		var p clientMPutReq
		if err := decode(req.Payload, &p); err != nil {
			return transport.Envelope{}, err
		}
		cctx, cancel := withTimeout(ctx, p.Timeout)
		defer cancel()
		if err := n.MultiPut(cctx, p.Ring, p.Entries, WriteOptions{Consistency: p.Consistency}); err != nil {
			return transport.Envelope{}, err
		}
		return transport.Envelope{Kind: "ok"}, nil

	default:
		return transport.Envelope{}, fmt.Errorf("cluster: unknown message kind %q", req.Kind)
	}
}

// partition returns the ring and partition for a ring id + partition id.
func (n *Node) partition(id ring.RingID, part int) (*ring.Ring, *ring.Partition, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	r := n.rings.Ring(id)
	if r == nil {
		return nil, nil, fmt.Errorf("%w %s", ErrUnknownRing, id)
	}
	p := r.Get(part)
	if p == nil {
		return nil, nil, fmt.Errorf("cluster: ring %s has no partition %d", id, part)
	}
	return r, p, nil
}

// replicasOf snapshots the replica names of a partition.
func (n *Node) replicasOf(p *ring.Partition) []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, len(p.Replicas))
	for i, id := range p.Replicas {
		out[i] = n.nodeName(id)
	}
	return out
}

// materializeLocked rewrites the routing ring's replica view from an
// accepted placement entry. Callers hold n.mu. It reports whether this
// node just lost its own replica of the partition (the caller must then
// drop the partition's data, outside the lock).
func (n *Node) materializeLocked(d placement.Delta) (lostSelf bool) {
	r := n.rings.Ring(d.Ring)
	if r == nil {
		return false
	}
	p := r.Get(d.Part)
	if p == nil {
		return false
	}
	self := ring.ServerID(n.selfI)
	had := p.HasReplica(self)
	ids := make([]ring.ServerID, 0, len(d.Replicas))
	for _, name := range d.Replicas {
		// Replica names may precede their member records here (a
		// placement delta racing the membership gossip); registering on
		// sight keeps the routing view complete either way.
		ids = append(ids, n.registerName(name))
	}
	p.SetReplicas(ids)
	if had && !p.HasReplica(self) {
		delete(n.ledgers, vnodeKey(d.Ring, d.Part))
		return true
	}
	return false
}

// applyDeltas merges versioned placement deltas received from peers:
// last-writer-wins in the placement map, accepted entries materialized
// into the routing view, stale ones counted and rejected. A delta that
// evicts this node's own replica also drops the partition's local data
// — the isolated-during-a-migration node cleans itself up when it
// catches back up. It returns the number of deltas applied.
func (n *Node) applyDeltas(ds []placement.Delta) int {
	applied := 0
	var drops []placement.Delta
	n.mu.Lock()
	for _, d := range ds {
		switch n.pmap.Apply(d) {
		case placement.Applied:
			applied++
			n.counters.DeltasApplied.Inc()
			n.trace.Add("placement", "apply %s", d)
			if n.materializeLocked(d) {
				drops = append(drops, d)
				n.trace.Add("placement", "evicted self from %s#%d, dropping data", d.Ring, d.Part)
			}
		case placement.Stale:
			n.counters.DeltasStale.Inc()
		case placement.Duplicate:
			// Idempotent redelivery (a gossip pull usually re-sends a
			// whole ring); neither applied nor stale.
		}
	}
	n.mu.Unlock()
	if len(drops) > 0 {
		// Drain before dropping: the evicted copy may hold the only
		// replicas of writes this node acknowledged while its placement
		// view was stale — a freshly revived node coordinates with its
		// pre-death map and counts its own doomed copy toward the write
		// quorum until the catch-up lands. Deleting without a final
		// Merkle push to the surviving replicas would lose those
		// acknowledged writes globally.
		ctx, cancel := context.WithTimeout(context.Background(), evictDrainTimeout)
		defer cancel()
		for _, d := range drops {
			n.handoffSync(ctx, d.Ring, d.Part)
			n.dropPartitionData(d.Ring, d.Part)
		}
	}
	return applied
}

// evictDrainTimeout bounds the pre-drop Merkle drain of a self-evicting
// node across all partitions it just lost: long enough to push a few
// partitions of divergent keys, short enough that a rejoin catching up
// against unreachable peers cannot wedge the delta handler.
const evictDrainTimeout = 10 * time.Second

// propose stamps a replica-set change decided locally (adopt target,
// drop self, …) into the placement map — version bumped, this node as
// origin — and materializes it. The returned delta must be handed to
// disseminate; ok is false when the partition is unknown or the change
// is a no-op.
func (n *Node) propose(id ring.RingID, part int, add, remove string) (placement.Delta, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	e, ok := n.pmap.Get(id, part)
	if !ok {
		return placement.Delta{}, false
	}
	replicas := make([]string, 0, len(e.Replicas)+1)
	for _, name := range e.Replicas {
		if name != remove {
			replicas = append(replicas, name)
		}
	}
	changed := len(replicas) != len(e.Replicas)
	if add != "" {
		present := false
		for _, name := range replicas {
			if name == add {
				present = true
				break
			}
		}
		if !present {
			replicas = append(replicas, add)
			changed = true
		}
	}
	if !changed {
		return placement.Delta{}, false
	}
	// Never stamp an empty replica set: a suicide racing another
	// removal (the lone-replica check reads the materialized view
	// before this re-read of the authoritative entry) must become a
	// no-op here, or the partition would converge to zero replicas —
	// unreachable and unrepairable, since only hosting vnodes decide.
	if len(replicas) == 0 {
		return placement.Delta{}, false
	}
	d := n.pmap.Propose(id, part, n.self.Name, replicas)
	n.materializeLocked(d)
	n.trace.Add("propose", "%s (add=%q remove=%q)", d, add, remove)
	return d, true
}

// dropIfEvicted deletes the partition's local data only if, after a
// dissemination round, the merged placement entry still excludes this
// node. A migrating or suiciding replica calls this AFTER disseminate:
// if a concurrent proposal from another node won the last-writer-wins
// merge and kept this node in the set (two replicas suiciding at once
// being the fatal case — both removal deltas cross during the pushes
// and exactly one loses), the data is preserved on the node the
// converged set still lists, so no partition ends up with every listed
// replica empty. A push that never reached the concurrent proposer
// leaves a gossip-latency window, the price of an eventually
// consistent control plane; anti-entropy and read repair refill a
// transiently empty re-added copy.
func (n *Node) dropIfEvicted(id ring.RingID, part int) {
	if e, ok := n.pmap.Get(id, part); ok {
		for _, r := range e.Replicas {
			if r == n.self.Name {
				return
			}
		}
	}
	n.dropPartitionData(id, part)
}

// disseminate pushes freshly proposed deltas to every alive peer
// concurrently, best effort: a peer that misses the push converges
// through the digest exchange riding the next heartbeats. Unlike the
// old unversioned assign broadcast, a late or reordered arrival cannot
// resurrect a superseded replica set — the version stamps reject it.
func (n *Node) disseminate(ctx context.Context, ds ...placement.Delta) {
	if len(ds) == 0 {
		return
	}
	env := transport.Envelope{Kind: kindDelta, Payload: encode(deltaReq{Deltas: ds})}
	var addrs []string
	for _, p := range n.mt.GossipPeers() {
		if n.alive(p.Name) {
			addrs = append(addrs, p.Addr)
		}
	}
	parallel.ForEach(len(addrs), len(addrs), func(i int) {
		_, _ = n.tr.Call(ctx, addrs[i], env)
	})
}

// reconcileWith pulls the named peer's placement entries for every ring
// whose fingerprint differs from digest (this node's own, computed by
// the caller) and merges them — one round of control-plane
// anti-entropy. It returns the number of deltas applied.
func (n *Node) reconcileWith(ctx context.Context, peer string, digest placement.Digest) (int, error) {
	info, ok := n.info(peer)
	if !ok {
		return 0, fmt.Errorf("cluster: unknown peer %q", peer)
	}
	resp, err := n.tr.Call(ctx, info.Addr, transport.Envelope{
		Kind:    kindDeltaPull,
		Payload: encode(deltaPullReq{Digest: digest}),
	})
	if err != nil {
		return 0, err
	}
	var pr deltaPullResp
	if err := decode(resp.Payload, &pr); err != nil {
		return 0, err
	}
	n.counters.ReconcileRounds.Inc()
	return n.applyDeltas(pr.Deltas), nil
}

// PlacementEntry exposes the versioned placement entry of a partition —
// observability for tests and debugging.
func (n *Node) PlacementEntry(id ring.RingID, part int) (placement.Entry, bool) {
	return n.pmap.Get(id, part)
}

// keysOfPartition lists local storage keys belonging to the partition.
func (n *Node) keysOfPartition(id ring.RingID, part int) []string {
	_, p, err := n.partition(id, part)
	if err != nil {
		return nil
	}
	prefix := id.App + "/" + id.Class + "/"
	var out []string
	for _, sk := range n.eng.Keys() {
		if len(sk) <= len(prefix) || sk[:len(prefix)] != prefix {
			continue
		}
		user := sk[len(prefix):]
		if p.Contains(ring.HashKey(user)) {
			out = append(out, sk)
		}
	}
	return out
}

// dropPartitionData removes the local data of a partition.
func (n *Node) dropPartitionData(id ring.RingID, part int) {
	for _, sk := range n.keysOfPartition(id, part) {
		_, _ = n.eng.Drop(sk)
	}
}
