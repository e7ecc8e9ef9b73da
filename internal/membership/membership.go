// Package membership implements the SWIM-style dynamic member table of
// the Skute prototype: who is in the cluster, where they listen, and
// how alive they currently look.
//
// Unlike the boot-time descriptor it replaces, the table is a gossiped,
// monotonically converging data structure. Every member record carries
// an incarnation number stamped only by the member itself; state
// changes merge under the SWIM precedence order — a higher incarnation
// always wins, and at equal incarnations the "worse" state wins
// (alive < suspect < left < dead) — so every node resolves concurrent
// observations to the same record without coordination. A member that
// sees itself suspected or declared dead refutes by bumping its own
// incarnation, which supersedes the accusation everywhere it gossips.
//
// Liveness has two layers. The gossiped State is the cluster-wide
// verdict (alive, suspect, dead, left). Locally, each node also tracks
// whether it has *direct* evidence of a peer — a heartbeat received or
// an RPC answered. A member known only through gossip (or the boot
// list) sits in probation: its State is Alive but Alive() reports
// false, so it attracts no quorum or standby traffic until the first
// successful heartbeat exchange proves the process is actually up.
//
// Dissemination mirrors internal/placement: heartbeats piggyback the
// sender's own record plus a table digest, and a digest mismatch
// triggers a full delta pull — anti-entropy for the member list.
package membership

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"skute/internal/topology"
)

// State is the gossiped liveness verdict of a member.
type State uint8

const (
	// Alive: the member is (believed) up. Whether it serves traffic
	// locally additionally requires direct confirmation (see Member.
	// Confirmed).
	Alive State = iota
	// Suspect: heartbeats stale past the suspicion timeout; the member
	// gets a grace window to refute before it is declared dead.
	Suspect
	// Left: the member departed gracefully (drained and announced).
	Left
	// Dead: the member failed to refute suspicion in time (or a peer
	// declared it failed). Its partitions are re-placed by the economy.
	Dead
)

// String names the state.
func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Left:
		return "left"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// precedence orders states at equal incarnation: the worse verdict
// wins, so a death cannot be undone without a fresh incarnation.
func (s State) precedence() int { return int(s) }

// Info is the gossiped metadata of one member — everything a peer needs
// to route to it, price it and place replicas on it. It travels inside
// every member delta, so a node joined via one seed learns the full
// descriptor of every peer without a shared boot file.
type Info struct {
	Name        string
	Addr        string
	LocPath     string
	Confidence  float64
	MonthlyRent float64
	// Capacity is the storage capacity in bytes (rent storage term).
	Capacity int64
	// QueryCapacity is the per-epoch query capacity (rent load term).
	QueryCapacity float64
}

// Validate rejects metadata the placement machinery cannot use.
func (i Info) Validate() error {
	if i.Name == "" || i.Addr == "" {
		return fmt.Errorf("membership: member needs a name and an address")
	}
	if _, err := topology.ParsePath(i.LocPath); err != nil {
		return fmt.Errorf("membership: member %s: %w", i.Name, err)
	}
	if i.Confidence < 0 || i.Confidence > 1 {
		return fmt.Errorf("membership: member %s confidence %v outside [0,1]", i.Name, i.Confidence)
	}
	if i.MonthlyRent <= 0 || i.Capacity <= 0 || i.QueryCapacity <= 0 {
		return fmt.Errorf("membership: member %s needs positive rent, capacity and query capacity", i.Name)
	}
	return nil
}

// Delta is one member record as it travels between nodes. Like a
// placement delta it is a full record, not an increment: applying it is
// idempotent and order-independent under the precedence merge.
type Delta struct {
	Info        Info
	State       State
	Incarnation uint64
	// Rent is the member's last announced virtual rent (Eq. 1), stamped
	// by the member itself with RentSeq; RentSeq 0 means no rent yet.
	Rent    float64
	RentSeq uint64
}

// supersedes reports whether the delta wins over the current record.
func (d Delta) supersedes(state State, inc uint64) bool {
	if d.Incarnation != inc {
		return d.Incarnation > inc
	}
	return d.State.precedence() > state.precedence()
}

// newerRent reports whether the delta carries a rent fresher than m's:
// a higher (Incarnation, RentSeq) pair. A record without a rent never
// wins, so a suspicion or death record cannot reset a stored rent.
func (d Delta) newerRent(m *Member) bool {
	if d.RentSeq == 0 || d.Incarnation < m.Incarnation {
		return false
	}
	return d.Incarnation > m.Incarnation || d.RentSeq > m.RentSeq
}

// Member is one entry of the table as seen locally: the gossiped record
// plus this node's direct-contact evidence. Every record the table sends
// out is a member's Delta.
type Member struct {
	Delta
	// Confirmed reports direct contact: this node has exchanged a
	// heartbeat (or any RPC) with the member. An unconfirmed Alive
	// member is in probation and does not serve traffic from here.
	Confirmed bool
	// LastHeard is the local time of the freshest liveness evidence
	// (direct contact, or record arrival for unconfirmed members).
	LastHeard time.Time
}

// Probation reports whether the member is alive-but-unconfirmed.
func (m Member) Probation() bool { return m.State == Alive && !m.Confirmed }

// Outcome classifies one Apply.
type Outcome int

const (
	// Applied: the delta won the precedence merge and replaced the record.
	Applied Outcome = iota
	// Duplicate: the delta carries exactly the current stamp.
	Duplicate
	// Stale: the delta lost the merge.
	Stale
	// Refuted: the delta accused this node itself of being suspect or
	// dead; the table bumped its own incarnation past the accusation.
	// The caller should gossip the refreshed self record.
	Refuted
	// Rejected: the delta's metadata failed validation.
	Rejected
	// RentUpdated: only the delta's rent won; its state lost or repeated.
	RentUpdated
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Applied:
		return "applied"
	case Duplicate:
		return "duplicate"
	case Stale:
		return "stale"
	case Refuted:
		return "refuted"
	case Rejected:
		return "rejected"
	case RentUpdated:
		return "rent-updated"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Table is one node's view of the cluster membership, safe for
// concurrent use. The node's own record is special: only the table
// owner ever bumps its incarnation (join, refutation, graceful leave).
type Table struct {
	mu      sync.RWMutex
	self    string
	members map[string]*Member
	// suspectAfter is how long a confirmed member may stay silent
	// before Tick suspects it; deadAfter is the additional refutation
	// grace before a suspect is declared dead.
	suspectAfter time.Duration
	deadAfter    time.Duration
	// manual stops the clock: while set, no member ages into suspicion,
	// so liveness changes only through Apply, Confirm, Fail, Revive and
	// Leave.
	manual atomic.Bool
	// digest caches the gossiped-state fingerprint between mutations.
	digest   uint64
	digestOK bool
}

// New returns a table whose only entry is the owner itself: alive,
// confirmed, incarnation 1.
func New(self Info, suspectAfter, deadAfter time.Duration) *Table {
	if suspectAfter <= 0 {
		suspectAfter = 10 * time.Second
	}
	if deadAfter <= 0 {
		deadAfter = 3 * suspectAfter
	}
	t := &Table{
		self:         self.Name,
		members:      make(map[string]*Member),
		suspectAfter: suspectAfter,
		deadAfter:    deadAfter,
	}
	t.members[self.Name] = &Member{Delta: Delta{Info: self, State: Alive, Incarnation: 1}, Confirmed: true}
	return t
}

// SetManual turns the clock-driven failure detector off (manual) or
// back on. Turning it on restarts every member's silence window at now,
// so time spent in manual mode never counts as silence.
func (t *Table) SetManual(manual bool, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.manual.Load() && !manual {
		for _, m := range t.members {
			if now.After(m.LastHeard) {
				m.LastHeard = now
			}
		}
	}
	t.manual.Store(manual)
}

// Manual reports whether the clock-driven failure detector is off.
func (t *Table) Manual() bool { return t.manual.Load() }

// Self returns the owner's name.
func (t *Table) Self() string { return t.self }

// SeedPeer installs a boot-descriptor peer: alive at incarnation 1 but
// UNCONFIRMED — probation until the first successful heartbeat
// exchange, so a just-booted node does not route traffic to peers that
// may never have started.
func (t *Table) SeedPeer(info Info, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.members[info.Name]; ok {
		return
	}
	t.members[info.Name] = &Member{Delta: Delta{Info: info, State: Alive, Incarnation: 1}, LastHeard: at}
	t.digestOK = false
}

// Apply merges one gossiped record. A record accusing the owner itself
// of suspicion or death is refuted: the owner's incarnation jumps past
// the accusation and the outcome tells the caller to spread the
// refreshed self record.
func (t *Table) Apply(d Delta, at time.Time) Outcome {
	if err := d.Info.Validate(); err != nil {
		return Rejected
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur, ok := t.members[d.Info.Name]
	if d.Info.Name == t.self {
		// Only the owner stamps its own record — with one exception: a
		// join response hands the joiner its server-assigned fresh
		// incarnation, which must land for a rejoin to supersede the
		// old death record everywhere.
		if d.State == Alive && d.Incarnation > cur.Incarnation {
			cur.Incarnation = d.Incarnation
			cur.State = Alive
			t.digestOK = false
			return Applied
		}
		if d.State != Alive && d.Incarnation >= cur.Incarnation {
			cur.Incarnation = d.Incarnation + 1
			cur.State = Alive
			t.digestOK = false
			return Refuted
		}
		return Stale
	}
	if !ok {
		t.members[d.Info.Name] = &Member{Delta: d, LastHeard: at}
		t.digestOK = false
		return Applied
	}
	// The rent merges on its own (Incarnation, RentSeq) order, so a
	// fresh rent lands even when the record's state loses or repeats.
	rent := d.newerRent(cur)
	if rent {
		cur.Rent, cur.RentSeq = d.Rent, d.RentSeq
	}
	if !d.supersedes(cur.State, cur.Incarnation) {
		switch {
		case rent:
			return RentUpdated
		case d.Incarnation == cur.Incarnation && d.State == cur.State && d.RentSeq == cur.RentSeq:
			return Duplicate
		}
		return Stale
	}
	cur.Info = d.Info
	cur.Incarnation = d.Incarnation
	// A record that resurrects the member (fresh incarnation, alive)
	// resets direct-contact evidence: the rejoined process must prove
	// itself again before it attracts traffic from here.
	if d.State == Alive && cur.State != Alive {
		cur.Confirmed = false
		cur.LastHeard = at
	}
	cur.State = d.State
	t.digestOK = false
	return Applied
}

// Confirm records direct contact with a member: a heartbeat received
// from it, or an RPC it answered. Confirmation ends probation and, for
// a locally suspected member, restores Alive at the same incarnation
// (the gossip layer converges the cluster-wide verdict; fresh direct
// evidence always trumps a stale local suspicion). Dead and Left stay
// terminal — only a fresh incarnation (rejoin) undoes them.
func (t *Table) Confirm(name string, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.members[name]
	if !ok || m.State == Dead || m.State == Left {
		return
	}
	if m.State == Suspect {
		m.State = Alive
		t.digestOK = false
	}
	m.Confirmed = true
	if at.After(m.LastHeard) {
		m.LastHeard = at
	}
}

// Fail force-marks a member dead at its current incarnation — the
// explicit churn-injection path (skute.Cluster.FailServer); the organic
// path is Tick's alive→suspect→dead progression.
func (t *Table) Fail(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.members[name]
	if !ok || name == t.self || m.State == Dead || m.State == Left {
		return
	}
	m.State = Dead
	t.digestOK = false
}

// Revive force-marks a member alive and confirmed at a fresh
// incarnation — the counterpart of Fail for scripted churn. Every peer
// applying the same revival computes the same incarnation, so the
// records converge.
func (t *Table) Revive(name string, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.members[name]
	if !ok {
		return
	}
	if m.State != Alive {
		m.State = Alive
		m.Incarnation++
	}
	m.Confirmed = true
	if at.After(m.LastHeard) {
		m.LastHeard = at
	}
	t.digestOK = false
}

// Leave marks the owner as gracefully departed and returns the record
// to gossip on the way out.
func (t *Table) Leave() Delta {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.members[t.self]
	m.Incarnation++
	m.State = Left
	t.digestOK = false
	return m.Delta
}

// StampRent records the owner's freshly computed rent and returns the
// refreshed self record to gossip. The stamp is above every earlier one
// and at least the wall clock in Unix nanoseconds, so a process
// restarted at the same incarnation still outbids the rents it
// announced before the restart.
func (t *Table) StampRent(rent float64, now time.Time) Delta {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.members[t.self]
	m.Rent, m.RentSeq = rent, m.RentSeq+1
	if ns := now.UnixNano(); ns > 0 && uint64(ns) > m.RentSeq {
		m.RentSeq = uint64(ns)
	}
	return m.Delta
}

// Tick advances the local failure detector: confirmed members silent
// past the suspicion timeout become Suspect; suspects silent past the
// additional grace become Dead. Members still in probation follow the
// same clock — a peer that never confirmed within the windows is
// suspected and then declared dead, so a node that died right after
// joining is still evicted. It returns the records that changed, for
// the caller to gossip and act on (eviction).
func (t *Table) Tick(now time.Time) (suspects, deads []Delta) {
	if t.manual.Load() {
		return nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, m := range t.members {
		if name == t.self {
			continue
		}
		switch m.State {
		case Alive:
			if now.Sub(m.LastHeard) > t.suspectAfter {
				m.State = Suspect
				t.digestOK = false
				suspects = append(suspects, m.Delta)
			}
		case Suspect:
			if now.Sub(m.LastHeard) > t.suspectAfter+t.deadAfter {
				m.State = Dead
				t.digestOK = false
				deads = append(deads, m.Delta)
			}
		}
	}
	return suspects, deads
}

// Alive reports whether the member currently serves traffic from this
// node's point of view: gossip-alive, directly confirmed, and fresh.
// The owner always trusts itself.
func (t *Table) Alive(name string, now time.Time) bool {
	if name == t.self {
		return true
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	m, ok := t.members[name]
	return ok && t.serving(m, now)
}

// serving reports whether a peer's record counts as alive at now; the
// caller holds t.mu.
func (t *Table) serving(m *Member, now time.Time) bool {
	return m.State == Alive && m.Confirmed && (t.manual.Load() || now.Sub(m.LastHeard) <= t.suspectAfter)
}

// Info returns the member's metadata.
func (t *Table) Info(name string) (Info, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	m, ok := t.members[name]
	if !ok {
		return Info{}, false
	}
	return m.Info, true
}

// Get returns the member's full local record.
func (t *Table) Get(name string) (Member, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	m, ok := t.members[name]
	if !ok {
		return Member{}, false
	}
	return *m, true
}

// AliveNames returns the names currently alive (owner included), sorted.
func (t *Table) AliveNames(now time.Time) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []string
	for name, m := range t.members {
		if name == t.self || t.serving(m, now) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// GossipPeers returns the metadata of every non-terminal peer — the
// heartbeat fan-out targets. Suspects are included (the beat doubles as
// the refutation probe) and so are probation members (the beat is
// exactly what confirms them); Dead and Left are not contacted.
func (t *Table) GossipPeers() []Info {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Info, 0, len(t.members))
	for name, m := range t.members {
		if name == t.self || m.State == Dead || m.State == Left {
			continue
		}
		out = append(out, m.Info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Members returns a snapshot of every record, sorted by name.
func (t *Table) Members() []Member {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Member, 0, len(t.members))
	for _, m := range t.members {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Info.Name < out[j].Info.Name })
	return out
}

// SelfDelta returns the owner's current record for piggybacking on
// heartbeats.
func (t *Table) SelfDelta() Delta {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.members[t.self].Delta
}

// Deltas exports every record (gossiped fields only), sorted by name —
// the payload of a digest-mismatch pull and of a join response.
func (t *Table) Deltas() []Delta {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Delta, 0, len(t.members))
	for _, m := range t.members {
		out = append(out, m.Delta)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Info.Name < out[j].Info.Name })
	return out
}

// Digest fingerprints the gossiped state of the table: every (name,
// state, incarnation, addr) folds into one 64-bit hash in name order.
// Local-only fields (confirmation, last-heard) are excluded, so two
// nodes with the same cluster-wide view agree byte-for-byte. Rents are
// excluded too: every member's own beats carry its rent to each peer,
// and a rent in the digest would set off member pulls every epoch. The
// result is cached between mutations.
func (t *Table) Digest() uint64 {
	t.mu.RLock()
	if t.digestOK {
		d := t.digest
		t.mu.RUnlock()
		return d
	}
	t.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.digestOK {
		return t.digest
	}
	names := make([]string, 0, len(t.members))
	for name := range t.members {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, name := range names {
		m := t.members[name]
		fmt.Fprintf(h, "%s:%d:%d:%s;", name, m.State, m.Incarnation, m.Info.Addr)
	}
	t.digest = h.Sum64()
	t.digestOK = true
	return t.digest
}

// Len returns the number of records (terminal states included).
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.members)
}
