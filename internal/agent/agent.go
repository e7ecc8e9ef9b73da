// Package agent implements the heart of Skute: the autonomous virtual-node
// optimizer of Section II-C. One agent exists per replica of each data
// partition; at the end of every epoch it decides — with no global
// coordination — whether to replicate, migrate, suicide (delete its
// replica) or do nothing, based on the partition's estimated availability
// and its own economic balance.
//
// The agent is a pure decision function: the surrounding environment (the
// simulator, or a live cluster) gathers the Inputs, executes the returned
// Decision and owns all side effects. That keeps the decision logic
// independently testable and reusable between the simulation and the
// prototype store.
package agent

import (
	"fmt"

	"skute/internal/availability"
	"skute/internal/economy"
	"skute/internal/ring"
)

// Action enumerates what a virtual node can do with its replica at an
// epoch boundary.
type Action int

// Possible actions, in the paper's terminology.
const (
	Hold Action = iota // keep the replica where it is
	Replicate
	Migrate
	Suicide
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case Hold:
		return "hold"
	case Replicate:
		return "replicate"
	case Migrate:
		return "migrate"
	case Suicide:
		return "suicide"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Decision is the agent's verdict for one epoch. Target is meaningful for
// Replicate and Migrate. Balance reports the epoch's net benefit (Eq. 5)
// after the utility floor, for observability.
type Decision struct {
	Action  Action
	Target  ring.ServerID
	Balance float64
}

// Params are the fixed knobs of the decision process.
type Params struct {
	// F is the hysteresis window: a node must run a negative (positive)
	// balance for F consecutive epochs before it may migrate/suicide
	// (replicate for profit).
	F int
	// Utility converts query traffic to money.
	Utility economy.UtilityParams
	// ReplicationSurplus is the factor by which the node's utility must
	// exceed the candidate's rent plus the consistency cost before a
	// profit-driven replication is allowed (>= 1; the "enough popularity
	// to compensate" test of Section II-C).
	ReplicationSurplus float64
	// EvictionPressure is the storage usage of the node's own server
	// beyond which it migrates immediately, bypassing the F-epoch
	// hysteresis (0 disables). It is the emergency end of Eq. 1's
	// storage-pressure signal: without it, a server absorbing a hot
	// partition's inserts fills faster than the deficit hysteresis can
	// react, and inserts start failing long before the cloud is full.
	EvictionPressure float64
	// NoUtilityFloor disables the anti-churn floor that clamps a node's
	// utility at the board's cheapest rent. Only the "ablation-floor"
	// experiment sets this; the paper's system always floors.
	NoUtilityFloor bool
}

// DefaultParams mirror the simulation configuration: a 3-epoch
// hysteresis, a 1.5x surplus requirement and emergency eviction at 92%
// local storage usage.
func DefaultParams() Params {
	return Params{F: 3, Utility: economy.DefaultUtilityParams(), ReplicationSurplus: 1.5, EvictionPressure: 0.92}
}

// Validate reports an error for unusable parameters.
func (p Params) Validate() error {
	if p.F < 1 {
		return fmt.Errorf("agent: hysteresis F must be >= 1, got %d", p.F)
	}
	if p.ReplicationSurplus < 1 {
		return fmt.Errorf("agent: replication surplus must be >= 1, got %v", p.ReplicationSurplus)
	}
	if p.Utility.ValuePerQuery <= 0 {
		return fmt.Errorf("agent: value per query must be positive, got %v", p.Utility.ValuePerQuery)
	}
	if p.EvictionPressure < 0 || p.EvictionPressure > 1 {
		return fmt.Errorf("agent: eviction pressure %v outside [0,1]", p.EvictionPressure)
	}
	return nil
}

// Inputs is everything the agent observes at an epoch boundary. The
// environment fills it from the board, the ring metadata and its own
// accounting; no field requires global coordination (hosts and candidates
// come from the partition's replica metadata and the rent board).
type Inputs struct {
	// Threshold is the minimum availability the partition's ring promises.
	Threshold float64
	// Hosts is the partition's current replica set, including this node.
	Hosts []availability.Host
	// Candidates are the epoch's possible targets of a new replica: the
	// alive servers on the board, in server-ID order. Rent and G must be
	// filled by the environment.
	Candidates []availability.Candidate
	// Admit narrows Candidates to the servers able to receive this
	// replica right now (not already hosting the partition, with storage
	// room and transfer budget). The agent calls it only while it places
	// a replica, never for a Hold; nil admits every candidate.
	Admit func(ring.ServerID) bool
	// Queries is the query traffic this replica served during the epoch.
	Queries float64
	// StoragePressure is the storage usage fraction of this replica's own
	// server, for the emergency-eviction check.
	StoragePressure float64
	// G is the geographic preference of this replica's server for the
	// partition's clients (Eq. 4), in (0, 1] after normalization.
	G float64
	// Rent is this server's announced virtual rent for the epoch.
	Rent float64
	// MinRent is the cheapest rent on the board — the utility floor.
	MinRent float64
	// ConsistencyCost is the extra per-epoch cost one more replica would
	// add for keeping the partition consistent (update fan-out).
	ConsistencyCost float64
}

// VNode is one replica agent: its identity plus its economic memory.
type VNode struct {
	Ring      ring.RingID
	Partition int
	Server    ring.ServerID
	Size      int64 // bytes of partition data this replica holds

	Ledger economy.Ledger
}

// ID renders a debugging identity like "app0/gold#12@srv4".
func (v *VNode) ID() string {
	return fmt.Sprintf("%s#%d@srv%d", v.Ring, v.Partition, v.Server)
}

// Self returns this node's entry in the replica host list, or false when
// the environment handed an inconsistent view that no longer contains it.
func (v *VNode) Self(hosts []availability.Host) (availability.Host, bool) {
	for _, h := range hosts {
		if h.ID == v.Server {
			return h, true
		}
	}
	return availability.Host{}, false
}

// Decide runs Section II-C for one epoch and updates the ledger. The
// sequence is exactly the paper's:
//
//  1. If the partition's availability is below the threshold, replicate to
//     the candidate maximizing Eq. 3 (availability first, cost second).
//  2. Otherwise account the epoch balance b = u - c with the utility
//     floored at the board's cheapest rent.
//  3. After F consecutive deficits: suicide if the partition stays
//     available without this replica; otherwise migrate to a cheaper
//     server chosen by Eq. 3 among candidates cheaper than the current
//     rent.
//  4. After F consecutive profits: replicate if the node's utility covers
//     the new rent plus the consistency cost with the configured surplus.
func (v *VNode) Decide(p Params, in Inputs) Decision {
	avail := availability.Of(in.Hosts)

	// Step 1 — availability repair has absolute priority and bypasses the
	// economics.
	if avail < in.Threshold {
		if best, ok := in.best(); ok {
			return Decision{Action: Replicate, Target: best.ID}
		}
		return Decision{Action: Hold} // starved: no candidate can help this epoch
	}

	// Emergency eviction — the server is about to run out of storage.
	// Waiting out the deficit hysteresis would let inserts fail, so the
	// node leaves now (to a cheaper server: under Eq. 1 a fuller server
	// is pricier, so "cheaper" is "emptier" when storage dominates).
	if p.EvictionPressure > 0 && in.StoragePressure >= p.EvictionPressure {
		if best, ok := v.MigrationTarget(in); ok {
			return Decision{Action: Migrate, Target: best.ID}
		}
	}

	// Step 2 — economics. The utility floor (min rent on the board) stops
	// unpopular nodes from migrating indefinitely: at the cheapest server
	// their balance is non-negative by construction.
	u := p.Utility.Utility(in.Queries, in.G)
	if u < in.MinRent && !p.NoUtilityFloor {
		u = in.MinRent
	}
	balance := u - in.Rent
	v.Ledger.Push(balance)

	// Step 3 — sustained deficit: leave.
	if v.Ledger.NegativeRun() >= p.F {
		if availability.Without(in.Hosts, v.Server) >= in.Threshold {
			return Decision{Action: Suicide, Balance: balance}
		}
		if best, ok := v.MigrationTarget(in); ok {
			return Decision{Action: Migrate, Target: best.ID, Balance: balance}
		}
		return Decision{Action: Hold, Balance: balance}
	}

	// (step 4 follows below)
	return v.decideProfit(p, in, u, balance)
}

// best is Eq. 3 over the admitted candidates against the current hosts.
func (in *Inputs) best() (availability.Candidate, bool) {
	var p availability.Picker
	for _, c := range in.Candidates {
		if in.Admit == nil || in.Admit(c.ID) {
			p.Offer(c, availability.Score(in.Hosts, c))
		}
	}
	return p.Best()
}

// MigrationTarget applies Eq. 3 over the replica set without this node,
// restricted to admitted, strictly cheaper servers whose location keeps
// the partition above its threshold — keeping availability is the
// non-negotiable first priority of the decision process.
func (v *VNode) MigrationTarget(in Inputs) (availability.Candidate, bool) {
	others := make([]availability.Host, 0, 8) // stays on the stack
	for _, h := range in.Hosts {
		if h.ID != v.Server {
			others = append(others, h)
		}
	}
	base := availability.Of(others)
	var p availability.Picker
	for _, c := range in.Candidates {
		if c.Rent < in.Rent && (in.Admit == nil || in.Admit(c.ID)) {
			if avail, s := availability.WithScore(others, base, c); avail >= in.Threshold {
				p.Offer(c, s)
			}
		}
	}
	return p.Best()
}

// decideProfit is step 4 of the decision process; u is the floored
// utility of the epoch.
func (v *VNode) decideProfit(p Params, in Inputs, u, balance float64) Decision {
	// Step 4 — sustained profit: replicate when popularity pays for it.
	if v.Ledger.PositiveRun() >= p.F {
		if best, ok := in.best(); ok {
			if u >= p.ReplicationSurplus*(best.Rent+in.ConsistencyCost) {
				return Decision{Action: Replicate, Target: best.ID, Balance: balance}
			}
		}
	}

	return Decision{Action: Hold, Balance: balance}
}
