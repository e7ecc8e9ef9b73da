package cluster

import (
	"skute/internal/resilience"
	"skute/internal/telemetry"
)

// ControlCounters are a node's control-plane observability counters:
// what the economic epochs decided, how placement deltas fared under
// the last-writer-wins merge, and how often gossip reconciliation ran.
// The constructor registers them on the node's registry, which
// cmd/skuted serves on GET /metrics.
type ControlCounters struct {
	// Epoch decision outcomes executed by this node as coordinator.
	EpochReplications telemetry.Counter
	EpochMigrations   telemetry.Counter
	EpochSuicides     telemetry.Counter
	EpochRepairs      telemetry.Counter // availability-driven replications

	// Placement delta merge outcomes on this node.
	DeltasApplied telemetry.Counter
	DeltasStale   telemetry.Counter // rejected: late, reordered or replayed

	// Gossip rounds.
	ReconcileRounds telemetry.Counter // digest-triggered delta pulls
	HeartbeatRounds telemetry.Counter

	// Anti-entropy outcome (data plane, driven by the runtime loop).
	AntiEntropyKeys     telemetry.Counter // keys repaired by Merkle sync
	AntiEntropyRounds   telemetry.Counter // rounds run
	AntiEntropyRootHits telemetry.Counter // partition syncs short-circuited on root equality

	// Membership: member-record merge outcomes, detector transitions and
	// the evictions they drive.
	MemberDeltasApplied telemetry.Counter
	MemberDeltasStale   telemetry.Counter
	MemberRefutations   telemetry.Counter // accusations of this node it refuted
	MembersSuspected    telemetry.Counter // local alive→suspect transitions
	MembersDead         telemetry.Counter // local suspect→dead transitions
	MemberEvictions     telemetry.Counter // dead members removed from hosted replica sets
	MemberPulls         telemetry.Counter // digest-triggered member list pulls
	JoinsServed         telemetry.Counter // join requests this node admitted

	// Tiered read path (see readpath.go): how One-level reads were
	// served and how often quorum reads needed the hedged backup.
	ReadsLocal        telemetry.Counter // lease-served from the local store
	ReadsCacheHit     telemetry.Counter // served from the coordinator cache
	ReadsCacheMiss    telemetry.Counter // eligible for the cache but fell through to fan-out
	ReadsLeaseStale   telemetry.Counter // lease not fresh; One-read fell back to fan-out
	ReadsHedged       telemetry.Counter // quorum reads that fired the backup request
	ReadRepairSampled telemetry.Counter // async repair reads sampled off local reads

	// Partition transfer (chunked, throttled; see transfer.go).
	TransferChunks       telemetry.Counter // chunks pulled (adopter side)
	TransferItems        telemetry.Counter // keys pulled (adopter side)
	TransferResumes      telemetry.Counter // pulls resumed from a saved cursor
	TransferChunksServed telemetry.Counter // chunks served (donor side)
	TransferBytesOut     telemetry.Counter // value bytes served (donor side)

	// Overload robustness (see internal/resilience): per-peer breaker
	// lifecycle events on this node's outbound paths.
	BreakerTransitions telemetry.Counter // every breaker state change
	BreakerOpens       telemetry.Counter // transitions into open (peer cut off)
}

// Counters exposes the node's control-plane counters.
func (n *Node) Counters() *ControlCounters { return &n.counters }

// registerCounters registers every control-plane counter and the
// admission gauges on the node's own registry under stable names, next
// to the histograms the coordinator, the read path and the gate record
// there.
func (n *Node) registerCounters() {
	reg := n.tel
	for _, g := range []struct {
		name string
		c    *telemetry.Counter
	}{
		{"epoch_replications_total", &n.counters.EpochReplications},
		{"epoch_migrations_total", &n.counters.EpochMigrations},
		{"epoch_suicides_total", &n.counters.EpochSuicides},
		{"epoch_repairs_total", &n.counters.EpochRepairs},
		{"placement_deltas_applied_total", &n.counters.DeltasApplied},
		{"placement_deltas_stale_total", &n.counters.DeltasStale},
		{"gossip_reconcile_rounds_total", &n.counters.ReconcileRounds},
		{"gossip_heartbeat_rounds_total", &n.counters.HeartbeatRounds},
		{"antientropy_keys_repaired_total", &n.counters.AntiEntropyKeys},
		{"antientropy_rounds_total", &n.counters.AntiEntropyRounds},
		{"antientropy_root_hits_total", &n.counters.AntiEntropyRootHits},
		{"member_deltas_applied_total", &n.counters.MemberDeltasApplied},
		{"member_deltas_stale_total", &n.counters.MemberDeltasStale},
		{"member_refutations_total", &n.counters.MemberRefutations},
		{"members_suspected_total", &n.counters.MembersSuspected},
		{"members_dead_total", &n.counters.MembersDead},
		{"member_evictions_total", &n.counters.MemberEvictions},
		{"member_pulls_total", &n.counters.MemberPulls},
		{"joins_served_total", &n.counters.JoinsServed},
		{"reads_local_total", &n.counters.ReadsLocal},
		{"reads_cache_hit_total", &n.counters.ReadsCacheHit},
		{"reads_cache_miss_total", &n.counters.ReadsCacheMiss},
		{"reads_lease_stale_total", &n.counters.ReadsLeaseStale},
		{"reads_hedged_total", &n.counters.ReadsHedged},
		{"read_repair_sampled_total", &n.counters.ReadRepairSampled},
		{"transfer_chunks_total", &n.counters.TransferChunks},
		{"transfer_items_total", &n.counters.TransferItems},
		{"transfer_resumes_total", &n.counters.TransferResumes},
		{"transfer_chunks_served_total", &n.counters.TransferChunksServed},
		{"transfer_bytes_out_total", &n.counters.TransferBytesOut},
		{"breaker_transitions_total", &n.counters.BreakerTransitions},
		{"breaker_opens_total", &n.counters.BreakerOpens},
	} {
		reg.Gauge(g.name, g.c.Value)
	}
	// Admission gate: live in-flight plus per-class admitted/shed
	// outcomes. All zero (and the gauges still registered) when the gate
	// is disabled, so dashboards keep a stable schema.
	reg.Gauge("admission_inflight", n.gate.Inflight)
	reg.Gauge("admission_shed_deadline_total", n.gate.ShedLate)
	for _, p := range []resilience.Priority{
		resilience.Background, resilience.Read, resilience.Write, resilience.Critical,
	} {
		p := p
		reg.Gauge("admission_"+p.String()+"_admitted_total", func() int64 { return n.gate.Admitted(p) })
		reg.Gauge("admission_"+p.String()+"_shed_total", func() int64 { return n.gate.Shed(p) })
	}
}

// Breakers exposes the node's per-peer circuit breakers (admin surfaces
// and tests).
func (n *Node) Breakers() *resilience.BreakerSet { return n.breakers }

// Gate exposes the node's admission gate (nil when disabled).
func (n *Node) Gate() *resilience.Gate { return n.gate }
