package main

import (
	"skute/internal/resilience"
	"skute/internal/telemetry"
)

// prediction is what was written down about a per-layer metric ahead of
// any measurement: the end-to-end metric it should move, and on which
// workload. BENCHMARK.json may hold only a metric's name, unit and
// direction, so the predictions live here and are printed next to every
// per-layer value (README.md has the reasoning).
type prediction struct{ moves, on string }

// predictions has one entry per per-layer metric of BENCHMARK.json, named
// <module>.<metric>. Counter and histogram values are deltas over the
// traced run's load window, summed over the nodes; "/op" divides by the
// client operations of that window. probe.* are timings of direct calls
// into one layer's public functions and do not depend on the workload.
// A metric that does not apply to a workload reads 0 there.
var predictions = map[string]prediction{
	// client: the tail percentiles (between runs of one commit on this
	// sandbox a 1% tail moves by up to 17%, too close to the largest
	// bound the contract allows, so they gate nothing) and the failure
	// share.
	"client.read_p99_us":  {"read_p50_us", "all KV"},
	"client.write_p99_us": {"write_p50_us", "all KV"},
	"client.failed_frac":  {"correct / failed", "all; must be 0"},

	// transport
	"transport.calls_per_op":        {"read_p50_us, cpu_us_per_op", "quorum-read-mostly"},
	"transport.dials":               {"read_p50_us", "all KV; 0 once warm"},
	"transport.retries":             {"read_p50_us", "all KV; 0 when healthy"},
	"transport.rtt_p50_us":          {"read_p50_us, write_p50_us", "quorum-*"},
	"transport.rtt_p99_us":          {"client.read_p99_us", "quorum-*"},
	"probe.transport_echo_256B_us":  {"read_p50_us, cpu_us_per_op", "quorum-read-mostly; none on economy-epochs"},
	"probe.transport_echo_16KiB_us": {"read_p50_us", "batch-mget"},

	// cluster: coordinator, read path, codec
	"cluster.coord_get_p50_us":           {"read_p50_us", "quorum-*, one-read-hot"},
	"cluster.coord_put_p50_us":           {"write_p50_us", "quorum-*"},
	"cluster.coord_mget_p50_us":          {"read_p50_us", "batch-mget"},
	"cluster.reads_local_frac":           {"read_p50_us, throughput_ops_s", "one-read-hot only"},
	"cluster.reads_cache_hit_frac":       {"read_p50_us, throughput_ops_s", "one-read-hot only; 0 on quorum-*"},
	"cluster.reads_cache_miss_frac":      {"read_p50_us", "one-read-hot only"},
	"cluster.reads_lease_stale_frac":     {"read_p50_us", "one-read-hot; 0 when healthy"},
	"cluster.reads_hedged_frac":          {"client.read_p99_us", "quorum-*"},
	"cluster.read_repair_sampled_per_op": {"cpu_us_per_op", "one-read-hot"},
	"cluster.antientropy_keys_repaired":  {"cpu_us_per_op", "all KV; 0 when replicas agree"},
	"cluster.siblings_per_key":           {"read_p50_us", "all KV; must stay about 1"},

	// resilience
	"resilience.admitted_per_op": {"cpu_us_per_op", "all KV"},
	"resilience.shed":            {"client.failed_frac, client.read_p99_us", "all KV; must be 0 (the generator keeps fewer operations in flight than one gate admits)"},
	"resilience.shed_late":       {"client.failed_frac", "all KV; must be 0"},
	"resilience.breaker_opens":   {"client.read_p99_us", "all KV; 0 when healthy"},
	"probe.gate_enter_ns":        {"cpu_us_per_op", "all KV, small"},

	// store / vclock / merkle
	"store.keys":                     {"setup_s", "all KV (size check)"},
	"store.bytes_per_live_byte":      {"process.rss_peak_mb", "all KV"},
	"store.disk_bytes_per_user_byte": {"write_p50_us", "quorum-write-heavy, batch-mget"},
	"probe.store_get_ns":             {"cpu_us_per_op", "batch-mget"},
	"probe.store_put_mem_ns":         {"cpu_us_per_op", "quorum-write-heavy"},
	"probe.store_merge_siblings_ns":  {"cpu_us_per_op", "batch-mget, quorum-write-heavy"},
	"probe.vclock_merge_ns":          {"cpu_us_per_op", "batch-mget"},
	"probe.merkle_update_ns":         {"cpu_us_per_op", "quorum-write-heavy"},

	// wal
	"wal.syncs_per_op":         {"write_p50_us, throughput_ops_s", "quorum-write-heavy; about 0 on one-read-hot"},
	"wal.records_per_sync":     {"throughput_ops_s", "quorum-write-heavy, batch-mget"},
	"wal.bytes_per_op":         {"store.disk_bytes_per_user_byte", "quorum-write-heavy"},
	"wal.fsync_p50_us":         {"write_p50_us", "quorum-write-heavy"},
	"wal.fsync_p99_us":         {"client.write_p99_us", "quorum-write-heavy"},
	"probe.wal_append_1KiB_us": {"write_p50_us", "quorum-write-heavy"},
	"probe.wal_append_8way_us": {"throughput_ops_s", "quorum-write-heavy"},

	// ring / placement / membership
	"probe.ring_lookup_ns":        {"cpu_us_per_op", "all KV, small"},
	"probe.placement_replicas_ns": {"cpu_us_per_op", "all KV, small"},
	"membership.heartbeat_rounds": {"cpu_us_per_op", "all KV, small"},
	"membership.suspected":        {"everything", "all KV; non-zero voids the run"},

	// sim / agent / economy
	"sim.fig2_s":             {"throughput_ops_s, read_p50_us", "economy-epochs"},
	"sim.fig3_s":             {"throughput_ops_s, read_p50_us", "economy-epochs"},
	"sim.fig5_s":             {"throughput_ops_s, write_p50_us", "economy-epochs"},
	"sim.epochs_per_s":       {"throughput_ops_s", "economy-epochs"},
	"sim.final_violations":   {"correct", "economy-epochs; must be 0"},
	"sim.lost_partitions":    {"correct", "economy-epochs; must be 0"},
	"probe.agent_decide_ns":  {"throughput_ops_s", "economy-epochs"},
	"probe.cluster_epoch_ms": {"none (the cluster's own epoch loop is off under load)", "none"},

	// process
	"process.allocs_per_op":      {"cpu_us_per_op, client.*_p99_us", "all"},
	"process.alloc_bytes_per_op": {"cpu_us_per_op, client.*_p99_us", "all"},
	"process.gc_cycles":          {"client.*_p99_us", "all"},
	"process.gc_pause_ms":        {"client.*_p99_us", "all"},
	"process.rss_peak_mb":        {"none", "all"},
	"process.goroutines":         {"cpu_us_per_op", "all KV"},

	// loadgen
	"loadgen.late_p99_us":  {"read_p50_us", "quorum-read-mostly-open"},
	"loadgen.achieved_qps": {"throughput_ops_s", "quorum-read-mostly-open"},
	"loadgen.max_rate_qps": {"none (a ladder flips by a whole rung)", "quorum-read-mostly-open"},

	// trace: the latency budget of the workload's read and write, from the
	// one-client traced pass (see trace.go).
	"trace.read.op_us":              {"read_p50_us", "all KV"},
	"trace.read.client_self_us":     {"read_p50_us", "one-read-hot, quorum-*"},
	"trace.read.wire_client_us":     {"read_p50_us", "one-read-hot, quorum-*"},
	"trace.read.coord_self_us":      {"read_p50_us", "quorum-*, batch-mget"},
	"trace.read.fanout_wait_us":     {"read_p50_us", "quorum-*, batch-mget; about 0 on one-read-hot"},
	"trace.read.wire_replica_us":    {"read_p50_us", "quorum-*; 0 on one-read-hot"},
	"trace.read.replica_handle_us":  {"read_p50_us", "quorum-*, batch-mget"},
	"trace.read.fanout_width":       {"cpu_us_per_op", "quorum-*; about 0 on one-read-hot"},
	"trace.read.after_ack_us":       {"cpu_us_per_op", "quorum-*"},
	"trace.read.unaccounted_frac":   {"none (budget check, below 0.10)", "all KV"},
	"trace.read.overhead_frac":      {"none (tracing cost, below 0.10)", "all KV"},
	"trace.write.op_us":             {"write_p50_us", "all KV"},
	"trace.write.client_self_us":    {"write_p50_us", "quorum-*"},
	"trace.write.wire_client_us":    {"write_p50_us", "quorum-*"},
	"trace.write.coord_self_us":     {"write_p50_us", "quorum-write-heavy"},
	"trace.write.fanout_wait_us":    {"write_p50_us", "quorum-write-heavy"},
	"trace.write.wire_replica_us":   {"write_p50_us", "quorum-write-heavy"},
	"trace.write.replica_handle_us": {"write_p50_us", "quorum-write-heavy"},
	"trace.write.fanout_width":      {"cpu_us_per_op", "quorum-write-heavy"},
	"trace.write.after_ack_us":      {"cpu_us_per_op", "quorum-write-heavy"},
	"trace.write.unaccounted_frac":  {"none (budget check, below 0.10)", "all KV"},
	"trace.write.overhead_frac":     {"none (tracing cost, below 0.10)", "all KV"},
}

// layerSnap is a reading of every public counter and histogram the
// layers expose, summed or merged over the nodes.
type layerSnap struct {
	readsLocal, cacheHit, cacheMiss, leaseStale, hedged int64
	repairSampled, antiEntropyKeys                      int64
	heartbeatRounds, suspected, breakerOpens            int64
	admitted, shed, shedLate                            int64
	dials, retries, calls                               int64
	walSyncs, walRecords                                int64

	coordGet, coordPut, coordMGet *telemetry.Snapshot
	rtt, fsync                    *telemetry.Snapshot
}

var gateClasses = []resilience.Priority{resilience.Background, resilience.Read, resilience.Write, resilience.Critical}

// coordHist merges a node's coordinator histograms of one operation over
// the consistency classes the workloads use.
func coordHist(reg *telemetry.Registry, op string) *telemetry.Snapshot {
	s := &telemetry.Snapshot{}
	for _, class := range []string{"one", "quorum"} {
		s = s.Merge(reg.Histogram("cluster_" + op + "_" + class + "_ns").Snapshot())
	}
	return s
}

func takeLayers(tc *testCluster, rec *recorder) layerSnap {
	empty := &telemetry.Snapshot{}
	s := layerSnap{coordGet: empty, coordPut: empty, coordMGet: empty, rtt: empty, fsync: empty}
	for i, n := range tc.nodes {
		c := n.Counters()
		s.readsLocal += c.ReadsLocal.Value()
		s.cacheHit += c.ReadsCacheHit.Value()
		s.cacheMiss += c.ReadsCacheMiss.Value()
		s.leaseStale += c.ReadsLeaseStale.Value()
		s.hedged += c.ReadsHedged.Value()
		s.repairSampled += c.ReadRepairSampled.Value()
		s.antiEntropyKeys += c.AntiEntropyKeys.Value()
		s.heartbeatRounds += c.HeartbeatRounds.Value()
		s.suspected += c.MembersSuspected.Value()
		s.breakerOpens += c.BreakerOpens.Value()
		if g := n.Gate(); g != nil {
			for _, p := range gateClasses {
				s.admitted += g.Admitted(p)
				s.shed += g.Shed(p)
			}
			s.shedLate += g.ShedLate()
		}
		tel := n.Telemetry()
		s.coordGet = s.coordGet.Merge(coordHist(tel, "get"))
		s.coordPut = s.coordPut.Merge(coordHist(tel, "put"))
		s.coordMGet = s.coordMGet.Merge(coordHist(tel, "mget"))

		tcp := tc.tcps[i]
		s.dials += tcp.Counters().Dials.Value()
		s.retries += tcp.Counters().Retries.Value()
		s.rtt = s.rtt.Merge(tcp.RTT().Snapshot())

		d := tc.engs[i].Durability()
		s.walSyncs += d.WALSyncs
		s.walRecords += d.WALRecords
		if h := tc.engs[i].FsyncLatency(); h != nil {
			s.fsync = s.fsync.Merge(h.Snapshot())
		}
	}
	s.calls = rec.calls.Load()
	return s
}

// histDelta is the histogram of what was recorded between two readings.
func histDelta(before, after *telemetry.Snapshot) *telemetry.Snapshot {
	d := &telemetry.Snapshot{Count: after.Count - before.Count, Sum: after.Sum - before.Sum, Max: after.Max}
	for i := range d.Buckets {
		d.Buckets[i] = after.Buckets[i] - before.Buckets[i]
	}
	return d
}

func histUS(before, after *telemetry.Snapshot, q float64) float64 {
	return us(histDelta(before, after).Quantile(q))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setLayerDeltas reports the per-layer counters over one load window.
func setLayerDeltas(res *result, sp *spec, b, a layerSnap, ub, ua usage, st *phaseStats, tc *testCluster) {
	set := func(name string, v float64) { res.set(perLayer, name, v) }
	ops := float64(st.attempted)
	reads := float64(len(st.samples[opRead]))

	set("transport.calls_per_op", ratio(float64(a.calls-b.calls), ops))
	set("transport.dials", float64(a.dials-b.dials))
	set("transport.retries", float64(a.retries-b.retries))
	set("transport.rtt_p50_us", histUS(b.rtt, a.rtt, 0.50))
	set("transport.rtt_p99_us", histUS(b.rtt, a.rtt, 0.99))

	set("cluster.coord_get_p50_us", histUS(b.coordGet, a.coordGet, 0.50))
	set("cluster.coord_put_p50_us", histUS(b.coordPut, a.coordPut, 0.50))
	set("cluster.coord_mget_p50_us", histUS(b.coordMGet, a.coordMGet, 0.50))
	set("cluster.reads_local_frac", ratio(float64(a.readsLocal-b.readsLocal), reads))
	set("cluster.reads_cache_hit_frac", ratio(float64(a.cacheHit-b.cacheHit), reads))
	set("cluster.reads_cache_miss_frac", ratio(float64(a.cacheMiss-b.cacheMiss), reads))
	set("cluster.reads_lease_stale_frac", ratio(float64(a.leaseStale-b.leaseStale), reads))
	set("cluster.reads_hedged_frac", ratio(float64(a.hedged-b.hedged), reads))
	set("cluster.read_repair_sampled_per_op", ratio(float64(a.repairSampled-b.repairSampled), ops))
	set("cluster.antientropy_keys_repaired", float64(a.antiEntropyKeys-b.antiEntropyKeys))

	set("resilience.admitted_per_op", ratio(float64(a.admitted-b.admitted), ops))
	set("resilience.shed", float64(a.shed-b.shed))
	set("resilience.shed_late", float64(a.shedLate-b.shedLate))
	set("resilience.breaker_opens", float64(a.breakerOpens-b.breakerOpens))

	var keys, storeBytes int64
	for _, e := range tc.engs {
		keys += int64(e.Len())
		storeBytes += e.Bytes()
	}
	set("store.keys", float64(keys))
	set("store.bytes_per_live_byte", ratio(float64(storeBytes), float64(keys*int64(sp.valueBytes))))
	set("store.disk_bytes_per_user_byte", ratio(float64(ua.wal-ub.wal), float64(st.userBytes)))

	syncs := float64(a.walSyncs - b.walSyncs)
	set("wal.syncs_per_op", ratio(syncs, ops))
	set("wal.records_per_sync", ratio(float64(a.walRecords-b.walRecords), syncs))
	set("wal.bytes_per_op", ratio(float64(ua.wal-ub.wal), ops))
	set("wal.fsync_p50_us", histUS(b.fsync, a.fsync, 0.50))
	set("wal.fsync_p99_us", histUS(b.fsync, a.fsync, 0.99))

	set("membership.heartbeat_rounds", float64(a.heartbeatRounds-b.heartbeatRounds))
	set("membership.suspected", float64(a.suspected))
}

// setProcessDeltas reports what the whole process spent over a window of
// ops operations.
func setProcessDeltas(res *result, ub, ua usage, ops float64) {
	set := func(name string, v float64) { res.set(perLayer, name, v) }
	set("process.allocs_per_op", ratio(float64(ua.mallocs-ub.mallocs), ops))
	set("process.alloc_bytes_per_op", ratio(float64(ua.allocBytes-ub.allocBytes), ops))
	set("process.gc_cycles", float64(ua.gcCycles-ub.gcCycles))
	set("process.gc_pause_ms", float64(ua.gcPauseNS-ub.gcPauseNS)/1e6)
	set("process.rss_peak_mb", rssPeakMB())
}
