package cluster

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"skute/internal/resilience"
	"skute/internal/ring"
	"skute/internal/store"
	"skute/internal/transport"
	"skute/internal/vclock"
)

// GetResult is the outcome of a quorum read: the surviving sibling values
// and the causal context to pass back into Put for a read-modify-write.
type GetResult struct {
	// Values are the concurrent sibling values (one element in the common
	// no-conflict case). Empty means not found.
	Values [][]byte
	// Context is the merged clock of everything observed; a Put carrying
	// it supersedes all read siblings.
	Context vclock.VC
	// Replied is how many replicas answered.
	Replied int
}

// tailSendTimeout bounds the detached post-quorum fan-out sends in
// writeBatch: long enough to ride out a slow replica, short enough that a
// dead one releases the goroutine and pooled connection promptly.
const tailSendTimeout = 10 * time.Second

// readQuorum resolves the effective per-request R for a ring.
func (n *Node) readQuorum(id ring.RingID, c Consistency) (int, error) {
	spec, ok := n.specs[id]
	if !ok {
		return 0, fmt.Errorf("%w %s", ErrUnknownRing, id)
	}
	cfgR, _ := n.cfg.quorums(spec.Replicas)
	return c.resolve(spec.Replicas, cfgR)
}

// writeQuorum resolves the effective per-request W for a ring.
func (n *Node) writeQuorum(id ring.RingID, c Consistency) (int, error) {
	spec, ok := n.specs[id]
	if !ok {
		return 0, fmt.Errorf("%w %s", ErrUnknownRing, id)
	}
	_, cfgW := n.cfg.quorums(spec.Replicas)
	return c.resolve(spec.Replicas, cfgW)
}

// quorumForGroup re-sizes a ring-resolved quorum for the replica set one
// partition group actually carries. During churn a placement entry can
// temporarily hold MORE replicas than the ring's spec target — a
// transfer lists donor and adopter side by side until the handoff
// completes — and a majority of the spec target does not overlap on such
// an inflated set (2 of an entry's 5 replicas can ack a write that a
// later 2-of-5 read never sees). The symbolic levels therefore
// re-resolve against the live count: default and quorum take a majority
// of it, all takes all of it. One and an explicit Count(n) keep their
// fixed sizes — the caller asked for an absolute number, not an overlap
// guarantee. Entries at or below the spec target keep the ring-resolved
// quorum unchanged.
func (n *Node) quorumForGroup(ringQ int, c Consistency, id ring.RingID, liveN int, write bool) int {
	spec, ok := n.specs[id]
	if !ok || liveN <= spec.Replicas || c == ConsistencyOne || c > 0 {
		return ringQ
	}
	switch c {
	case ConsistencyAll:
		return liveN
	case ConsistencyQuorum:
		return liveN/2 + 1
	default: // ConsistencyDefault
		r, w := n.cfg.quorums(liveN)
		if write {
			return w
		}
		return r
	}
}

// Get performs a quorum read of the key on its partition's replicas,
// merges the versions under vector-clock causality, read-repairs stale
// replicas and returns the surviving siblings. The context cancels or
// bounds the whole operation; opts select the per-request R and timeout.
// It shares the partition-group read with MultiGet but skips the batch
// bookkeeping — single-key reads are the hot path.
//
// A ConsistencyOne read takes the tiered fast path first (readpath.go):
// served from the local store when this node hosts a current replica
// under a fresh read lease, or from the coordinator hot-key cache when
// it does not — no synchronous remote envelope either way. Fast-path
// misses fall through to the fan-out below, whose merged result refills
// the cache.
func (n *Node) Get(ctx context.Context, id ring.RingID, key string, opts ReadOptions) (GetResult, error) {
	defer n.opTel.hist(opGet, opts.Consistency).RecordSince(time.Now())
	readQ, err := n.readQuorum(id, opts.Consistency)
	if err != nil {
		return GetResult{}, err
	}
	ctx, cancel := withTimeout(ctx, opts.Timeout)
	defer cancel()
	if err := ctx.Err(); err != nil {
		return GetResult{}, err
	}
	release, err := n.gate.Enter(ctx, resilience.Read)
	if err != nil {
		return GetResult{}, err
	}
	defer release()
	n.mu.RLock()
	p := n.rings.Ring(id).Lookup(ring.HashKey(key))
	part := p.ID
	selfHosts := p.HasReplica(ring.ServerID(n.selfI))
	g := partGroup{part: p.ID, keys: []string{key}, replicas: make([]string, len(p.Replicas))}
	for i, rid := range p.Replicas {
		g.replicas[i] = n.nodeName(rid)
	}
	n.mu.RUnlock()

	one := opts.Consistency == ConsistencyOne
	if one {
		if res, ok := n.tryFastOne(id, part, key, selfHosts); ok {
			return res, nil
		}
	}
	readQ = n.quorumForGroup(readQ, opts.Consistency, id, len(g.replicas), false)
	res, merged, err := n.readPartitionGroup(ctx, id, g, readQ)
	if err != nil {
		return GetResult{}, err
	}
	if one && !selfHosts {
		pver, porigin := n.pmap.Stamp(id, part)
		n.rcache.fill(cacheKey{ring: id, part: part, key: key}, merged[key], pver, porigin, n.Now())
	}
	return res[key], nil
}

// tryFastOne attempts the no-envelope tiers of a ConsistencyOne read.
// Both tiers require a fresh read lease (contactFresh): a node that has
// not heard from any peer within the suspicion window may hold an
// arbitrarily stale placement view and must pay the fan-out, which
// fails fast when the cluster is truly unreachable.
func (n *Node) tryFastOne(id ring.RingID, part int, key string, selfHosts bool) (GetResult, bool) {
	if !n.contactFresh() {
		n.counters.ReadsLeaseStale.Inc()
		return GetResult{}, false
	}
	if selfHosts {
		// This node hosts a current replica (the materialized ring IS the
		// latest accepted placement view — any delta that evicted us
		// already rewrote it): serve the local copy and sample an async
		// repair read so hot local keys still converge.
		n.countQueries(id, part, 1)
		n.counters.ReadsLocal.Inc()
		res := resultOf(n.eng.Get(storageKey(id, key)))
		n.maybeSampleRepair(id, key)
		return res, true
	}
	pver, porigin := n.pmap.Stamp(id, part)
	if vs, hit := n.rcache.get(cacheKey{ring: id, part: part, key: key}, pver, porigin, n.Now()); hit {
		n.countQueries(id, part, 1)
		n.counters.ReadsCacheHit.Inc()
		return resultOf(vs), true
	}
	n.counters.ReadsCacheMiss.Inc()
	return GetResult{}, false
}

// resultOf builds a GetResult from one replica-local (or cached)
// sibling set. Values alias the input slices — copy-on-read: Engine.Get
// hands out private copies already, and cache-served slices are shared
// under the read-only contract documented on ReadOptions.
func resultOf(vs []store.Version) GetResult {
	res := GetResult{Replied: 1, Context: vclock.New()}
	for _, v := range vs {
		res.Context = vclock.Merge(res.Context, v.Clock)
		if !v.Tombstone {
			res.Values = append(res.Values, v.Value)
		}
	}
	return res
}

// maybeSampleRepair triggers a background quorum read — and with it the
// standard read-repair machinery — for roughly one in
// readRepairSampleEvery lease-served local reads, bounded to
// maxSampledRepairs in flight so a read burst cannot stack goroutines
// faster than quorum reads drain.
func (n *Node) maybeSampleRepair(id ring.RingID, key string) {
	if n.repairTick.Add(1)%readRepairSampleEvery != 0 {
		return
	}
	if n.repairInflight.Add(1) > maxSampledRepairs {
		n.repairInflight.Add(-1)
		return
	}
	n.counters.ReadRepairSampled.Inc()
	go func() {
		defer n.repairInflight.Add(-1)
		ctx, cancel := context.WithTimeout(context.Background(), tailSendTimeout)
		defer cancel()
		readQ, err := n.readQuorum(id, ConsistencyQuorum)
		if err != nil {
			return
		}
		groups := n.groupByPartition(id, []string{key})
		if len(groups) != 1 {
			return
		}
		g := groups[0]
		_, _, _ = n.readPartitionGroup(ctx, id, g, n.quorumForGroup(readQ, ConsistencyQuorum, id, len(g.replicas), false))
	}()
}

// MultiGet reads a batch of keys in one coordinated operation. Keys are
// grouped by partition, and each partition reads its first readQ alive
// replicas in rankedAlive order. The chosen replicas are bucketed by
// node: every remote replica node receives at most ONE multi-get
// envelope covering all of its partitions' keys, and the coordinator's
// own share is served inline. Each reply is decoded on its sub-call's
// goroutine. Siblings merge and the read quorum is checked per
// partition, and each stale responder gets one repair envelope covering
// all of its partitions. A partition whose chosen peer failed, or had
// not answered when the hedge delay fired, is re-read on its own through
// readPartitionGroup, which brings in standby replicas. Results map each
// requested key to its sibling values and causal context (a missing key
// maps to an empty GetResult, matching single-key Get).
func (n *Node) MultiGet(ctx context.Context, id ring.RingID, keys []string, opts ReadOptions) (map[string]GetResult, error) {
	defer n.opTel.hist(opMGet, opts.Consistency).RecordSince(time.Now())
	readQ, err := n.readQuorum(id, opts.Consistency)
	if err != nil {
		return nil, err
	}
	ctx, cancel := withTimeout(ctx, opts.Timeout)
	defer cancel()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	release, err := n.gate.Enter(ctx, resilience.Read)
	if err != nil {
		return nil, err
	}
	defer release()
	if len(keys) == 0 {
		return map[string]GetResult{}, nil
	}

	// batchPart is one partition of the batch: its read quorum, the
	// replicas its first wave reads, and — once it falls back to
	// readPartitionGroup — that read's outcome.
	type batchPart struct {
		g        partGroup
		q        int
		chosen   []string
		spare    bool // an alive replica outside chosen exists
		fallback bool
		res      map[string]GetResult
		err      error
	}
	groups := n.groupByPartition(id, keys)
	parts := make([]batchPart, len(groups))
	byNode := make(map[string][]string)
	replies := make(map[string]map[string][]store.Version)
	var fallbacks sync.WaitGroup
	// fallBack re-reads one partition on its own, its failed or lagging
	// chosen replicas demoted behind the others so the standby is tried
	// first. The goroutine it starts is the only writer of p.res and
	// p.err, which are read after fallbacks.Wait.
	fallBack := func(p *batchPart) {
		p.fallback = true
		lagging := func(name string) bool {
			_, answered := replies[name]
			return !answered && slices.Contains(p.chosen, name)
		}
		g := p.g
		g.replicas = make([]string, 0, len(p.g.replicas))
		for _, name := range p.g.replicas {
			if !lagging(name) {
				g.replicas = append(g.replicas, name)
			}
		}
		for _, name := range p.g.replicas {
			if lagging(name) {
				g.replicas = append(g.replicas, name)
			}
		}
		fallbacks.Add(1)
		go func() {
			defer fallbacks.Done()
			p.res, _, p.err = n.readPartitionGroup(ctx, id, g, p.q)
		}()
	}
	hedgeable := false
	for i, g := range groups {
		p := &parts[i]
		p.g = g
		p.q = n.quorumForGroup(readQ, opts.Consistency, id, len(g.replicas), false)
		alive := n.rankedAlive(g.replicas)
		if len(alive) < p.q {
			fallBack(p) // readPartitionGroup reports the shortfall by partition
			continue
		}
		p.chosen = alive[:p.q]
		p.spare = len(alive) > p.q
		hedgeable = hedgeable || p.spare
		for _, name := range p.chosen {
			byNode[name] = append(byNode[name], g.keys...)
		}
	}

	// Remote calls run on a child context cancelled at return, so
	// stragglers are abandoned at the transport layer; they complete into
	// the buffered channel and are discarded.
	callCtx, cancelCalls := context.WithCancel(ctx)
	defer cancelCalls()
	resps := make(chan replicaResp, len(byNode))
	remote := 0
	for name, ks := range byNode {
		if name == n.self.Name {
			continue
		}
		remote++
		env := transport.Envelope{Kind: kindMultiGet, Payload: encode(multiGetReq{Ring: id, Keys: ks})}
		go func(name string) { resps <- n.readReplica(callCtx, name, env) }(name)
	}
	if ks, ok := byNode[n.self.Name]; ok {
		replies[n.self.Name] = n.readLocal(id, ks)
	}
	awaiting := func() bool {
		for i := range parts {
			if !parts[i].fallback && missing(parts[i].chosen, replies) {
				return true
			}
		}
		return false
	}
	// One hedge wave per batch: when the delay fires, every partition
	// still short of its chosen replies that has a spare replica falls
	// back; partitions without one keep waiting for their replicas.
	var hedgeC <-chan time.Time
	if hedgeable && remote > 0 {
		timer := time.NewTimer(n.hedge.delay(n.Now()))
		defer timer.Stop()
		hedgeC = timer.C
	}
	for remote > 0 && awaiting() {
		select {
		case r := <-resps:
			remote--
			if r.ok {
				replies[r.name] = r.vs
				n.hedge.observe(r.elapsed)
				continue
			}
			for i := range parts {
				if p := &parts[i]; !p.fallback && slices.Contains(p.chosen, r.name) {
					fallBack(p)
				}
			}
		case <-hedgeC:
			hedgeC = nil
			hedged := false
			for i := range parts {
				if p := &parts[i]; !p.fallback && p.spare && missing(p.chosen, replies) {
					fallBack(p)
					hedged = true
				}
			}
			if hedged {
				n.counters.ReadsHedged.Inc()
			}
		case <-ctx.Done():
			fallbacks.Wait()
			return nil, ctx.Err()
		}
	}
	fallbacks.Wait()

	results := make(map[string]GetResult, len(keys))
	var repairs map[string][]putItem
	for i := range parts {
		p := &parts[i]
		if p.fallback {
			if p.err != nil {
				return nil, p.err
			}
			for k, r := range p.res {
				results[k] = r
			}
			continue
		}
		n.countQueries(id, p.g.part, len(p.g.keys))
		repairs = mergeReplies(p.g.keys, p.chosen, replies, results, nil, repairs)
	}
	n.repair(ctx, id, repairs)
	return results, nil
}

// missing reports whether any of the named replicas has not replied.
func missing(names []string, replies map[string]map[string][]store.Version) bool {
	for _, name := range names {
		if _, ok := replies[name]; !ok {
			return true
		}
	}
	return false
}

// partGroup is the slice of a multi-key batch that falls on one
// partition, with the partition's replica snapshot.
type partGroup struct {
	part     int
	keys     []string
	replicas []string
}

// groupByPartition buckets the (deduplicated) keys of a batch by the
// partition that owns them, snapshotting each partition's replica set
// under one read lock.
func (n *Node) groupByPartition(id ring.RingID, keys []string) []partGroup {
	n.mu.RLock()
	r := n.rings.Ring(id)
	var out []partGroup
	byPart := make(map[int]int) // partition -> index into out
	seen := make(map[string]bool, len(keys))
	for _, key := range keys {
		if seen[key] {
			continue
		}
		seen[key] = true
		p := r.Lookup(ring.HashKey(key))
		i, ok := byPart[p.ID]
		if !ok {
			i = len(out)
			byPart[p.ID] = i
			g := partGroup{part: p.ID, replicas: make([]string, len(p.Replicas))}
			for j, rid := range p.Replicas {
				g.replicas[j] = n.nodeName(rid)
			}
			out = append(out, g)
		}
		out[i].keys = append(out[i].keys, key)
	}
	n.mu.RUnlock()
	slices.SortFunc(out, func(a, b partGroup) int { return a.part - b.part })
	return out
}

// rankedAlive returns the alive replicas in read-contact order: the
// local copy first (it answers inline for free), peers whose circuit
// breaker is open last. Open-breaker peers are demoted rather than
// skipped — a small quorum may still need them — but they serve only as
// standbys, so a peer that is up but sick stops taxing every read and
// stops absorbing the hedged backup. The demoted slot doubles as the
// breaker's half-open probe path.
func (n *Node) rankedAlive(replicas []string) []string {
	alive := replicas[:0:0]
	for _, name := range replicas {
		if n.alive(name) {
			alive = append(alive, name)
		}
	}
	rank := func(name string) int {
		switch {
		case name == n.self.Name:
			return 0
		case n.breakers.State(name) == resilience.BreakerOpen:
			return 2
		default:
			return 1
		}
	}
	sort.SliceStable(alive, func(i, j int) bool { return rank(alive[i]) < rank(alive[j]) })
	return alive
}

// replicaResp is one replica's answer to a read: its sibling set per key.
type replicaResp struct {
	name    string
	vs      map[string][]store.Version
	ok      bool
	elapsed time.Duration // remote round trip; 0 for the local copy
}

// readLocal serves the coordinator's own copy of keys.
func (n *Node) readLocal(id ring.RingID, keys []string) map[string][]store.Version {
	local := make(map[string][]store.Version, len(keys))
	for _, k := range keys {
		local[k] = n.eng.Get(storageKey(id, k))
	}
	return local
}

// readReplica sends one multi-get envelope to a remote replica node and
// decodes the reply on the calling goroutine, feeding the node's circuit
// breaker with the outcome.
func (n *Node) readReplica(ctx context.Context, name string, env transport.Envelope) replicaResp {
	start := time.Now()
	info, _ := n.info(name)
	resp, err := n.tr.Call(ctx, info.Addr, env)
	n.breakers.Record(name, err, time.Since(start))
	if err != nil {
		return replicaResp{name: name}
	}
	var mr multiGetResp
	derr := decode(resp.Payload, &mr)
	// decode copied every byte out (no decoded value aliases the
	// payload), so the frame's staging buffer can go back to the
	// transport.
	transport.RecyclePayload(resp.Payload)
	if derr != nil {
		return replicaResp{name: name}
	}
	vs := make(map[string][]store.Version, len(mr.Items))
	for _, item := range mr.Items {
		vs[item.Key] = item.Versions
	}
	return replicaResp{name: name, vs: vs, ok: true, elapsed: time.Since(start)}
}

// readPartitionGroup runs the quorum read of one partition's key group:
// it contacts exactly readQ alive replicas first, in rankedAlive order,
// each with ONE envelope covering every key of the group, and arms a
// single HEDGED backup request that fires only if the quorum is still
// short after the p99-tracked hedge delay (see hedgeTracker). Failures
// launch a standby replica immediately, and context cancellation is
// honored while waiting. It returns as soon as readQ replicas answered:
// a hung-but-not-yet-suspected replica cannot pin the read to the
// transport timeout once the quorum is met — remote calls run on a child
// context cancelled at return, so stragglers and fired hedges are
// abandoned at the transport layer instead of running to completion.
// Siblings merge per key; each stale responder gets one batched repair
// envelope (sent on the caller's context, not the cancelled child). The
// second return value is the merged sibling set per key, which One-level
// callers feed into the coordinator cache.
func (n *Node) readPartitionGroup(ctx context.Context, id ring.RingID, g partGroup, readQ int) (map[string]GetResult, map[string][]store.Version, error) {
	n.countQueries(id, g.part, len(g.keys))

	alive := n.rankedAlive(g.replicas)
	resps := make(chan replicaResp, len(alive))
	env := transport.Envelope{Kind: kindMultiGet, Payload: encode(multiGetReq{Ring: id, Keys: g.keys})}
	callCtx, cancelCalls := context.WithCancel(ctx)
	defer cancelCalls()
	target := readQ
	if target > len(alive) {
		target = len(alive)
	}
	next, inflight := 0, 0
	startNext := func() {
		name := alive[next]
		next++
		inflight++
		if name == n.self.Name {
			resps <- replicaResp{name: name, vs: n.readLocal(id, g.keys), ok: true}
			return
		}
		go func(name string) { resps <- n.readReplica(callCtx, name, env) }(name)
	}
	for next < target {
		startNext()
	}

	// The hedge arms only when a spare replica exists. It fires at most
	// once: a firing clears the channel, and a quorum met before the
	// delay never sends the backup at all — the common case pays zero
	// extra envelopes for tail latency bounded near p99(healthy).
	var hedgeC <-chan time.Time
	if next < len(alive) {
		timer := time.NewTimer(n.hedge.delay(n.Now()))
		defer timer.Stop()
		hedgeC = timer.C
	}

	// Stragglers complete into the buffered channel and are discarded, so
	// a cancelled caller leaks no goroutines; the sibling merge below is
	// order-independent. RTTs are recorded only for responses accepted
	// toward the quorum — a slow replica that loses the race never feeds
	// the hedge delay meant to route around it.
	perResp := make(map[string]map[string][]store.Version)
	var responders []string
	for inflight > 0 && len(responders) < readQ {
		select {
		case r := <-resps:
			inflight--
			if r.ok {
				perResp[r.name] = r.vs
				responders = append(responders, r.name)
				if r.elapsed > 0 {
					n.hedge.observe(r.elapsed)
				}
			} else if next < len(alive) {
				startNext()
			}
		case <-hedgeC:
			hedgeC = nil
			if next < len(alive) {
				n.counters.ReadsHedged.Inc()
				startNext()
			}
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	if len(responders) < readQ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("cluster: read quorum not met for %s partition %d: %d/%d replicas answered",
			id, g.part, len(responders), readQ)
	}

	results := make(map[string]GetResult, len(g.keys))
	merged := make(map[string][]store.Version, len(g.keys))
	n.repair(ctx, id, mergeReplies(g.keys, responders, perResp, results, merged, nil))
	return results, merged, nil
}

// mergeReplies merges the responders' sibling sets per key into results
// (and into merged, when it is non-nil) and adds to repairs, for each
// responder that misses part of a key's merged set, the versions that
// heal it. It returns repairs, allocated on first need: in-sync
// replicas, the common case, cost nothing.
func mergeReplies(keys, responders []string, replies map[string]map[string][]store.Version,
	results map[string]GetResult, merged map[string][]store.Version, repairs map[string][]putItem) map[string][]putItem {
	for _, k := range keys {
		var gathered []store.Version
		for _, name := range responders {
			gathered = append(gathered, replies[name][k]...)
		}
		m := store.MergeSiblings(gathered)
		if merged != nil {
			merged[k] = m
		}
		res := GetResult{Replied: len(responders), Context: vclock.New()}
		for _, v := range m {
			res.Context = vclock.Merge(res.Context, v.Clock)
			if !v.Tombstone {
				res.Values = append(res.Values, v.Value)
			}
		}
		results[k] = res
		for _, name := range responders {
			if !needsRepair(replies[name][k], m) {
				continue
			}
			if repairs == nil {
				repairs = make(map[string][]putItem)
			}
			for _, v := range m {
				repairs[name] = append(repairs[name], putItem{Key: k, Version: v})
			}
		}
	}
	return repairs
}

// repair sends each stale responder the versions it misses: one
// multi-put envelope per remote node, covering all of its keys, and one
// PutBatch for the coordinator's own copy. Best effort — engines reject
// dominated versions, so repair is idempotent, and anti-entropy heals
// whatever a lost repair leaves behind. Remote repairs ride the caller's
// context.
func (n *Node) repair(ctx context.Context, id ring.RingID, stale map[string][]putItem) {
	for name, items := range stale {
		if name == n.self.Name {
			// The merged versions are also the caller's read result.
			_, _ = n.eng.PutBatch(storeItems(id, items, true))
			continue
		}
		info, _ := n.info(name)
		env := transport.Envelope{Kind: kindMultiPut, Payload: encode(multiPutReq{Ring: id, Items: items})}
		_, _ = n.tr.Call(ctx, info.Addr, env)
	}
}

// storeItems converts a ring's wire put items into engine items under
// their storage keys. PutBatch keeps the versions it accepts, so items
// that alias a caller's buffers pass clone; freshly decoded ones need no
// copy.
func storeItems(id ring.RingID, items []putItem, clone bool) []store.Item {
	out := make([]store.Item, len(items))
	for i, it := range items {
		v := it.Version
		if clone {
			v = v.Clone()
		}
		out[i] = store.Item{Key: storageKey(id, it.Key), Version: v}
	}
	return out
}

// needsRepair reports whether a responder's version set for one key
// diverges from the merged sibling set.
func needsRepair(have, merged []store.Version) bool {
	if len(have) != len(merged) {
		return true
	}
	for _, m := range merged {
		found := false
		for _, h := range have {
			if h.Clock.Compare(m.Clock) == vclock.Equal {
				found = true
				break
			}
		}
		if !found {
			return true
		}
	}
	return false
}

// stampClock derives the clock of a new coordinated write from the
// caller's read context: the context's entries plus this node's own
// entry set from a node-local monotonic counter. A plain tick of the
// context's own entry is not safe — when the read behind a
// read-modify-write was stale (it missed a version this same node
// coordinated), context+1 can land at or below the own entry of the
// stored clock, producing a write strictly dominated by data already
// on every replica. The engine silently discards dominated versions,
// so the write would be acknowledged by a full quorum yet survive
// nowhere. Stamping from a counter that never repeats an own entry
// makes a coordinated write dominating-or-concurrent, never dominated:
// the worst a stale context yields is a sibling for the client to
// reconcile. This is the dotted-version-vector refinement of classic
// coordinator-side ticking.
func (n *Node) stampClock(vctx vclock.VC) vclock.VC {
	c := vctx.Clone()
	own := c.Get(n.self.Name)
	for {
		cur := n.dot.Load()
		next := cur + 1
		// A context carrying an own entry at or above the counter means
		// the counter lost state (it is seeded from the local store at
		// boot, but the entry may only survive on peers); step past it.
		if own >= next {
			next = own + 1
		}
		if n.dot.CompareAndSwap(cur, next) {
			c[n.self.Name] = next
			return c
		}
	}
}

// Put writes the value under a clock derived from the read context,
// requiring the write quorum (or the per-request override) of live
// replicas to acknowledge before the context deadline. It is a one-item
// writeBatch.
func (n *Node) Put(ctx context.Context, id ring.RingID, key string, value []byte, vctx vclock.VC, opts WriteOptions) error {
	defer n.opTel.hist(opPut, opts.Consistency).RecordSince(time.Now())
	v := store.Version{Value: value, Clock: n.stampClock(vctx)}
	return n.writeBatch(ctx, id, []string{key}, map[string]store.Version{key: v}, opts)
}

// Delete writes a tombstone derived from the read context.
func (n *Node) Delete(ctx context.Context, id ring.RingID, key string, vctx vclock.VC, opts WriteOptions) error {
	defer n.opTel.hist(opDel, opts.Consistency).RecordSince(time.Now())
	v := store.Version{Tombstone: true, Clock: n.stampClock(vctx)}
	return n.writeBatch(ctx, id, []string{key}, map[string]store.Version{key: v}, opts)
}

// cacheWriteThrough upserts an acknowledged coordinated write into the
// hot-key cache (see readCache.upsert for the coherence argument).
// Partitions this node hosts are skipped — their One-reads are served
// from the store under the lease, never from the cache — and so are
// writes whose quorum was not met, since a failed write may exist on no
// replica at all and a One-read must never observe a value no replica
// holds.
func (n *Node) cacheWriteThrough(id ring.RingID, part int, key string, v store.Version, replicas []string) {
	for _, name := range replicas {
		if name == n.self.Name {
			return
		}
	}
	pver, porigin := n.pmap.Stamp(id, part)
	n.rcache.upsert(cacheKey{ring: id, part: part, key: key}, v, pver, porigin, n.Now())
}

// MultiPut writes a batch of entries in one coordinated operation. Every
// entry is versioned up front, one clock tick each; later duplicates of
// a key win, matching the sequential-Put semantics of applying the batch
// in order.
func (n *Node) MultiPut(ctx context.Context, id ring.RingID, entries []Entry, opts WriteOptions) error {
	defer n.opTel.hist(opMPut, opts.Consistency).RecordSince(time.Now())
	versions := make(map[string]store.Version, len(entries))
	keys := make([]string, 0, len(entries))
	for _, e := range entries {
		if _, ok := versions[e.Key]; !ok {
			keys = append(keys, e.Key)
		}
		versions[e.Key] = store.Version{Value: e.Value, Clock: n.stampClock(e.Context)}
	}
	return n.writeBatch(ctx, id, keys, versions, opts)
}

// nodeShare is one alive replica node's part of a batched write: the
// batch partitions (indexes into its groups) its one acknowledgement
// counts toward, the items it stores, and their encoded multi-put
// payload.
type nodeShare struct {
	name    string
	parts   []int
	items   []putItem
	payload []byte
}

// writeBatch is the one replica write path, behind Put, Delete and
// MultiPut. Keys are grouped by partition, and every alive replica node
// receives ONE multi-put envelope carrying all of its partitions' items:
// the remote sends start first, then the coordinator writes its own
// share with one PutBatch (one WAL commit), then the call waits until
// every partition has its write quorum (or the per-request override) of
// acknowledgements from its own replicas. The first partition short of
// its quorum fails the batch, by name. Nodes that host the same set of
// the batch's partitions receive the same bytes, so a single-partition
// batch — every single-key write — encodes its payload once.
//
// The sends run on a context detached from the caller's cancellation: a
// write that returns at its ack threshold immediately runs its
// withTimeout cancel (or the client cancels its context), and aborting
// the still-in-flight tail sends at that moment would strand the
// remaining replicas stale until anti-entropy finds them. Only the ack
// wait honors the caller's context; the sends get their own bounded
// deadline so a dead peer cannot pin the goroutines forever.
func (n *Node) writeBatch(ctx context.Context, id ring.RingID, keys []string, versions map[string]store.Version, opts WriteOptions) error {
	writeQ, err := n.writeQuorum(id, opts.Consistency)
	if err != nil {
		return err
	}
	ctx, cancel := withTimeout(ctx, opts.Timeout)
	defer cancel()
	if err := ctx.Err(); err != nil {
		return err
	}
	release, err := n.gate.Enter(ctx, resilience.Write)
	if err != nil {
		return err
	}
	defer release()
	if len(keys) == 0 {
		return nil
	}
	groups := n.groupByPartition(id, keys)

	// The ack ledger: need and acks per partition, and the share of every
	// alive replica node, found by linear scan — a batch spans at most
	// the cluster's nodes, and most span one partition's few replicas.
	need := make([]int, len(groups))
	acks := make([]int, len(groups))
	shares := make([]nodeShare, 0, len(groups[0].replicas))
	for i, g := range groups {
		n.countQueries(id, g.part, len(g.keys))
		need[i] = n.quorumForGroup(writeQ, opts.Consistency, id, len(g.replicas), true)
		for _, name := range g.replicas {
			if !n.alive(name) {
				continue
			}
			j := slices.IndexFunc(shares, func(s nodeShare) bool { return s.name == name })
			if j < 0 {
				j = len(shares)
				shares = append(shares, nodeShare{name: name})
			}
			s := &shares[j]
			s.parts = append(s.parts, i)
			for _, k := range g.keys {
				s.items = append(s.items, putItem{Key: k, Version: versions[k]})
			}
		}
	}
	ack := func(j int) {
		for _, i := range shares[j].parts {
			acks[i]++
		}
	}
	met := func() bool {
		for i := range groups {
			if acks[i] < need[i] {
				return false
			}
		}
		return true
	}

	sendCtx, cancelSends := context.WithTimeout(context.WithoutCancel(ctx), tailSendTimeout)
	acked := make(chan int, len(shares)) // the acknowledging share, -1 for a failed send
	var sends sync.WaitGroup
	self, remote := -1, 0
	for j := range shares {
		s := &shares[j]
		if s.name == n.self.Name {
			self = j
			continue
		}
		for _, t := range shares[:j] {
			if t.payload != nil && slices.Equal(t.parts, s.parts) {
				s.payload = t.payload
				break
			}
		}
		if s.payload == nil {
			s.payload = encode(multiPutReq{Ring: id, Items: s.items})
		}
		remote++
		sends.Add(1)
		go func(j int, name string, payload []byte) {
			defer sends.Done()
			info, _ := n.info(name)
			start := time.Now()
			_, err := n.tr.Call(sendCtx, info.Addr, transport.Envelope{Kind: kindMultiPut, Payload: payload})
			n.breakers.Record(name, err, time.Since(start))
			if err != nil {
				j = -1
			}
			acked <- j
		}(j, s.name, s.payload)
	}
	go func() { sends.Wait(); cancelSends() }()
	if self >= 0 {
		if _, err := n.eng.PutBatch(storeItems(id, shares[self].items, true)); err == nil {
			ack(self)
		}
	}
	for ; remote > 0 && !met(); remote-- {
		select {
		case j := <-acked:
			if j >= 0 {
				ack(j)
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for i, g := range groups {
		if acks[i] < need[i] {
			if err := ctx.Err(); err != nil {
				return err
			}
			return fmt.Errorf("cluster: write quorum not met for %s partition %d: %d/%d acks", id, g.part, acks[i], need[i])
		}
	}
	for _, g := range groups {
		for _, k := range g.keys {
			n.cacheWriteThrough(id, g.part, k, versions[k], g.replicas)
		}
	}
	return nil
}

// countQueries accounts queries against the vnode hosting the partition
// locally (if any), feeding the economy.
func (n *Node) countQueries(id ring.RingID, part int, count int) {
	n.qmu.Lock()
	n.queries[vnodeKey(id, part)] += float64(count)
	n.qmu.Unlock()
}

// vnodeKey names a hosted vnode for the ledgers/queries maps.
func vnodeKey(id ring.RingID, part int) string {
	return fmt.Sprintf("%s#%d", id, part)
}
