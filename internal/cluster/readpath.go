package cluster

// The tiered read path (see DESIGN.md "The read path"): a ConsistencyOne
// Get is served without any synchronous remote envelope whenever the
// coordinator can prove its answer is as fresh as a one-replica read is
// allowed to be — either from its own store under a placement lease, or
// from a bounded hot-key cache stamped with the placement version it was
// filled under. Quorum reads keep their overlap guarantee but contact
// only the minimal replica set up front, hedging one backup request
// after a p99-tracked delay instead of paying an unconditional R+1
// fan-out. The mechanisms live here; ops.go wires them into Get.

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"skute/internal/ring"
	"skute/internal/store"
	"skute/internal/telemetry"
)

// Read-lease freshness: a coordinator may serve a One-level read from
// local state only while it has heard from SOME peer within the
// suspicion window. A node partitioned away from the cluster stops
// hearing anything, so its placement view — and therefore its belief
// that it still hosts a current replica — can be arbitrarily stale; the
// contact check bounds that staleness to the same window the failure
// detector already trusts. Placement-delta invalidation is structural:
// every accepted delta rewrites the materialized ring and bumps the
// entry stamp, so the self-replica check and the cache stamp comparison
// fail immediately, with no lease bookkeeping per partition.

// touchContact records evidence that the cluster can still reach this
// node (an answered heartbeat in either direction, or an explicit
// confirmation), renewing the coordinator read lease.
func (n *Node) touchContact() {
	n.lastContact.Store(n.Now().UnixNano())
}

// contactFresh reports whether the read lease is current: the node heard
// from a peer within the suspicion window, or its failure detector is
// manual (no clock ages contact; see membership.Table.SetManual).
func (n *Node) contactFresh() bool {
	return n.Now().UnixNano()-n.lastContact.Load() <= int64(n.suspectAfter) || n.mt.Manual()
}

// Defaults for the read-path tunables (see Config.ReadCacheEntries and
// Config.ReadCacheTTL).
const (
	defaultReadCacheEntries = 4096
	defaultReadCacheTTL     = 500 * time.Millisecond
)

// readRepairSampleEvery is the sampling rate of async read repair on
// lease-served local reads: one in this many local reads triggers a
// background quorum read (whose standard repair machinery heals any
// divergence it finds), so a replica serving hot keys locally still
// participates in convergence without paying fan-out latency per read.
const readRepairSampleEvery = 16

// maxSampledRepairs bounds the background repair reads in flight so a
// read burst cannot stack up goroutines faster than quorum reads drain.
const maxSampledRepairs = 2

// cacheShards is the shard count of the coordinator read cache; hot-key
// workloads hammer few keys, so contention matters more than memory.
const cacheShards = 16

// cacheKey identifies one cached entry.
type cacheKey struct {
	ring ring.RingID
	part int
	key  string
}

// cacheEntry is one cached key: the merged sibling versions last
// observed by a coordinated read or write, the placement stamp they were
// observed under, and the fill time for the TTL bound.
type cacheEntry struct {
	k        cacheKey
	versions []store.Version
	pver     uint64
	porigin  string
	filled   time.Time
}

// readCache is the bounded coordinator hot-key cache: a sharded LRU
// serving repeated One-level reads of keys this node does NOT host
// without any store or network round trip. Entries are validated on
// every lookup against the partition's current placement stamp (O(1)
// invalidation by any placement delta) and a TTL that bounds staleness
// when nothing about placement changes.
//
// Coherence under concurrent fills and writes relies on two rules that
// together prevent a dominated version from resurrecting, whichever
// order the racing operations land in:
//   - a read fill MERGES with whatever entry exists (store.MergeSiblings
//     drops dominated versions), so a fill carrying pre-write data
//     cannot clobber a write-through that beat it;
//   - a coordinated write UPSERTS its version — inserting even when no
//     entry exists — so a slower fill always finds something to merge
//     against and the stale read data it carries is dominated away.
type readCache struct {
	ttl    time.Duration
	shards [cacheShards]cacheShard
}

type cacheShard struct {
	mu  sync.Mutex
	cap int
	lru *list.List // front = most recent; values are *cacheEntry
	m   map[cacheKey]*list.Element
}

// newReadCache sizes a cache for the given total entry bound.
func newReadCache(entries int, ttl time.Duration) *readCache {
	if entries <= 0 {
		entries = defaultReadCacheEntries
	}
	if ttl <= 0 {
		ttl = defaultReadCacheTTL
	}
	per := entries / cacheShards
	if per < 1 {
		per = 1
	}
	c := &readCache{ttl: ttl}
	for i := range c.shards {
		c.shards[i] = cacheShard{cap: per, lru: list.New(), m: make(map[cacheKey]*list.Element)}
	}
	return c
}

func (c *readCache) shard(k cacheKey) *cacheShard {
	h := uint64(ring.HashKey(k.key)) ^ uint64(k.part)*0x9e3779b97f4a7c15
	return &c.shards[h%cacheShards]
}

// get returns the cached versions of a key iff the entry was minted
// under the partition's CURRENT placement stamp and is within the TTL.
// Invalid entries are evicted on sight. The returned slice is shared
// with the cache (copy-on-read): callers must not mutate it.
func (c *readCache) get(k cacheKey, pver uint64, porigin string, now time.Time) ([]store.Version, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[k]
	if !ok {
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.pver != pver || e.porigin != porigin || now.Sub(e.filled) > c.ttl {
		s.lru.Remove(el)
		delete(s.m, k)
		return nil, false
	}
	s.lru.MoveToFront(el)
	return e.versions, true
}

// fill installs the merged sibling set a coordinated read observed.
// An existing entry minted under the same placement stamp is MERGED
// with, never replaced: a concurrent write-through may already have
// installed a newer version, and replacing it with this (older) read
// snapshot would resurrect the dominated value. A stamp mismatch means
// placement moved between the read and the fill — drop the old entry
// and start over from this read.
func (c *readCache) fill(k cacheKey, versions []store.Version, pver uint64, porigin string, now time.Time) {
	if len(versions) == 0 {
		// Negative entries are not cached: an absent key is cheap to
		// re-read and caching it risks hiding a racing first write.
		return
	}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[k]; ok {
		e := el.Value.(*cacheEntry)
		if e.pver == pver && e.porigin == porigin {
			e.versions = store.MergeSiblings(append(append([]store.Version(nil), e.versions...), versions...))
			e.filled = now
			s.lru.MoveToFront(el)
			return
		}
		s.lru.Remove(el)
		delete(s.m, k)
	}
	s.insert(&cacheEntry{k: k, versions: versions, pver: pver, porigin: porigin, filled: now})
}

// upsert write-throughs one coordinated write: the new version merges
// into an existing entry, or seeds a fresh one when absent (so a racing
// fill carrying pre-write data merges against it instead of installing
// stale data unopposed — see the readCache comment).
func (c *readCache) upsert(k cacheKey, v store.Version, pver uint64, porigin string, now time.Time) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[k]; ok {
		e := el.Value.(*cacheEntry)
		if e.pver == pver && e.porigin == porigin {
			e.versions = store.MergeSiblings(append(append([]store.Version(nil), e.versions...), v))
			e.filled = now
			s.lru.MoveToFront(el)
			return
		}
		s.lru.Remove(el)
		delete(s.m, k)
	}
	s.insert(&cacheEntry{k: k, versions: []store.Version{v}, pver: pver, porigin: porigin, filled: now})
}

// insert adds a fresh entry at the LRU front, evicting the coldest
// entry when the shard is full. Callers hold s.mu.
func (s *cacheShard) insert(e *cacheEntry) {
	s.m[e.k] = s.lru.PushFront(e)
	for s.lru.Len() > s.cap {
		old := s.lru.Back()
		s.lru.Remove(old)
		delete(s.m, old.Value.(*cacheEntry).k)
	}
}

// len reports the total cached entries (tests and stats).
func (c *readCache) len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.lru.Len()
		s.mu.Unlock()
	}
	return total
}

// Hedge-delay tracking: quorum reads contact exactly R replicas first
// and fire ONE backup request only after the hedge delay — the p99 of
// recent healthy read RTTs — so a single slow replica costs roughly
// p99(healthy) instead of its own latency, while the common case sends
// zero extra envelopes.
const (
	hedgeRefreshInterval = time.Second
	hedgeMinDelay        = 25 * time.Microsecond
	hedgeMaxDelay        = 100 * time.Millisecond
	hedgeDefaultDelay    = time.Millisecond
	hedgeMinSamples      = 32
)

// hedgeTracker owns the read-RTT histogram and a cached hedge delay
// refreshed from its p99 at most once per hedgeRefreshInterval, so the
// hot path loads one atomic instead of walking histogram buckets.
//
// Only RTTs of responses that were ACCEPTED toward a read quorum are
// recorded: a straggler that loses the race drains into the fan-out's
// buffered channel after the read returned and never reaches the
// tracker, so a persistently slow replica cannot poison the delay that
// is supposed to route around it.
type hedgeTracker struct {
	hist    *telemetry.Histogram
	delayNS atomic.Int64
	lastNS  atomic.Int64 // unix nanos of the last refresh
}

func newHedgeTracker(hist *telemetry.Histogram) *hedgeTracker {
	t := &hedgeTracker{hist: hist}
	t.delayNS.Store(int64(hedgeDefaultDelay))
	return t
}

// observe records one accepted remote read RTT.
func (t *hedgeTracker) observe(d time.Duration) {
	if t == nil {
		return
	}
	t.hist.Record(d.Nanoseconds())
}

// delay returns the current hedge delay, refreshing the cached value
// from the histogram's p99 when it is stale. A losing CAS means another
// reader is refreshing; use the cached value.
func (t *hedgeTracker) delay(now time.Time) time.Duration {
	if t == nil {
		return hedgeDefaultDelay
	}
	nowNS := now.UnixNano()
	last := t.lastNS.Load()
	if nowNS-last >= int64(hedgeRefreshInterval) && t.lastNS.CompareAndSwap(last, nowNS) {
		if t.hist.Count() >= hedgeMinSamples {
			p99 := t.hist.Snapshot().Quantile(0.99)
			if p99 < int64(hedgeMinDelay) {
				p99 = int64(hedgeMinDelay)
			}
			if p99 > int64(hedgeMaxDelay) {
				p99 = int64(hedgeMaxDelay)
			}
			t.delayNS.Store(p99)
		}
	}
	return time.Duration(t.delayNS.Load())
}
