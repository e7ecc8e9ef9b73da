// Package store implements the versioned in-memory key-value engine of
// one Skute prototype node: multi-version values ordered by vector clocks
// (concurrent writes become siblings, as in Dynamo), tombstoned deletes,
// byte-accurate size accounting for the economy, optional write-ahead
// logging for crash recovery, and Merkle-leaf export for anti-entropy.
//
// The engine is sharded: keys hash (FNV-1a) onto a fixed set of shards,
// each with its own lock and byte accounting, so concurrent readers and
// writers of different keys proceed without contending on a global lock.
//
// Durability is bounded: Checkpoint writes a point-in-time snapshot of
// every shard (internal/snapshot) anchored at a write-ahead-log sequence
// number, then truncates the log segments the snapshot covers
// (internal/wal), so the on-disk footprint and the restart cost of
// Restore are proportional to the live data plus the post-checkpoint log
// tail, never to the full write history. Checkpoint does not stop the
// world — each shard is copied under its own read lock while writers to
// other shards proceed — and the resulting snapshot is still a consistent
// recovery point (see DESIGN.md, "Durability").
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"skute/internal/merkle"
	"skute/internal/parallel"
	"skute/internal/snapshot"
	"skute/internal/telemetry"
	"skute/internal/vclock"
	"skute/internal/wal"
)

// Version is one causally distinct value of a key.
type Version struct {
	Value     []byte
	Clock     vclock.VC
	Tombstone bool
}

// Clone returns a version sharing no mutable state with v.
func (v Version) Clone() Version {
	c := Version{Clock: v.Clock.Clone(), Tombstone: v.Tombstone}
	if v.Value != nil {
		c.Value = append([]byte(nil), v.Value...)
	}
	return c
}

// shardCount is the number of engine shards; a power of two so the shard
// index is a mask of the key hash.
const shardCount = 32

// shard holds one slice of the key space under its own lock.
type shard struct {
	mu   sync.RWMutex
	data map[string][]Version
	// tombs counts the keys of data whose versions are all tombstones.
	tombs int
	// bytes is updated under mu but read lock-free by Engine.Bytes.
	bytes atomic.Int64
}

// Engine is the storage engine of one node. It is safe for concurrent
// use: keys are spread over shardCount independently locked shards.
type Engine struct {
	shards [shardCount]shard
	log    *wal.Log // nil for a purely in-memory engine
	// hook, when set, observes every accepted mutation (see SetWriteHook).
	hook WriteHook

	ckptMu sync.Mutex // serializes checkpoints
	statMu sync.Mutex // guards dur
	dur    DurabilityStats
}

// DurabilityStats are the checkpoint/recovery counters of an engine,
// exported through the admin endpoint. The Snapshot*/Tail* fields
// describe the last boot; the Checkpoint*/Segments* fields accumulate
// over the engine's lifetime; the WAL* fields are read live.
type DurabilityStats struct {
	SnapshotSeq   uint64 // WAL seq of the snapshot loaded at boot (0 = cold boot)
	SnapshotBytes int64  // size of that snapshot file
	TailRecords   int64  // WAL records replayed at boot (past the snapshot)
	TailSkipped   int64  // WAL records skipped at boot (already in the snapshot)
	TailBytes     int64  // payload bytes replayed at boot

	Checkpoints         int64  // checkpoints taken since boot
	LastCheckpointSeq   uint64 // WAL seq the newest checkpoint covers
	LastCheckpointBytes int64  // size of the newest snapshot file
	SegmentsReclaimed   int64  // WAL segment files deleted by checkpoints

	WALRecords  int64 // records appended + replayed (live)
	WALSyncs    int64 // fsyncs issued by group commit (live)
	WALSegments int   // segment files, including the active one (live)
}

// shardOf maps a key to its shard by FNV-1a hash.
func (e *Engine) shardOf(key string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &e.shards[h&(shardCount-1)]
}

// NewMemory returns an engine without a write-ahead log.
func NewMemory() *Engine {
	e := &Engine{}
	for i := range e.shards {
		e.shards[i].data = make(map[string][]Version)
	}
	return e
}

// Options tunes the durable boot paths; the zero value selects the
// defaults.
type Options struct {
	WAL wal.Options
}

// Open returns an engine backed by the write-ahead log directory at
// walDir, replaying every record — Restore without a snapshot directory.
func Open(walDir string) (*Engine, error) {
	return RestoreOptions(walDir, "", Options{})
}

// Restore boots an engine from its snapshot directory and write-ahead
// log: it loads the newest valid snapshot (if any) and then replays only
// the log tail past the snapshot's sequence number, so restart cost is
// bounded by live data plus the records written since the last
// Checkpoint. Records the snapshot already covers are skipped by
// sequence number; re-replaying ones the snapshot raced past is harmless
// because vector-clock application is idempotent. An empty snapDir skips
// snapshots entirely.
func Restore(walDir, snapDir string) (*Engine, error) {
	return RestoreOptions(walDir, snapDir, Options{})
}

// RestoreOptions is Restore with explicit tuning.
func RestoreOptions(walDir, snapDir string, o Options) (*Engine, error) {
	e := NewMemory()
	var snapSeq uint64
	if snapDir != "" {
		info, blobs, err := snapshot.Latest(snapDir)
		switch {
		case err == nil:
			if err := e.loadSnapshot(blobs); err != nil {
				return nil, err
			}
			snapSeq = info.Seq
			e.dur.SnapshotSeq = info.Seq
			e.dur.SnapshotBytes = info.Bytes
		case errors.Is(err, snapshot.ErrNoSnapshot):
			// Cold boot (or every snapshot generation corrupt): fall back
			// to full WAL replay; the gap check below catches the case
			// where the WAL alone is no longer enough.
		default:
			return nil, err
		}
	}
	l, err := wal.OpenOptions(walDir, o.WAL, func(seq uint64, payload []byte) error {
		if seq <= snapSeq {
			e.dur.TailSkipped++
			return nil
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("record %d: %w", seq, err)
		}
		s := e.shardOf(rec.Key)
		if rec.Drop {
			s.drop(rec.Key)
		} else {
			// Freshly decoded, uniquely owned: no defensive copy.
			s.apply(rec.Key, rec.Version)
		}
		e.dur.TailRecords++
		e.dur.TailBytes += int64(len(payload))
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A log whose history was truncated needs a snapshot covering the
	// truncation point; booting without one would silently lose data.
	if first := l.FirstSeq(); first > snapSeq+1 {
		l.Close()
		return nil, fmt.Errorf("store: wal starts at seq %d but newest usable snapshot covers seq %d — refusing a partial restore", first, snapSeq)
	}
	// Conversely, a log that sits BEHIND the snapshot (lost volume, wrong
	// -wal path, operator wipe) would re-issue sequence numbers the
	// snapshot already covers; the next restore would then skip those
	// acknowledged writes as "already in the snapshot". Refuse now rather
	// than acknowledge writes a later boot will silently drop.
	if last := l.LastSeq(); last < snapSeq {
		l.Close()
		return nil, fmt.Errorf("store: wal ends at seq %d but the snapshot covers seq %d — wal and snapshot directories do not belong together", last, snapSeq)
	}
	e.log = l
	return e, nil
}

// loadSnapshot fills the engine's shards from snapshot payloads (one
// shard blob per saved shard, see record.go, decoded concurrently). Keys
// are redistributed through shardOf, so the engine's shard count may
// differ from the snapshot's.
func (e *Engine) loadSnapshot(blobs [][]byte) error {
	shards := make([][]shardEntry, len(blobs))
	errs := make([]error, len(blobs))
	parallel.ForEach(len(blobs), 0, func(i int) {
		if len(blobs[i]) == 0 {
			return
		}
		shards[i], errs[i] = decodeShard(blobs[i])
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("store: snapshot shard %d: %w", i, err)
		}
	}
	for _, entries := range shards {
		for _, en := range entries {
			s := e.shardOf(en.Key)
			s.set(en.Key, en.Versions)
			var b int64
			for _, v := range en.Versions {
				b += int64(len(v.Value))
			}
			s.bytes.Add(b)
		}
	}
	return nil
}

// Checkpoint writes a snapshot of the whole engine into snapDir and
// truncates the write-ahead log segments it covers, bounding both the
// on-disk footprint and the next restart's replay work. It does not stop
// the world: the snapshot anchor is the log's last durably flushed
// sequence number (every record at or below it is already applied,
// because a record is only flushed after Enqueue, and Enqueue happens
// under its shard's write lock after applying), and each shard is then
// copied under its own read lock — writers to other shards never block,
// and writers to the same shard only wait for a map copy, not for
// encoding or disk I/O. Records past the anchor — enqueued but not yet
// flushed, or landing while later shards were copied — may or may not be
// caught in the copies; either way replay past the anchor reproduces the
// exact engine state because version application is idempotent and
// replay happens in log order. Anchoring at the flushed (not the last
// assigned) sequence number also keeps the snapshot within what the log
// durably holds: a crash right after the snapshot renames into place can
// never leave it claiming records the recovered log lacks, which Restore
// would refuse as a mismatched wal/snapshot pair.
//
// It returns the sequence number the snapshot covers. Concurrent
// checkpoints are serialized.
func (e *Engine) Checkpoint(snapDir string) (uint64, error) {
	if e.log == nil {
		return 0, errors.New("store: checkpoint requires a write-ahead log")
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()

	// A failed log means some writes were applied in memory but will never
	// be durable — their callers saw an error. Baking that state into a
	// snapshot would resurrect them on the next boot, so refuse.
	if err := e.log.Err(); err != nil {
		return 0, fmt.Errorf("store: refusing checkpoint on a failed wal: %w", err)
	}

	seq := e.log.LastFlushed()
	blobs := make([][]byte, shardCount)
	parallel.ForEach(shardCount, 0, func(i int) {
		s := &e.shards[i]
		// Copy-on-read: stored sibling slices are never mutated in place
		// (apply builds fresh slices), so a shallow copy is a stable
		// point-in-time view and encoding can run outside the lock.
		s.mu.RLock()
		entries := make([]shardEntry, 0, len(s.data))
		for k, vs := range s.data {
			entries = append(entries, shardEntry{Key: k, Versions: vs})
		}
		s.mu.RUnlock()
		blobs[i] = encodeShard(entries)
	})

	// Drain the group-commit queue before writing the snapshot: any record
	// the copies can contain was enqueued before its shard was copied, so
	// after a successful Flush everything in the blobs is durably logged —
	// a write whose commit round failed (its caller saw an error) can
	// never be baked into a snapshot and resurrected on a later boot.
	if err := e.log.Flush(); err != nil {
		return 0, fmt.Errorf("store: refusing checkpoint on a failed wal: %w", err)
	}
	info, err := snapshot.Write(snapDir, seq, blobs)
	if err != nil {
		return 0, err
	}
	// The snapshot is durable from here on: record it before retention and
	// log reclamation, which can fail independently — the counters must
	// reflect the checkpoint that exists on disk either way.
	e.statMu.Lock()
	e.dur.Checkpoints++
	e.dur.LastCheckpointSeq = seq
	e.dur.LastCheckpointBytes = info.Bytes
	e.statMu.Unlock()
	// Retain the log back to the OLDEST snapshot generation still on disk,
	// not just the one written above: if the newest snapshot is later
	// found corrupt, Restore falls back to the previous generation, which
	// is only usable while the log still covers the span between them.
	retained, err := snapshot.Prune(snapDir, snapshot.KeepGenerations)
	if err != nil {
		// Without knowing what pruning kept, the safe truncation anchor is
		// unknown — skip reclamation this round rather than guess.
		return seq, fmt.Errorf("store: checkpoint written but snapshot pruning failed: %w", err)
	}
	anchor := seq + 1
	if len(retained) > 0 {
		anchor = retained[0].Seq + 1
	}
	removed, err := e.log.TruncateBefore(anchor)
	if err != nil {
		// The snapshot is durable; only log reclamation failed. Surface
		// the error but report the covered sequence number.
		return seq, fmt.Errorf("store: checkpoint written but wal truncation failed: %w", err)
	}

	e.statMu.Lock()
	e.dur.SegmentsReclaimed += int64(removed)
	e.statMu.Unlock()
	return seq, nil
}

// Durability returns the engine's checkpoint/recovery counters, with the
// live WAL fields filled in.
func (e *Engine) Durability() DurabilityStats {
	e.statMu.Lock()
	d := e.dur
	e.statMu.Unlock()
	if e.log != nil {
		d.WALRecords = e.log.Records()
		d.WALSyncs = e.log.Syncs()
		d.WALSegments = e.log.Segments()
	}
	return d
}

// FsyncLatency exposes the WAL's commit-fsync histogram, or nil for a
// purely in-memory engine (which has no durability stall to measure).
func (e *Engine) FsyncLatency() *telemetry.Histogram {
	if e.log == nil {
		return nil
	}
	return e.log.FsyncLatency()
}

// Close closes the underlying log, if any.
func (e *Engine) Close() error {
	if e.log != nil {
		return e.log.Close()
	}
	return nil
}

// WriteHook observes every accepted mutation of the engine: sum is the
// Merkle-leaf fingerprint of the key's POST-apply sibling set (the same
// digest MerkleLeaves exports), and deleted marks a Drop that removed
// the key outright. The hook is invoked under the mutated shard's write
// lock — immediately after the mutation applies, so concurrent writers
// of the same key deliver their fingerprints in apply order — and must
// therefore be fast and must not call back into the engine. WAL replay
// and snapshot load at boot do not fire the hook (install it after
// Restore and seed from a scan).
type WriteHook func(key string, sum merkle.Digest, deleted bool)

// SetWriteHook installs the mutation observer. It must be called before
// the engine is shared across goroutines (boot time); passing nil
// removes the hook.
func (e *Engine) SetWriteHook(h WriteHook) { e.hook = h }

// tombBytes is the tombstone part of a version's fingerprint.
var tombBytes = [2][]byte{{0}, {1}}

// leafSum fingerprints a sibling set into its Merkle-leaf hash: the hash
// of each version's hash over its value, its clock's String text and a
// tombstone byte, all laid out as merkle.HashValue lays out its parts
// (each behind its 8-byte little-endian length). It writes that layout
// itself so that one SHA-256 state serves every version and the
// versions' sums stay on the stack. Caller holds the shard lock (or
// owns vs).
func leafSum(vs []Version) merkle.Digest {
	h := sha256.New()
	var n [8]byte
	part := func(p []byte) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	var stack [4]merkle.Digest
	sums := stack[:0]
	if len(vs) > len(stack) {
		sums = make([]merkle.Digest, 0, len(vs))
	}
	var text [64]byte
	for _, v := range vs {
		tomb := tombBytes[0]
		if v.Tombstone {
			tomb = tombBytes[1]
		}
		part(v.Value)
		part(v.Clock.AppendString(text[:0]))
		part(tomb)
		var d merkle.Digest
		h.Sum(d[:0])
		h.Reset()
		sums = append(sums, d)
	}
	for i := range sums {
		part(sums[i][:])
	}
	var d merkle.Digest
	h.Sum(d[:0])
	return d
}

// Get returns the current sibling set of the key (no tombstones filtered;
// callers decide). The result is a deep copy: mutating the returned
// values or clocks cannot corrupt engine state.
func (e *Engine) Get(key string) []Version {
	s := e.shardOf(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	vs := s.data[key]
	if len(vs) == 0 {
		return nil
	}
	out := make([]Version, len(vs))
	for i, v := range vs {
		out[i] = v.Clone()
	}
	return out
}

// Put applies a version to the key under vector-clock causality: versions
// dominated by the new clock are dropped, a version dominating the new
// one makes the put a no-op, and concurrent versions coexist as siblings.
// It reports whether the version was accepted (i.e. changed state). It is
// a one-item PutBatch of a private copy of v, so the caller keeps
// ownership of v's value and clock.
func (e *Engine) Put(key string, v Version) (bool, error) {
	accepted, err := e.PutBatch([]Item{{Key: key, Version: v.Clone()}})
	return accepted == 1, err
}

// Item is one key/version pair of a PutBatch.
type Item struct {
	Key     string
	Version Version
}

// PutBatch applies every item as Put would, in order, and makes the batch
// durable with a single group-commit wait. It returns how many items were
// accepted; dominated items change nothing and are not logged.
//
// PutBatch takes ownership of the items' values and clocks: the engine
// stores them as they are, so the caller must not change them after the
// call, and must pass a copy of anything it shares (Put does).
//
// The write order is: (1) encode and size-check every record before
// anything is applied, so an oversized or unencodable item fails the
// batch with no state changed; (2) per item, under its shard lock, apply
// it, run the write hook and Enqueue its record — pinning the log order
// of same-key records to the order they were applied, so a crash replay
// reconstructs the exact engine state; (3) after every lock is released,
// Commit only the last record's sequence number. Commit rounds write
// records in sequence order and a failed round poisons the log for every
// later one, so the last record's outcome covers the whole batch, and
// readers of a shard never stall behind the batch's fsync. Records of
// different keys commute on replay, so cross-shard ordering is
// unconstrained.
//
// Once a version is applied its record must reach the log, or a write
// whose caller saw an error would live on in memory and be baked into the
// next snapshot. With the encode hoisted out, Enqueue under the lock can
// only fail by poisoning the whole log — and a poisoned log refuses to
// checkpoint.
func (e *Engine) PutBatch(items []Item) (int, error) {
	var recs [][]byte
	if e.log != nil {
		var err error
		if recs, err = encodeItems(items); err != nil {
			return 0, err
		}
	}
	accepted := 0
	var last uint64
	for i, it := range items {
		s := e.shardOf(it.Key)
		s.mu.Lock()
		if !s.apply(it.Key, it.Version) {
			s.mu.Unlock()
			continue
		}
		accepted++
		if e.hook != nil {
			e.hook(it.Key, leafSum(s.data[it.Key]), false)
		}
		if e.log != nil {
			seq, err := e.log.Enqueue(recs[i])
			if err != nil {
				s.mu.Unlock()
				return accepted, err
			}
			last = seq
		}
		s.mu.Unlock()
	}
	if last == 0 {
		return accepted, nil
	}
	return accepted, e.log.Commit(last)
}

// apply merges the version into the sibling set and stores v as it is;
// caller holds mu and owns v.
func (s *shard) apply(key string, v Version) bool {
	old := s.data[key]
	kept := old[:0:0]
	for _, o := range old {
		switch v.Clock.Compare(o.Clock) {
		case vclock.After:
			// new version supersedes o: drop o
			s.bytes.Add(-int64(len(o.Value)))
		case vclock.Equal, vclock.Before:
			// existing state already covers the write
			return false
		default: // concurrent: keep as sibling
			kept = append(kept, o)
		}
	}
	kept = append(kept, v)
	sortSiblings(kept)
	s.set(key, kept)
	s.bytes.Add(int64(len(v.Value)))
	return true
}

// Drop removes a key and all its versions outright — used when a replica
// hands its partition off to another node, as opposed to a user-visible
// delete (which writes a tombstone through Put). It returns the bytes
// freed. Like Put, the WAL record is enqueued under the shard lock (log
// order = apply order) and committed outside it, and encoded before the
// drop is applied so no error path leaves applied-but-unlogged state.
func (e *Engine) Drop(key string) (int64, error) {
	var rec []byte
	if e.log != nil {
		var err error
		if rec, err = encodeRecord(walRecord{Key: key, Drop: true}); err != nil {
			return 0, err
		}
	}
	s := e.shardOf(key)
	s.mu.Lock()
	freed, existed := s.drop(key)
	if existed && e.hook != nil {
		e.hook(key, merkle.Digest{}, true)
	}
	if !existed || e.log == nil {
		s.mu.Unlock()
		return freed, nil
	}
	seq, err := e.log.Enqueue(rec)
	s.mu.Unlock()
	if err != nil {
		return freed, err
	}
	return freed, e.log.Commit(seq)
}

// drop removes the key; caller holds mu. existed distinguishes a real
// removal from a miss (a tombstone-only key frees zero bytes but still
// existed — it must still be logged and reported to the write hook).
func (s *shard) drop(key string) (freed int64, existed bool) {
	vs, existed := s.data[key]
	for _, v := range vs {
		freed += int64(len(v.Value))
	}
	if deleted(vs) {
		s.tombs--
	}
	delete(s.data, key)
	s.bytes.Add(-freed)
	return freed, existed
}

// set replaces the key's versions and keeps tombs; caller holds mu.
func (s *shard) set(key string, vs []Version) {
	if deleted(s.data[key]) {
		s.tombs--
	}
	if deleted(vs) {
		s.tombs++
	}
	s.data[key] = vs
}

// deleted reports whether a key's versions are all tombstones.
func deleted(vs []Version) bool {
	for _, v := range vs {
		if !v.Tombstone {
			return false
		}
	}
	return len(vs) > 0
}

// MergeSiblings folds a set of versions gathered from several replicas
// into the minimal causally consistent sibling set: versions dominated by
// another version are dropped, duplicates collapse, concurrent versions
// survive. The output aliases the input versions — it is a pure function
// over caller-owned data, never over engine internals.
func MergeSiblings(versions []Version) []Version {
	var out []Version
	for _, v := range versions {
		dominated := false
		kept := out[:0] // in-place filter; writes trail the read index
		for _, o := range out {
			switch v.Clock.Compare(o.Clock) {
			case vclock.After:
				continue // o dominated: drop
			case vclock.Equal, vclock.Before:
				dominated = true
			}
			kept = append(kept, o)
		}
		out = kept
		if !dominated {
			out = append(out, v)
		}
	}
	sortSiblings(out)
	return out
}

// sortSiblings orders a sibling set by its clocks' String text, the order
// leafSum fingerprints. It renders each clock once rather than twice per
// comparison, and runs sort.Slice over the same comparisons as before,
// so siblings whose texts tie keep the order they always had.
func sortSiblings(vs []Version) {
	if len(vs) < 2 {
		return
	}
	type keyed struct {
		text string
		v    Version
	}
	ks := make([]keyed, len(vs))
	for i, v := range vs {
		ks[i] = keyed{v.Clock.String(), v}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].text < ks[j].text })
	for i := range ks {
		vs[i] = ks[i].v
	}
}

// Keys returns all keys (including tombstoned ones), sorted.
func (e *Engine) Keys() []string {
	var ks []string
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.RLock()
		for k := range s.data {
			ks = append(ks, k)
		}
		s.mu.RUnlock()
	}
	sort.Strings(ks)
	return ks
}

// Len returns the number of live keys.
func (e *Engine) Len() int {
	n := 0
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.RLock()
		n += len(s.data) - s.tombs
		s.mu.RUnlock()
	}
	return n
}

// Tombstones returns the number of deleted keys whose tombstones are
// still kept for causality.
func (e *Engine) Tombstones() int {
	n := 0
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.RLock()
		n += s.tombs
		s.mu.RUnlock()
	}
	return n
}

// Bytes returns the stored value bytes (the economy's storage usage). It
// sums the per-shard counters without taking any lock, so a read racing
// concurrent writes sees some interleaving of them — exact whenever the
// engine is quiescent, which is when the economy reads it.
func (e *Engine) Bytes() int64 {
	var total int64
	for i := range e.shards {
		total += e.shards[i].bytes.Load()
	}
	return total
}

// MerkleLeaves exports one leaf per key in the half-open hash range
// filter (nil filter = all keys), fingerprinting the full sibling set, for
// anti-entropy tree building.
func (e *Engine) MerkleLeaves(filter func(key string) bool) []merkle.Leaf {
	var leaves []merkle.Leaf
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.RLock()
		for k, vs := range s.data {
			if filter != nil && !filter(k) {
				continue
			}
			leaves = append(leaves, merkle.Leaf{Key: k, Hash: leafSum(vs)})
		}
		s.mu.RUnlock()
	}
	return leaves
}

// Resolve returns the visible value of a sibling set after last-writer
// convention is NOT applied: if exactly one non-tombstone version exists
// it is returned; multiple concurrent versions are all returned for the
// client to reconcile. ok is false when the key is absent or fully
// tombstoned. The values alias the input versions (which Engine.Get
// already deep-copied).
func Resolve(vs []Version) (values [][]byte, ok bool) {
	for _, v := range vs {
		if !v.Tombstone {
			values = append(values, v.Value)
		}
	}
	return values, len(values) > 0
}
