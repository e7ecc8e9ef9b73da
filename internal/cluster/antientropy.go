package cluster

import (
	"context"
	"fmt"

	"skute/internal/merkle"
	"skute/internal/placement"
	"skute/internal/ring"
	"skute/internal/store"
	"skute/internal/transport"
)

// locate maps a storage key to its (ring, partition) coordinate. It is
// deliberately lock-free — the store write hook calls it under the
// engine's shard lock — which is safe because the rings map and every
// ring's token array are immutable after construction; only partition
// replica sets mutate, and Lookup never reads those.
func (n *Node) locate(sk string) (placement.Key, bool) {
	user, rid := splitStorageKey(sk)
	if rid == (ring.RingID{}) {
		return placement.Key{}, false
	}
	r := n.rings.Ring(rid)
	if r == nil {
		return placement.Key{}, false
	}
	return placement.Key{Ring: rid, Part: r.Lookup(ring.HashKey(user)).ID}, true
}

// treeFor returns the partition's incremental Merkle tree, creating an
// empty one on first touch.
func (n *Node) treeFor(id ring.RingID, part int) *merkle.Incremental {
	k := placement.Key{Ring: id, Part: part}
	n.tmu.RLock()
	t := n.trees[k]
	n.tmu.RUnlock()
	if t != nil {
		return t
	}
	n.tmu.Lock()
	defer n.tmu.Unlock()
	if t = n.trees[k]; t == nil {
		t = merkle.NewIncremental()
		n.trees[k] = t
	}
	return t
}

// initTrees seeds the per-partition trees from whatever the engine
// already holds (a WAL-recovered store) and installs the write hook
// that keeps them current on every accepted mutation. The hook fires
// under the engine's shard lock with the post-apply fingerprint, so the
// trees never lag the store and anti-entropy starts from always-current
// roots instead of a full rescan per round.
func (n *Node) initTrees() {
	for _, l := range n.eng.MerkleLeaves(nil) {
		if k, ok := n.locate(l.Key); ok {
			n.treeFor(k.Ring, k.Part).Update(l.Key, l.Hash)
		}
	}
	n.eng.SetWriteHook(func(key string, sum merkle.Digest, deleted bool) {
		k, ok := n.locate(key)
		if !ok {
			return
		}
		t := n.treeFor(k.Ring, k.Part)
		if deleted {
			t.Delete(key)
		} else {
			t.Update(key, sum)
		}
	})
}

// handleLeaves serves the Merkle leaves of a partition's local data. A
// request whose root matches ours short-circuits to Same — the O(1)
// steady-state path that skips both the leaf export and the transfer.
func (n *Node) handleLeaves(req leavesReq) (transport.Envelope, error) {
	if _, _, err := n.partition(req.Ring, req.Part); err != nil {
		return transport.Envelope{Kind: "ok", Payload: encode(leavesResp{})}, nil
	}
	t := n.treeFor(req.Ring, req.Part)
	if len(req.Root) == len(merkle.Digest{}) {
		var root merkle.Digest
		copy(root[:], req.Root)
		if root == t.Root() {
			return transport.Envelope{Kind: "ok", Payload: encode(leavesResp{Same: true})}, nil
		}
	}
	resp := leavesResp{}
	for _, l := range t.Leaves() {
		resp.Keys = append(resp.Keys, l.Key)
		h := make([]byte, len(l.Hash))
		copy(h, l.Hash[:])
		resp.Hashes = append(resp.Hashes, h)
	}
	return transport.Envelope{Kind: "ok", Payload: encode(resp)}, nil
}

// partitionLeaves exports the partition's Merkle leaves, key-sorted,
// straight from the incremental tree — no engine scan.
func (n *Node) partitionLeaves(id ring.RingID, part int) []merkle.Leaf {
	if _, _, err := n.partition(id, part); err != nil {
		return nil
	}
	return n.treeFor(id, part).Leaves()
}

// SyncPartition runs one round of Merkle anti-entropy between this node
// and the named peer for a partition both replicate. The write-hook-
// maintained roots make the common case one RPC: if the peer's root
// matches ours it answers Same and the round costs nothing further.
// Otherwise both sides converge on the differing keys in three batched
// steps: one multi-get pulls the peer's versions, one PutBatch merges
// them here, and one multi-put pushes the merged sets back. It returns
// the number of keys repaired — counted only once the push is
// acknowledged, so a failed round reports zero with its error; the
// context bounds every exchange of the round.
func (n *Node) SyncPartition(ctx context.Context, id ring.RingID, part int, peer string) (int, error) {
	info, ok := n.info(peer)
	if !ok {
		return 0, fmt.Errorf("cluster: unknown peer %q", peer)
	}
	tree := n.treeFor(id, part)
	root := tree.Root()

	resp, err := n.tr.Call(ctx, info.Addr, transport.Envelope{
		Kind:    kindLeaves,
		Payload: encode(leavesReq{Ring: id, Part: part, Root: root[:]}),
	})
	if err != nil {
		return 0, err
	}
	var lr leavesResp
	if err := decode(resp.Payload, &lr); err != nil {
		return 0, err
	}
	if lr.Same {
		n.counters.AntiEntropyRootHits.Inc()
		return 0, nil
	}
	remoteLeaves := make([]merkle.Leaf, len(lr.Keys))
	for i, k := range lr.Keys {
		remoteLeaves[i].Key = k
		copy(remoteLeaves[i].Hash[:], lr.Hashes[i])
	}

	var keys []string
	for _, sk := range merkle.DiffSorted(tree.Leaves(), remoteLeaves) {
		if userKey, rid := splitStorageKey(sk); rid == id {
			keys = append(keys, userKey)
		}
	}
	if len(keys) == 0 {
		return 0, nil
	}
	resp, err = n.tr.Call(ctx, info.Addr, transport.Envelope{
		Kind:    kindMultiGet,
		Payload: encode(multiGetReq{Ring: id, Keys: keys}),
	})
	if err != nil {
		return 0, fmt.Errorf("cluster: anti-entropy pull of %s#%d from %s: %w", id, part, peer, err)
	}
	var mr multiGetResp
	if err := decode(resp.Payload, &mr); err != nil {
		return 0, err
	}
	var pulled []store.Item
	for _, item := range mr.Items {
		for _, v := range item.Versions {
			pulled = append(pulled, store.Item{Key: storageKey(id, item.Key), Version: v})
		}
	}
	if _, err := n.eng.PutBatch(pulled); err != nil {
		return 0, err
	}
	var push []putItem
	for _, k := range keys {
		for _, v := range n.eng.Get(storageKey(id, k)) {
			push = append(push, putItem{Key: k, Version: v})
		}
	}
	if _, err := n.tr.Call(ctx, info.Addr, transport.Envelope{
		Kind:    kindMultiPut,
		Payload: encode(multiPutReq{Ring: id, Items: push}),
	}); err != nil {
		return 0, fmt.Errorf("cluster: anti-entropy push of %s#%d to %s: %w", id, part, peer, err)
	}
	return len(keys), nil
}

// handoffSync drains this node's copy of a partition into every alive
// surviving replica — one Merkle catch-up round per peer — before a
// departing replica deletes its local data. The adopt transfer is a
// cursor-ordered snapshot, so writes this node acknowledged while the
// pull ran may exist nowhere else yet; dropping without this drain lets
// a migration (or two replicas of the same partition migrating inside
// one epoch window) globally lose an acknowledged write. Best effort
// per peer: one reachable survivor receiving the drain is enough for
// anti-entropy and read repair to spread the version from there.
func (n *Node) handoffSync(ctx context.Context, id ring.RingID, part int) {
	e, ok := n.pmap.Get(id, part)
	if !ok {
		return
	}
	for _, peer := range e.Replicas {
		if peer == n.self.Name || !n.alive(peer) {
			continue
		}
		if pushed, err := n.SyncPartition(ctx, id, part, peer); err == nil && pushed > 0 {
			n.trace.Add("handoff", "%s#%d drained %d keys to %s", id, part, pushed, peer)
		}
	}
}

// RunAntiEntropy performs one anti-entropy round: for every partition
// this node replicates, it synchronizes with one alive peer replica
// (rotating deterministically by round). It returns the total keys
// repaired. The node runtime (Start) drives this on a timer; the
// context bounds the whole round.
func (n *Node) RunAntiEntropy(ctx context.Context, round int) (int, error) {
	type job struct {
		id   ring.RingID
		part int
		peer string
	}
	n.counters.AntiEntropyRounds.Inc()
	var jobs []job
	n.mu.RLock()
	for _, rid := range n.rings.IDs() {
		for _, p := range n.rings.Ring(rid).Partitions() {
			if !p.HasReplica(ring.ServerID(n.selfI)) || len(p.Replicas) < 2 {
				continue
			}
			peers := make([]string, 0, len(p.Replicas)-1)
			for _, id := range p.Replicas {
				if int(id) != n.selfI {
					peers = append(peers, n.nodeName(id))
				}
			}
			jobs = append(jobs, job{rid, p.ID, peers[round%len(peers)]})
		}
	}
	n.mu.RUnlock()

	total := 0
	var firstErr error
	for _, j := range jobs {
		if err := ctx.Err(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		if !n.alive(j.peer) {
			continue
		}
		repaired, err := n.SyncPartition(ctx, j.id, j.part, j.peer)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		total += repaired
	}
	n.counters.AntiEntropyKeys.Add(int64(total))
	return total, firstErr
}

// splitStorageKey recovers (user key, ring id) from a storage key of the
// form app/class/key. Keys containing slashes survive because only the
// first two segments are ring metadata.
func splitStorageKey(sk string) (string, ring.RingID) {
	var id ring.RingID
	i := indexByte(sk, '/')
	if i < 0 {
		return sk, id
	}
	id.App = sk[:i]
	rest := sk[i+1:]
	j := indexByte(rest, '/')
	if j < 0 {
		return sk, ring.RingID{}
	}
	id.Class = rest[:j]
	return rest[j+1:], id
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}
