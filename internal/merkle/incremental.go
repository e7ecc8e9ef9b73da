package merkle

import (
	"crypto/sha256"
	"sort"
	"sync"
)

// Incremental is a write-maintained Merkle tree: a canonical binary
// hash-trie keyed by the bits of sha256(key). Where Tree is rebuilt
// from a full scan per anti-entropy round, Incremental absorbs every
// store write as it happens: the write marks its O(depth) ≈ O(log n)
// path dirty, and the next Root rehashes only the dirty nodes, so
// comparing two replicas starts from a current root without a rescan.
//
// The shape is canonical — determined solely by the key set, never by
// the insertion or deletion order: a leaf lives at the shallowest depth
// where its hash-path prefix is unique among present keys (inserts
// split at the first diverging bit; deletes hoist a lone leaf back up).
// Two replicas holding the same (key, fingerprint) pairs therefore
// agree on the root byte-for-byte, which is what lets anti-entropy
// short-circuit on root equality.
//
// Leaf and interior hashes reuse the package's hashLeaf/hashPair
// formulas, but the shape differs from Tree's balanced array form, so
// Incremental roots only compare against other Incremental roots.
// Incremental is safe for concurrent use.
type Incremental struct {
	mu    sync.RWMutex
	root  *trieNode
	count int
}

// trieNode is one trie node: a leaf (leaf != nil) or an interior node
// with up to two children (a nil child hashes as zeroDigest). hash is
// current only while dirty is false: writes mark the nodes they change,
// and every ancestor of a dirty node is dirty, so Root rehashes exactly
// the dirty nodes, bottom-up.
type trieNode struct {
	leaf  *Leaf
	child [2]*trieNode
	hash  Digest
	dirty bool
}

// leafNode allocates a leaf's trie node and its Leaf together.
type leafNode struct {
	trieNode
	l Leaf
}

func newLeaf(key string, hash Digest) *trieNode {
	n := &leafNode{l: Leaf{Key: key, Hash: hash}}
	n.leaf = &n.l
	n.dirty = true
	return &n.trieNode
}

// NewIncremental returns an empty tree.
func NewIncremental() *Incremental {
	return &Incremental{}
}

// pathBit extracts bit i (big-endian) of the key digest.
func pathBit(d Digest, i int) int {
	return int(d[i/8]>>(7-i%8)) & 1
}

func keyDigest(key string) Digest {
	return Digest(sha256.Sum256([]byte(key)))
}

// rehash recomputes the hashes of n's dirty subtree.
func (n *trieNode) rehash() {
	if !n.dirty {
		return
	}
	n.dirty = false
	if n.leaf != nil {
		n.hash = hashLeaf(*n.leaf)
		return
	}
	left, right := zeroDigest, zeroDigest
	if c := n.child[0]; c != nil {
		c.rehash()
		left = c.hash
	}
	if c := n.child[1]; c != nil {
		c.rehash()
		right = c.hash
	}
	n.hash = hashPair(left, right)
}

// Update inserts the key or replaces its fingerprint. It marks the
// path it walks dirty and hashes nothing but the key (and, on a split,
// the displaced key): Root does the rest.
func (t *Incremental) Update(key string, hash Digest) {
	kd := keyDigest(key)
	t.mu.Lock()
	defer t.mu.Unlock()
	link := &t.root
	depth := 0
	for *link != nil && (*link).leaf == nil {
		n := *link
		n.dirty = true
		link = &n.child[pathBit(kd, depth)]
		depth++
	}
	old := *link
	switch {
	case old == nil:
		*link = newLeaf(key, hash)
	case old.leaf.Key == key:
		old.leaf.Hash = hash
		old.dirty = true
		return
	default:
		// Split: both keys share the path down to depth; build the
		// interior chain to their first diverging bit.
		od := keyDigest(old.leaf.Key)
		for d := depth; ; d++ {
			cur := &trieNode{dirty: true}
			*link = cur
			ob, nb := pathBit(od, d), pathBit(kd, d)
			if ob != nb {
				cur.child[ob] = old
				cur.child[nb] = newLeaf(key, hash)
				break
			}
			link = &cur.child[ob]
		}
	}
	t.count++
}

// Delete removes the key; absent keys are a no-op.
func (t *Incremental) Delete(key string) {
	kd := keyDigest(key)
	t.mu.Lock()
	defer t.mu.Unlock()
	var removed bool
	if t.root, removed = remove(t.root, key, kd, 0); removed {
		t.count--
	}
}

// remove deletes the key from the subtree at n, which sits at the given
// depth, and returns the subtree's new top and whether the key was
// there. On the way back up it marks the path dirty and collapses it:
// an interior node left with no children vanishes; one left with a lone
// LEAF child is replaced by that leaf (the leaf's unique-prefix depth
// shrank). A lone interior child stays — it still separates two or more
// deeper keys.
func remove(n *trieNode, key string, kd Digest, depth int) (*trieNode, bool) {
	if n == nil {
		return nil, false
	}
	if n.leaf != nil {
		if n.leaf.Key != key {
			return n, false
		}
		return nil, true
	}
	b := pathBit(kd, depth)
	c, removed := remove(n.child[b], key, kd, depth+1)
	if !removed {
		return n, false
	}
	n.child[b] = c
	n.dirty = true
	other := n.child[1-b]
	switch {
	case c == nil && other == nil:
		return nil, true
	case c == nil && other.leaf != nil:
		return other, true
	case other == nil && c.leaf != nil:
		return c, true
	}
	return n, true
}

// Root returns the current root digest; the zero Digest when empty. It
// rehashes whatever the writes since the last Root left dirty, under
// the write lock.
func (t *Incremental) Root() Digest {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == nil {
		return zeroDigest
	}
	t.root.rehash()
	return t.root.hash
}

// Len returns the number of keys.
func (t *Incremental) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.count
}

// Leaves returns every (key, fingerprint) pair sorted by key — the
// exchange format of anti-entropy (trie order is hash order, so the
// export re-sorts lexicographically for DiffSorted and pagination).
func (t *Incremental) Leaves() []Leaf {
	t.mu.RLock()
	out := make([]Leaf, 0, t.count)
	var walk func(n *trieNode)
	walk = func(n *trieNode) {
		if n == nil {
			return
		}
		if n.leaf != nil {
			out = append(out, *n.leaf)
			return
		}
		walk(n.child[0])
		walk(n.child[1])
	}
	walk(t.root)
	t.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// LeavesAfter returns up to max leaves with keys strictly greater than
// after, in key order — the pagination primitive of chunked partition
// transfer. max <= 0 means no limit.
func (t *Incremental) LeavesAfter(after string, max int) []Leaf {
	ls := t.Leaves()
	i := sort.Search(len(ls), func(i int) bool { return ls[i].Key > after })
	ls = ls[i:]
	if max > 0 && len(ls) > max {
		ls = ls[:max]
	}
	return ls
}

// DiffSorted returns the union of keys whose fingerprints differ
// between two key-sorted leaf lists, including keys present on only one
// side — DiffKeys for exported Incremental leaves.
func DiffSorted(a, b []Leaf) []string {
	var diff []string
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		la, lb := a[i], b[j]
		switch {
		case la.Key == lb.Key:
			if la.Hash != lb.Hash {
				diff = append(diff, la.Key)
			}
			i++
			j++
		case la.Key < lb.Key:
			diff = append(diff, la.Key)
			i++
		default:
			diff = append(diff, lb.Key)
			j++
		}
	}
	for ; i < len(a); i++ {
		diff = append(diff, a[i].Key)
	}
	for ; j < len(b); j++ {
		diff = append(diff, b[j].Key)
	}
	return diff
}
