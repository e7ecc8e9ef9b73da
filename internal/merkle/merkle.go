// Package merkle implements the Merkle trees the Skute prototype uses for
// anti-entropy: two replicas of a partition exchange trees over their key
// range and walk mismatching branches to find exactly the keys whose
// versions differ, synchronizing with bandwidth proportional to the
// divergence instead of the partition size.
package merkle

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// Digest is the node hash type.
type Digest [sha256.Size]byte

// zeroDigest marks empty subtrees.
var zeroDigest Digest

// Leaf is one (key, version-fingerprint) pair of the tree. The version
// fingerprint should cover the value and its clock, e.g. a hash of both.
type Leaf struct {
	Key  string
	Hash Digest
}

// HashValue fingerprints a value and its version metadata into a leaf
// hash.
func HashValue(parts ...[]byte) Digest {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:]) // length-prefix to avoid concatenation ambiguity
		h.Write(p)
	}
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

// Tree is a balanced binary hash tree over sorted leaves. Interior nodes
// hash their children; comparing two trees' roots answers "identical?" in
// O(1), and DiffKeys walks only mismatching branches.
type Tree struct {
	leaves []Leaf     // sorted by key
	levels [][]Digest // levels[0] = leaf hashes, last = [root]
}

// Build constructs a tree over the leaves; input order does not matter.
func Build(leaves []Leaf) *Tree {
	ls := append([]Leaf(nil), leaves...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	t := &Tree{leaves: ls}
	level := make([]Digest, len(ls))
	for i, l := range ls {
		level[i] = hashLeaf(l)
	}
	t.levels = append(t.levels, level)
	for len(level) > 1 {
		next := make([]Digest, (len(level)+1)/2)
		for i := range next {
			if 2*i+1 < len(level) {
				next[i] = hashPair(level[2*i], level[2*i+1])
			} else {
				next[i] = hashPair(level[2*i], zeroDigest)
			}
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t
}

// appendPart lays out one part as HashValue does: its length as 8
// little-endian bytes, then its bytes.
func appendPart[T string | []byte](b []byte, p T) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(p)))
	return append(b, p...)
}

// hashLeaf is HashValue("leaf", key, fingerprint), laid out in a stack
// buffer; a key longer than 192 bytes grows it onto the heap.
func hashLeaf(l Leaf) Digest {
	var buf [3*8 + 4 + 192 + sha256.Size]byte
	b := appendPart(buf[:0], "leaf")
	b = appendPart(b, l.Key)
	return sha256.Sum256(appendPart(b, l.Hash[:]))
}

// hashPair is HashValue("node", a, b), laid out in a stack buffer.
func hashPair(a, b Digest) Digest {
	var buf [3*8 + 4 + 2*sha256.Size]byte
	p := appendPart(buf[:0], "node")
	p = appendPart(p, a[:])
	return sha256.Sum256(appendPart(p, b[:]))
}

// Root returns the root digest; the zero Digest for an empty tree.
func (t *Tree) Root() Digest {
	if len(t.leaves) == 0 {
		return zeroDigest
	}
	return t.levels[len(t.levels)-1][0]
}

// Len returns the number of leaves.
func (t *Tree) Len() int { return len(t.leaves) }

// Keys returns the sorted leaf keys.
func (t *Tree) Keys() []string {
	ks := make([]string, len(t.leaves))
	for i, l := range t.leaves {
		ks[i] = l.Key
	}
	return ks
}

// DiffKeys returns the union of keys whose leaf hashes differ between the
// two trees, including keys present in only one tree. Both key lists are
// sorted, so the walk is a linear merge guided by subtree equality: equal
// roots short-circuit to nothing.
func DiffKeys(a, b *Tree) []string {
	if a.Root() == b.Root() {
		return nil
	}
	var diff []string
	i, j := 0, 0
	for i < len(a.leaves) && j < len(b.leaves) {
		la, lb := a.leaves[i], b.leaves[j]
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
	for ; i < len(a.leaves); i++ {
		diff = append(diff, a.leaves[i].Key)
	}
	for ; j < len(b.leaves); j++ {
		diff = append(diff, b.leaves[j].Key)
	}
	return diff
}
