package merkle

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// goldenRoots pins the Incremental root of fixed key sets to the hex
// that earlier releases computed. The other tests compare a tree only
// with another tree of this package, so a hashing change that moves
// every root alike passes them; this one fails, as anti-entropy
// between an old and a new node would (every partition would differ).
var goldenRoots = []struct {
	name  string
	build func(*Incremental)
	want  string
}{
	{"empty", func(*Incremental) {}, strings.Repeat("00", 32)},
	{"one leaf", func(t *Incremental) { t.Update("a", HashValue([]byte("1"))) },
		"804dc988d9747a1ee648ececf75896a3b00a6dc9c44daa6dd212f16e42fbc419"},
	{"two leaves", func(t *Incremental) {
		t.Update("a", HashValue([]byte("1")))
		t.Update("b", HashValue([]byte("2")))
	}, "297ec73f47d7577dd0ed9e30a9c46723443068d13ca77b85bc68e856e1213f59"},
	{"2000 keys, overwrites and deletes", build2000,
		"9ae8d289ea72086604d9145b6855ba2522cfde10ad43dbb673570cd67ed8c6d8"},
	{"long key", func(t *Incremental) {
		t.Update(strings.Repeat("k", 1000), HashValue([]byte("long")))
		t.Update("short", HashValue([]byte("s")))
	}, "327820f19a4a6ceb167c523e13676c95ae7c18eb4ea2a1e3d9a1042b78877239"},
}

// build2000 writes 2 000 keys, overwrites every third and deletes every
// seventh, reading the root now and then on the way as anti-entropy
// does between writes.
func build2000(t *Incremental) {
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("user/%05d", i)
		t.Update(k, HashValue([]byte(k)))
		if i%500 == 0 {
			t.Root()
		}
	}
	for i := 0; i < 2000; i += 3 {
		k := fmt.Sprintf("user/%05d", i)
		t.Update(k, HashValue([]byte(k), []byte("v2")))
	}
	t.Root()
	for i := 0; i < 2000; i += 7 {
		t.Delete(fmt.Sprintf("user/%05d", i))
	}
}

func TestGoldenIncrementalRoots(t *testing.T) {
	for _, g := range goldenRoots {
		tree := NewIncremental()
		g.build(tree)
		if got := fmt.Sprintf("%x", tree.Root()); got != g.want {
			t.Errorf("%s: root %s, want %s", g.name, got, g.want)
		}
	}
}

// TestGoldenBuildRoot pins the balanced Tree's root, which shares the
// leaf and pair hashes.
func TestGoldenBuildRoot(t *testing.T) {
	var leaves []Leaf
	for i := 0; i < 13; i++ {
		leaves = append(leaves, leaf(fmt.Sprintf("key%02d", i), fmt.Sprintf("val%d", i)))
	}
	const want = "630074ad078dc690428bae3ad4cccbdd65729f9b285263c81d639109e3755af8"
	if got := fmt.Sprintf("%x", Build(leaves).Root()); got != want {
		t.Errorf("root %s, want %s", got, want)
	}
}

// TestHashLayoutsMatchHashValue: the leaf and pair hashes are HashValue
// over ("leaf", key, fingerprint) and ("node", left, right), for keys
// of every length around the stack buffer's and beyond it.
func TestHashLayoutsMatchHashValue(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for i := 0; i < 2000; i++ {
		var a, b Digest
		rng.Read(a[:])
		rng.Read(b[:])
		if got, want := hashPair(a, b), HashValue([]byte("node"), a[:], b[:]); got != want {
			t.Fatalf("hashPair(%x, %x) = %x, want %x", a, b, got, want)
		}
		n := rng.Intn(600)
		if i%4 == 0 {
			n = i % 300 // every short length, the stack buffer's edge included
		}
		key := make([]byte, n)
		rng.Read(key)
		l := Leaf{Key: string(key), Hash: a}
		if got, want := hashLeaf(l), HashValue([]byte("leaf"), key, a[:]); got != want {
			t.Fatalf("hashLeaf(key of %d bytes) = %x, want %x", len(key), got, want)
		}
	}
}
