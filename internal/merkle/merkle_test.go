package merkle

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func leaf(key, val string) Leaf {
	return Leaf{Key: key, Hash: HashValue([]byte(val))}
}

func TestRootDeterministicAndOrderInsensitive(t *testing.T) {
	a := Build([]Leaf{leaf("a", "1"), leaf("b", "2"), leaf("c", "3")})
	b := Build([]Leaf{leaf("c", "3"), leaf("a", "1"), leaf("b", "2")})
	if a.Root() != b.Root() {
		t.Error("root depends on insertion order")
	}
	if a.Len() != 3 {
		t.Errorf("Len = %d", a.Len())
	}
	if got := a.Keys(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Keys = %v", got)
	}
}

func TestEmptyTree(t *testing.T) {
	e := Build(nil)
	if e.Root() != (Digest{}) {
		t.Error("empty root not zero")
	}
	if d := DiffKeys(e, Build(nil)); d != nil {
		t.Errorf("diff of empties = %v", d)
	}
	if d := DiffKeys(e, Build([]Leaf{leaf("x", "1")})); !reflect.DeepEqual(d, []string{"x"}) {
		t.Errorf("diff empty vs one = %v", d)
	}
}

func TestRootChangesWithAnyLeaf(t *testing.T) {
	base := Build([]Leaf{leaf("a", "1"), leaf("b", "2")})
	changedVal := Build([]Leaf{leaf("a", "1"), leaf("b", "CHANGED")})
	extraKey := Build([]Leaf{leaf("a", "1"), leaf("b", "2"), leaf("c", "3")})
	if base.Root() == changedVal.Root() {
		t.Error("value change not reflected in root")
	}
	if base.Root() == extraKey.Root() {
		t.Error("added key not reflected in root")
	}
}

func TestDiffKeys(t *testing.T) {
	a := Build([]Leaf{leaf("a", "1"), leaf("b", "2"), leaf("c", "3"), leaf("d", "4")})
	b := Build([]Leaf{leaf("a", "1"), leaf("b", "DIFF"), leaf("d", "4"), leaf("e", "5")})
	got := DiffKeys(a, b)
	want := []string{"b", "c", "e"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DiffKeys = %v, want %v", got, want)
	}
	// Symmetric.
	if !reflect.DeepEqual(DiffKeys(b, a), want) {
		t.Error("DiffKeys not symmetric")
	}
	// Identical trees short-circuit.
	if DiffKeys(a, Build([]Leaf{leaf("d", "4"), leaf("c", "3"), leaf("b", "2"), leaf("a", "1")})) != nil {
		t.Error("identical trees diffed")
	}
}

func TestDiffKeysProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func() bool {
		// Build two maps with controlled overlap, diff manually, compare.
		ma := map[string]string{}
		mb := map[string]string{}
		for i := 0; i < rng.Intn(30); i++ {
			k := fmt.Sprintf("k%d", rng.Intn(20))
			v := fmt.Sprintf("v%d", rng.Intn(3))
			ma[k] = v
			if rng.Intn(2) == 0 {
				mb[k] = v
			} else if rng.Intn(2) == 0 {
				mb[k] = v + "x"
			}
		}
		toLeaves := func(m map[string]string) []Leaf {
			var ls []Leaf
			for k, v := range m {
				ls = append(ls, leaf(k, v))
			}
			return ls
		}
		want := map[string]bool{}
		for k, v := range ma {
			if bv, ok := mb[k]; !ok || bv != v {
				want[k] = true
			}
		}
		for k := range mb {
			if _, ok := ma[k]; !ok {
				want[k] = true
			}
		}
		got := DiffKeys(Build(toLeaves(ma)), Build(toLeaves(mb)))
		if len(got) != len(want) {
			return false
		}
		if !sort.StringsAreSorted(got) {
			return false
		}
		for _, k := range got {
			if !want[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHashValueLengthPrefixing(t *testing.T) {
	// ("ab","c") must hash differently from ("a","bc").
	if HashValue([]byte("ab"), []byte("c")) == HashValue([]byte("a"), []byte("bc")) {
		t.Error("concatenation ambiguity in HashValue")
	}
}

func BenchmarkBuild1000(b *testing.B) {
	leaves := make([]Leaf, 1000)
	for i := range leaves {
		leaves[i] = leaf(fmt.Sprintf("key%04d", i), fmt.Sprintf("val%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(leaves)
	}
}

func BenchmarkDiff1000(b *testing.B) {
	la := make([]Leaf, 1000)
	lb := make([]Leaf, 1000)
	for i := range la {
		la[i] = leaf(fmt.Sprintf("key%04d", i), "same")
		lb[i] = la[i]
	}
	lb[500] = leaf("key0500", "different")
	ta, tb := Build(la), Build(lb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(DiffKeys(ta, tb)) != 1 {
			b.Fatal("wrong diff")
		}
	}
}
