package store

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"skute/internal/merkle"
	"skute/internal/vclock"
)

func ver(val string, clock vclock.VC) Version {
	return Version{Value: []byte(val), Clock: clock}
}

func TestPutGetBasic(t *testing.T) {
	e := NewMemory()
	if got := e.Get("k"); got != nil {
		t.Fatal("get of absent key != nil")
	}
	acc, err := e.Put("k", ver("v1", vclock.VC{"a": 1}))
	if err != nil || !acc {
		t.Fatalf("Put: %v %v", acc, err)
	}
	vs := e.Get("k")
	if len(vs) != 1 || string(vs[0].Value) != "v1" {
		t.Fatalf("Get = %+v", vs)
	}
	if e.Len() != 1 || e.Bytes() != 2 {
		t.Errorf("Len/Bytes = %d/%d", e.Len(), e.Bytes())
	}
}

// TestLenCountsLiveKeys: Len counts live keys only; a deleted key keeps
// its tombstone for causality and is counted by Tombstones instead. A
// concurrent live sibling keeps a key live, and a drop forgets it.
func TestLenCountsLiveKeys(t *testing.T) {
	e := NewMemory()
	for i := range 100 {
		e.Put(fmt.Sprint("k", i), ver("v", vclock.VC{"a": 1}))
	}
	for i := range 40 {
		e.Put(fmt.Sprint("k", i), Version{Tombstone: true, Clock: vclock.VC{"a": 2}})
	}
	if e.Len() != 60 || e.Tombstones() != 40 {
		t.Fatalf("Len/Tombstones = %d/%d, want 60/40", e.Len(), e.Tombstones())
	}
	e.Put("k0", ver("sibling", vclock.VC{"b": 1})) // concurrent with the tombstone
	e.Put("k1", ver("back", vclock.VC{"a": 3}))    // supersedes it
	e.Drop("k2")
	e.Drop("k50")
	if e.Len() != 61 || e.Tombstones() != 37 {
		t.Fatalf("after revive and drop: Len/Tombstones = %d/%d, want 61/37", e.Len(), e.Tombstones())
	}
}

func TestCausalOverwrite(t *testing.T) {
	e := NewMemory()
	e.Put("k", ver("old", vclock.VC{"a": 1}))
	acc, _ := e.Put("k", ver("new", vclock.VC{"a": 2}))
	if !acc {
		t.Fatal("descending write rejected")
	}
	vs := e.Get("k")
	if len(vs) != 1 || string(vs[0].Value) != "new" {
		t.Fatalf("after overwrite: %+v", vs)
	}
	if e.Bytes() != 3 {
		t.Errorf("Bytes = %d, want 3", e.Bytes())
	}
	// A stale write (older clock) must be a no-op.
	acc, _ = e.Put("k", ver("stale", vclock.VC{"a": 1}))
	if acc {
		t.Error("stale write accepted")
	}
	if string(e.Get("k")[0].Value) != "new" {
		t.Error("stale write changed state")
	}
	// An identical clock is also a no-op.
	if acc, _ := e.Put("k", ver("dup", vclock.VC{"a": 2})); acc {
		t.Error("duplicate clock accepted")
	}
}

func TestConcurrentSiblings(t *testing.T) {
	e := NewMemory()
	e.Put("k", ver("from-a", vclock.VC{"a": 1}))
	acc, _ := e.Put("k", ver("from-b", vclock.VC{"b": 1}))
	if !acc {
		t.Fatal("concurrent write rejected")
	}
	vs := e.Get("k")
	if len(vs) != 2 {
		t.Fatalf("want 2 siblings, got %+v", vs)
	}
	// A reconciled write dominating both collapses the siblings.
	merged := vclock.Merge(vs[0].Clock, vs[1].Clock).Tick("a")
	e.Put("k", ver("merged", merged))
	vs = e.Get("k")
	if len(vs) != 1 || string(vs[0].Value) != "merged" {
		t.Fatalf("after reconcile: %+v", vs)
	}
}

func TestTombstone(t *testing.T) {
	e := NewMemory()
	e.Put("k", ver("v", vclock.VC{"a": 1}))
	e.Put("k", Version{Tombstone: true, Clock: vclock.VC{"a": 2}})
	vs := e.Get("k")
	if len(vs) != 1 || !vs[0].Tombstone {
		t.Fatalf("tombstone not applied: %+v", vs)
	}
	if _, ok := Resolve(vs); ok {
		t.Error("tombstoned key resolved to a value")
	}
}

func TestResolve(t *testing.T) {
	vals, ok := Resolve([]Version{
		{Value: []byte("x"), Clock: vclock.VC{"a": 1}},
		{Value: []byte("y"), Clock: vclock.VC{"b": 1}},
	})
	if !ok || len(vals) != 2 {
		t.Errorf("Resolve = %q %v", vals, ok)
	}
	if _, ok := Resolve(nil); ok {
		t.Error("Resolve(nil) ok")
	}
}

func TestKeysSorted(t *testing.T) {
	e := NewMemory()
	for _, k := range []string{"c", "a", "b"} {
		e.Put(k, ver("v", vclock.VC{k: 1}))
	}
	ks := e.Keys()
	if len(ks) != 3 || ks[0] != "a" || ks[2] != "c" {
		t.Errorf("Keys = %v", ks)
	}
}

func TestByteAccounting(t *testing.T) {
	e := NewMemory()
	e.Put("k", ver("12345", vclock.VC{"a": 1}))
	e.Put("k2", ver("123", vclock.VC{"a": 1}))
	if e.Bytes() != 8 {
		t.Fatalf("Bytes = %d", e.Bytes())
	}
	// Overwrite shrinks.
	e.Put("k", ver("1", vclock.VC{"a": 2}))
	if e.Bytes() != 4 {
		t.Fatalf("Bytes after overwrite = %d", e.Bytes())
	}
	// Sibling adds.
	e.Put("k", ver("22", vclock.VC{"b": 1}))
	if e.Bytes() != 6 {
		t.Fatalf("Bytes after sibling = %d", e.Bytes())
	}
}

func TestWALPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "engine.wal")
	e, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	e.Put("a", ver("1", vclock.VC{"n": 1}))
	e.Put("b", ver("2", vclock.VC{"n": 2}))
	e.Put("a", ver("3", vclock.VC{"n": 3})) // overwrite
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.Len() != 2 {
		t.Fatalf("recovered Len = %d", e2.Len())
	}
	if got := e2.Get("a"); len(got) != 1 || string(got[0].Value) != "3" {
		t.Fatalf("recovered a = %+v", got)
	}
	if got := e2.Get("b"); len(got) != 1 || string(got[0].Value) != "2" {
		t.Fatalf("recovered b = %+v", got)
	}
	// Stale writes rejected during replay keep accounting exact.
	if e2.Bytes() != 2 {
		t.Errorf("recovered Bytes = %d, want 2", e2.Bytes())
	}
}

func TestMerkleLeavesDetectDivergence(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		v := ver("same", vclock.VC{"n": uint64(i + 1)})
		a.Put(k, v)
		b.Put(k, v)
	}
	ta := merkle.Build(a.MerkleLeaves(nil))
	tb := merkle.Build(b.MerkleLeaves(nil))
	if ta.Root() != tb.Root() {
		t.Fatal("identical engines have different roots")
	}
	b.Put("k3", ver("diverged", vclock.VC{"n": 100}))
	tb = merkle.Build(b.MerkleLeaves(nil))
	diff := merkle.DiffKeys(ta, tb)
	if len(diff) != 1 || diff[0] != "k3" {
		t.Fatalf("diff = %v", diff)
	}
}

func TestMerkleLeavesFilter(t *testing.T) {
	e := NewMemory()
	e.Put("keep", ver("v", vclock.VC{"a": 1}))
	e.Put("drop", ver("v", vclock.VC{"a": 1}))
	leaves := e.MerkleLeaves(func(k string) bool { return k == "keep" })
	if len(leaves) != 1 || leaves[0].Key != "keep" {
		t.Errorf("filtered leaves = %+v", leaves)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	e := NewMemory()
	e.Put("k", ver("v", vclock.VC{"a": 1}))
	vs := e.Get("k")
	vs[0].Value[0] = 'X' // mutating the copy must not corrupt the engine...
	vs[0].Tombstone = true
	fresh := e.Get("k")
	if fresh[0].Tombstone {
		t.Error("caller mutation of the slice leaked into the engine")
	}
	// Regression: the value bytes and clock must be deep copies too, not
	// aliases of engine state.
	if string(fresh[0].Value) != "v" {
		t.Errorf("caller mutation of Value leaked into the engine: %q", fresh[0].Value)
	}
	vs[0].Clock["a"] = 99
	if e.Get("k")[0].Clock["a"] != 1 {
		t.Error("caller mutation of Clock leaked into the engine")
	}
}

func TestPutDoesNotAliasCallerBuffer(t *testing.T) {
	e := NewMemory()
	buf := []byte("original")
	e.Put("k", ver(string(buf), nil))
	v := Version{Value: buf, Clock: vclock.VC{"a": 1}}
	e.Put("k2", v)
	buf[0] = 'X' // callers reuse write buffers; the engine must not see it
	if got := e.Get("k2"); string(got[0].Value) != "original" {
		t.Errorf("stored value aliases the caller buffer: %q", got[0].Value)
	}
}

func TestConcurrentAccess(t *testing.T) {
	e := NewMemory()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			node := fmt.Sprintf("n%d", n)
			for j := 0; j < 100; j++ {
				k := fmt.Sprintf("k%d", j%10)
				e.Put(k, ver("v", vclock.VC{node: uint64(j + 1)}))
				e.Get(k)
				e.Bytes()
			}
		}(i)
	}
	wg.Wait()
	if e.Len() != 10 {
		t.Errorf("Len = %d", e.Len())
	}
}

// TestWALReplayMatchesConcurrentState is the regression test for the WAL
// ordering race: with appends outside the engine lock, two racing
// mutations of one key could reach the log in the opposite order they
// were applied and replay to a different state. Now records are appended
// under the shard lock, so whatever state the live engine ends up in, a
// reopen must reproduce it bit-for-bit (Merkle root and byte accounting).
func TestWALReplayMatchesConcurrentState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "engine.wal")
	e, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			node := fmt.Sprintf("n%d", g)
			for j := 1; j <= 60; j++ {
				k := fmt.Sprintf("k%d", j%7)
				if g == 0 && j%9 == 0 {
					// Drops race the puts: the one mutation pair whose
					// replay outcome actually depends on log order.
					if _, err := e.Drop(k); err != nil {
						t.Errorf("Drop: %v", err)
					}
					continue
				}
				if _, err := e.Put(k, ver(fmt.Sprintf("%s-%d", node, j), vclock.VC{node: uint64(j)})); err != nil {
					t.Errorf("Put: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()

	liveRoot := merkle.Build(e.MerkleLeaves(nil)).Root()
	liveBytes, liveLen := e.Bytes(), e.Len()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if root := merkle.Build(e2.MerkleLeaves(nil)).Root(); root != liveRoot {
		t.Error("replayed state diverges from the live engine state")
	}
	if e2.Bytes() != liveBytes || e2.Len() != liveLen {
		t.Errorf("replayed accounting %d bytes/%d keys, live %d/%d", e2.Bytes(), e2.Len(), liveBytes, liveLen)
	}
}

func TestShardedAccountingUnderParallelLoad(t *testing.T) {
	e := NewMemory()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			node := fmt.Sprintf("n%d", g)
			for j := 1; j <= 200; j++ {
				e.Put(fmt.Sprintf("key-%d-%d", g, j), ver("0123456789", vclock.VC{node: uint64(j)}))
			}
		}(g)
	}
	wg.Wait()
	if e.Len() != 8*200 {
		t.Errorf("Len = %d, want %d", e.Len(), 8*200)
	}
	if e.Bytes() != int64(8*200*10) {
		t.Errorf("Bytes = %d, want %d", e.Bytes(), 8*200*10)
	}
	for g := 0; g < 8; g++ {
		if _, err := e.Drop(fmt.Sprintf("key-%d-1", g)); err != nil {
			t.Fatal(err)
		}
	}
	if e.Bytes() != int64(8*199*10) {
		t.Errorf("Bytes after drops = %d, want %d", e.Bytes(), 8*199*10)
	}
}

func BenchmarkPut(b *testing.B) {
	e := NewMemory()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Put(fmt.Sprintf("k%d", i%1000), ver("value-bytes", vclock.VC{"n": uint64(i + 1)}))
	}
}

func BenchmarkGet(b *testing.B) {
	e := NewMemory()
	for i := 0; i < 1000; i++ {
		e.Put(fmt.Sprintf("k%d", i), ver("value-bytes", vclock.VC{"n": uint64(i + 1)}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Get(fmt.Sprintf("k%d", i%1000))
	}
}

// TestSortSiblingsMatchesSortSlice: sortSiblings puts every sibling set,
// ties in clock text included, in the order the per-comparison
// sort.Slice it replaced did, so no stored set and no leafSum moves.
func TestSortSiblingsMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 500; trial++ {
		vs := make([]Version, 1+rng.Intn(20))
		for i := range vs {
			c := vclock.VC{}
			for n := rng.Intn(3); n > 0; n-- {
				c[fmt.Sprintf("n%d", rng.Intn(3))] = uint64(rng.Intn(3))
			}
			vs[i] = Version{Value: []byte{byte(i)}, Clock: c}
		}
		want := append([]Version(nil), vs...)
		sort.Slice(want, func(i, j int) bool { return want[i].Clock.String() < want[j].Clock.String() })
		sortSiblings(vs)
		for i := range vs {
			if vs[i].Value[0] != want[i].Value[0] {
				t.Fatalf("trial %d: position %d holds sibling %d, sort.Slice put %d there", trial, i, vs[i].Value[0], want[i].Value[0])
			}
		}
	}
}
