package ring

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New("r", 0); err == nil {
		t.Error("New with 0 partitions: want error")
	}
	if _, err := New("r", -3); err == nil {
		t.Error("New with negative partitions: want error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew(0) did not panic")
		}
	}()
	MustNew("r", 0)
}

func TestEqualPartitioning(t *testing.T) {
	r := MustNew("r", 8)
	if r.Len() != 8 {
		t.Fatalf("Len = %d, want 8", r.Len())
	}
	parts := r.Partitions()
	for i := 1; i < len(parts); i++ {
		if parts[i-1].Token >= parts[i].Token {
			t.Fatalf("tokens not strictly increasing at %d", i)
		}
	}
	if parts[len(parts)-1].Token != KeyHash(^uint64(0)) {
		t.Errorf("last token = %v, want max uint64", parts[len(parts)-1].Token)
	}
	// Spans should be within one step of each other.
	var min, max uint64 = ^uint64(0), 0
	for _, p := range parts {
		s := p.Span()
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if max-min > uint64(len(parts)) {
		t.Errorf("partition spans unbalanced: min %d max %d", min, max)
	}
}

func TestLookupMatchesContains(t *testing.T) {
	r := MustNew("r", 13)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		h := KeyHash(rng.Uint64())
		p := r.Lookup(h)
		if !p.Contains(h) {
			t.Fatalf("Lookup(%v) -> partition %d whose range (%v,%v] does not contain it",
				h, p.ID, p.Prev(), p.Token)
		}
	}
}

func TestLookupExactlyOnePartition(t *testing.T) {
	r := MustNew("r", 7)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		h := KeyHash(rng.Uint64())
		n := 0
		for _, p := range r.Partitions() {
			if p.Contains(h) {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("hash %v contained in %d partitions, want exactly 1", h, n)
		}
	}
}

func TestLookupBoundaries(t *testing.T) {
	r := MustNew("r", 4)
	parts := r.Partitions()
	for _, p := range parts {
		if got := r.Lookup(p.Token); got != p {
			t.Errorf("Lookup(token %v) = partition %d, want %d (token inclusive)", p.Token, got.ID, p.ID)
		}
		next := r.Lookup(p.Token + 1)
		if p.Token != KeyHash(^uint64(0)) && next == p {
			t.Errorf("Lookup(token+1) still partition %d", p.ID)
		}
	}
	// Hash 0 belongs to the wrapped range of the first partition.
	if got := r.Lookup(0); got != parts[0] {
		t.Errorf("Lookup(0) = partition %d, want first partition %d", got.ID, parts[0].ID)
	}
}

func TestHashKeyDeterministicAndSpread(t *testing.T) {
	if HashKey("alpha") != HashKey("alpha") {
		t.Error("HashKey not deterministic")
	}
	r := MustNew("r", 16)
	counts := make(map[int]int)
	for i := 0; i < 16000; i++ {
		p := r.LookupKey(fmt.Sprintf("key-%d", i))
		counts[p.ID]++
	}
	for id, c := range counts {
		if c < 500 || c > 1600 {
			t.Errorf("partition %d received %d/16000 keys; hash badly skewed", id, c)
		}
	}
	if len(counts) != 16 {
		t.Errorf("only %d/16 partitions received keys", len(counts))
	}
}

func TestReplicaSetOps(t *testing.T) {
	p := &Partition{ID: 1, Token: 100}
	p.AddReplica(3)
	p.AddReplica(5)
	p.AddReplica(3) // duplicate ignored
	if len(p.Replicas) != 2 {
		t.Fatalf("replicas = %v, want [3 5]", p.Replicas)
	}
	if !p.HasReplica(5) || p.HasReplica(9) {
		t.Error("HasReplica wrong")
	}
	if !p.ReplaceReplica(3, 7) {
		t.Error("ReplaceReplica(3,7) = false")
	}
	if p.HasReplica(3) || !p.HasReplica(7) {
		t.Errorf("after replace: %v", p.Replicas)
	}
	if p.ReplaceReplica(42, 1) {
		t.Error("ReplaceReplica of absent server = true")
	}
	if !p.RemoveReplica(5) || p.RemoveReplica(5) {
		t.Error("RemoveReplica semantics wrong")
	}
	if len(p.Replicas) != 1 {
		t.Errorf("replicas = %v, want [7]", p.Replicas)
	}
}

func TestSplitPreservesCoverage(t *testing.T) {
	r := MustNew("r", 3)
	orig := r.Partitions()[1]
	orig.AddReplica(4)
	orig.AddReplica(9)
	before := orig.Span()

	np, err := r.Split(orig)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if r.Len() != 4 {
		t.Fatalf("Len after split = %d, want 4", r.Len())
	}
	if got := np.Span() + orig.Span(); got != before {
		t.Errorf("child spans sum to %d, want %d", got, before)
	}
	// New partition inherits replicas but as an independent slice.
	if len(np.Replicas) != 2 {
		t.Fatalf("new partition replicas = %v", np.Replicas)
	}
	np.RemoveReplica(4)
	if !orig.HasReplica(4) {
		t.Error("replica slices aliased between split siblings")
	}
	// Every hash still maps to exactly one partition.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		h := KeyHash(rng.Uint64())
		if !r.Lookup(h).Contains(h) {
			t.Fatalf("lookup broken after split for %v", h)
		}
	}
}

func TestSplitWrappedPartition(t *testing.T) {
	r := MustNew("r", 2)
	first := r.Partitions()[0] // wraps through 0
	if first.Prev() <= first.Token {
		// With 2 partitions the first range is (max/2*2=max, step] — i.e.
		// prev is the max token, so it wraps.
		t.Fatalf("test setup: expected wrapped first partition, prev=%v token=%v", first.Prev(), first.Token)
	}
	np, err := r.Split(first)
	if err != nil {
		t.Fatalf("Split wrapped: %v", err)
	}
	_ = np
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 4000; i++ {
		h := KeyHash(rng.Uint64())
		n := 0
		for _, p := range r.Partitions() {
			if p.Contains(h) {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("hash %v in %d partitions after wrapped split", h, n)
		}
	}
}

func TestSplitErrors(t *testing.T) {
	r := MustNew("r", 2)
	foreign := &Partition{ID: 99, Token: 42}
	if _, err := r.Split(foreign); err == nil {
		t.Error("splitting foreign partition: want error")
	}
}

func TestSplitIDsNeverReused(t *testing.T) {
	r := MustNew("r", 1)
	seen := map[int]bool{r.Partitions()[0].ID: true}
	for i := 0; i < 20; i++ {
		// Always split the widest partition.
		var widest *Partition
		for _, p := range r.Partitions() {
			if widest == nil || p.Span() > widest.Span() {
				widest = p
			}
		}
		np, err := r.Split(widest)
		if err != nil {
			t.Fatalf("split %d: %v", i, err)
		}
		if seen[np.ID] {
			t.Fatalf("partition ID %d reused", np.ID)
		}
		seen[np.ID] = true
	}
	if r.Len() != 21 {
		t.Errorf("Len = %d, want 21", r.Len())
	}
}

func TestGet(t *testing.T) {
	r := MustNew("r", 3)
	p := r.Partitions()[2]
	if r.Get(p.ID) != p {
		t.Error("Get did not find partition by ID")
	}
	if r.Get(12345) != nil {
		t.Error("Get of unknown ID != nil")
	}
}

func TestMultiRing(t *testing.T) {
	mr := NewMultiRing()
	ids := []RingID{
		{App: "app1", Class: "silver"},
		{App: "app0", Class: "gold"},
		{App: "app0", Class: "bronze"},
	}
	for i, id := range ids {
		if _, err := mr.Add(id, 4+i); err != nil {
			t.Fatalf("Add(%s): %v", id, err)
		}
	}
	if _, err := mr.Add(ids[0], 4); err == nil {
		t.Error("duplicate Add: want error")
	}
	if mr.Len() != 3 {
		t.Fatalf("Len = %d", mr.Len())
	}
	got := mr.IDs()
	want := []RingID{{App: "app0", Class: "bronze"}, {App: "app0", Class: "gold"}, {App: "app1", Class: "silver"}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if mr.TotalPartitions() != 4+5+6 {
		t.Errorf("TotalPartitions = %d, want 15", mr.TotalPartitions())
	}
	if mr.Ring(RingID{App: "nope", Class: "x"}) != nil {
		t.Error("Ring of unknown id != nil")
	}
	if ids[0].String() != "app1/silver" {
		t.Errorf("RingID.String = %q", ids[0].String())
	}
}

func TestPartitionSpanFullRing(t *testing.T) {
	r := MustNew("r", 1)
	p := r.Partitions()[0]
	if p.Span() != ^uint64(0) {
		t.Errorf("single partition span = %d, want max", p.Span())
	}
	// A single partition must contain every hash.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		if !p.Contains(KeyHash(rng.Uint64())) {
			t.Fatal("single partition does not cover the full ring")
		}
	}
}

func TestLookupPropertyQuick(t *testing.T) {
	r := MustNew("r", 32)
	f := func(h uint64) bool {
		p := r.Lookup(KeyHash(h))
		return p != nil && p.Contains(KeyHash(h))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLookup(b *testing.B) {
	r := MustNew("bench", 800)
	rng := rand.New(rand.NewSource(1))
	hashes := make([]KeyHash, 1024)
	for i := range hashes {
		hashes[i] = KeyHash(rng.Uint64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Lookup(hashes[i%len(hashes)]) == nil {
			b.Fatal("nil partition")
		}
	}
}

func BenchmarkHashKey(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		HashKey("user:12345:profile")
	}
}

func TestSetReplicas(t *testing.T) {
	p := &Partition{ID: 1, Token: 100}
	p.AddReplica(3)
	p.SetReplicas([]ServerID{7, 8, 9})
	if fmt.Sprint(p.Replicas) != "[7 8 9]" {
		t.Fatalf("after SetReplicas: %v", p.Replicas)
	}
	// The set is copied, not aliased.
	src := []ServerID{1, 2}
	p.SetReplicas(src)
	src[0] = 99
	if p.Replicas[0] != 1 {
		t.Error("SetReplicas aliases the caller's slice")
	}
	p.SetReplicas(nil)
	if len(p.Replicas) != 0 {
		t.Errorf("after SetReplicas(nil): %v", p.Replicas)
	}
}
