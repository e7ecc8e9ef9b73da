package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestBucketRoundTrip pins the bucket layout: every index maps back to a
// range containing exactly the values that map to it, ranges are
// contiguous, and the relative width respects the 2^-subBits bound.
func TestBucketRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		i := bucketOf(v)
		if lo, hi := bucketLow(i), bucketHigh(i); v < lo || (v >= hi && hi != math.MaxInt64) {
			t.Fatalf("value %d: bucket %d covers [%d,%d)", v, i, lo, hi)
		}
	}
	// Contiguity and index bounds across every bucket.
	prevHigh := int64(0)
	for i := 0; i < numBuckets; i++ {
		lo, hi := bucketLow(i), bucketHigh(i)
		if lo != prevHigh {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, lo, prevHigh)
		}
		if hi <= lo && i != numBuckets-1 {
			t.Fatalf("bucket %d empty range [%d,%d)", i, lo, hi)
		}
		if lo < math.MaxInt64/2 && bucketOf(lo) != i {
			t.Fatalf("bucketOf(bucketLow(%d)) = %d", i, bucketOf(lo))
		}
		// Relative width bound: width/lo <= 1/16 beyond the exact range
		// (one sub-bucket of a half-block octave is 2/subCount of it).
		if lo >= subCount {
			if w := hi - lo; float64(w)/float64(lo) > 2.0/(subCount/2)+1e-9 {
				t.Fatalf("bucket %d relative width %g too coarse", i, float64(w)/float64(lo))
			}
		}
		prevHigh = hi
	}
}

// refQuantile is the nearest-rank quantile over a sorted sample — the
// exact reference the histogram approximates.
func refQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// checkAccuracy records the sample and asserts every tracked quantile is
// within the bucketing error bound of the sorted-sample reference.
func checkAccuracy(t *testing.T, name string, sample []int64) {
	t.Helper()
	h := NewHistogram()
	for _, v := range sample {
		h.Record(v)
	}
	s := h.Snapshot()
	sorted := append([]int64(nil), sample...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if s.Count != int64(len(sample)) {
		t.Fatalf("%s: count %d, want %d", name, s.Count, len(sample))
	}
	if s.Min != sorted[0] || s.Max != sorted[len(sorted)-1] {
		t.Fatalf("%s: min/max %d/%d, want %d/%d", name, s.Min, s.Max, sorted[0], sorted[len(sorted)-1])
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := s.Quantile(q)
		want := refQuantile(sorted, q)
		// Mid-bucket reporting keeps the error within half a bucket
		// width: 1/subCount relative, plus a half-count absolute slack
		// for the exact range.
		tol := float64(want)/subCount + 1
		if d := math.Abs(float64(got - want)); d > tol {
			t.Errorf("%s: q%g = %d, reference %d (|err| %g > tol %g)", name, q, got, want, d, tol)
		}
	}
	// The mean is tracked exactly.
	var sum float64
	for _, v := range sample {
		sum += float64(v)
	}
	if mean := s.Mean(); math.Abs(mean-sum/float64(len(sample))) > 1e-6 {
		t.Errorf("%s: mean %g, want %g", name, mean, sum/float64(len(sample)))
	}
}

func TestQuantileAccuracyUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sample := make([]int64, 200_000)
	for i := range sample {
		sample[i] = rng.Int63n(50 * int64(time.Millisecond))
	}
	checkAccuracy(t, "uniform", sample)
}

func TestQuantileAccuracyPareto(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sample := make([]int64, 200_000)
	for i := range sample {
		// Pareto(shape 1.2, scale 20µs): the heavy-tailed latency shape
		// open-loop load produces under saturation.
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		sample[i] = int64(20_000 / math.Pow(u, 1/1.2))
	}
	checkAccuracy(t, "pareto", sample)
}

func TestQuantileAccuracySpike(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Bimodal: a tight fast mode with a 1% spike mode three orders of
	// magnitude slower — the worst case for mean-based reporting and
	// exactly what p99/p999 must resolve.
	sample := make([]int64, 200_000)
	for i := range sample {
		if rng.Float64() < 0.01 {
			sample[i] = int64(80*time.Millisecond) + rng.Int63n(int64(40*time.Millisecond))
		} else {
			sample[i] = int64(50*time.Microsecond) + rng.Int63n(int64(20*time.Microsecond))
		}
	}
	checkAccuracy(t, "spike", sample)
}

// TestMergeAssociativity: merging per-shard snapshots in any grouping
// yields identical counts, extremes and quantiles.
func TestMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	parts := make([]*Snapshot, 3)
	for p := range parts {
		h := NewHistogram()
		for i := 0; i < 50_000; i++ {
			h.Record(rng.Int63n(int64(time.Second) >> uint(p)))
		}
		parts[p] = h.Snapshot()
	}
	left := parts[0].Merge(parts[1]).Merge(parts[2])
	right := parts[0].Merge(parts[1].Merge(parts[2]))
	rev := parts[2].Merge(parts[0]).Merge(parts[1])
	for _, m := range []*Snapshot{right, rev} {
		if left.Count != m.Count || left.Sum != m.Sum || left.Min != m.Min || left.Max != m.Max {
			t.Fatalf("merge grouping changed aggregates: %+v vs %+v", left.Stats(), m.Stats())
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			if left.Quantile(q) != m.Quantile(q) {
				t.Fatalf("merge grouping changed q%g: %d vs %d", q, left.Quantile(q), m.Quantile(q))
			}
		}
	}
	// Merging an empty snapshot is the identity.
	empty := NewHistogram().Snapshot()
	if got := left.Merge(empty); got.Count != left.Count || got.Min != left.Min || got.Max != left.Max {
		t.Fatalf("merge with empty changed aggregates")
	}
	if got := empty.Merge(left); got.Count != left.Count || got.Min != left.Min || got.Max != left.Max {
		t.Fatalf("empty.Merge changed aggregates")
	}
}

// TestConcurrentRecord hammers one histogram from many goroutines (run
// under -race in CI) and checks nothing is lost or double-counted.
func TestConcurrentRecord(t *testing.T) {
	const (
		workers = 8
		perW    = 20_000
	)
	h := NewHistogram()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perW; i++ {
				h.Record(rng.Int63n(int64(time.Millisecond)))
			}
		}(w)
	}
	// Concurrent snapshots must stay internally consistent (count equals
	// the bucket sum by construction).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s := h.Snapshot()
			var n int64
			for _, c := range s.Buckets {
				n += c
			}
			if n != s.Count {
				t.Errorf("snapshot count %d != bucket sum %d", s.Count, n)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := h.Count(); got != workers*perW {
		t.Fatalf("count %d, want %d", got, workers*perW)
	}
	s := h.Snapshot()
	var n int64
	for _, c := range s.Buckets {
		n += c
	}
	if n != s.Count || n != workers*perW {
		t.Fatalf("final snapshot count %d / bucket sum %d, want %d", s.Count, n, workers*perW)
	}
}
