package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"skute/internal/topology"
)

func TestParetoValidate(t *testing.T) {
	bad := []Pareto{{Shape: 0, Scale: 1}, {Shape: 1, Scale: 0}, {Shape: -1, Scale: -1}}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v): want error", p)
		}
	}
	if err := PaperPopularity().Validate(); err != nil {
		t.Errorf("paper popularity invalid: %v", err)
	}
}

func TestParetoSampleAboveScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := PaperPopularity()
	for i := 0; i < 10000; i++ {
		if x := p.Sample(rng); x < p.Scale {
			t.Fatalf("sample %v below scale %v", x, p.Scale)
		}
	}
}

func TestParetoSampleMedian(t *testing.T) {
	// For Pareto(shape a, scale m) the median is m * 2^(1/a).
	rng := rand.New(rand.NewSource(2))
	p := Pareto{Shape: 2, Scale: 10}
	wantMedian := p.Scale * math.Pow(2, 1/p.Shape)
	n, below := 50000, 0
	for i := 0; i < n; i++ {
		if p.Sample(rng) < wantMedian {
			below++
		}
	}
	frac := float64(below) / float64(n)
	if frac < 0.48 || frac > 0.52 {
		t.Errorf("fraction below median = %v, want ~0.5", frac)
	}
}

func TestParetoWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w, err := PaperPopularity().Weights(rng, 200, 1000)
	if err != nil {
		t.Fatalf("Weights: %v", err)
	}
	if len(w) != 200 {
		t.Fatalf("len = %d", len(w))
	}
	var sum float64
	for _, x := range w {
		if x <= 0 {
			t.Fatalf("non-positive weight %v", x)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v, want 1", sum)
	}
	// Heavy tail: max weight should dominate min weight clearly.
	min, max := w[0], w[0]
	for _, x := range w {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	if max/min < 5 {
		t.Errorf("popularity not skewed: max/min = %v", max/min)
	}
}

func TestParetoWeightsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := PaperPopularity().Weights(rng, 0, 0); err == nil {
		t.Error("Weights(n=0): want error")
	}
	if _, err := (Pareto{}).Weights(rng, 5, 0); err == nil {
		t.Error("Weights with invalid distribution: want error")
	}
}

func TestParetoWeightsClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := Pareto{Shape: 0.5, Scale: 1} // extremely heavy tail
	w, err := p.Weights(rng, 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	// With clamping at 10x scale no single weight can exceed
	// 10 / (1000 * 1) of the total in the worst case bound; just assert a
	// sane cap.
	for _, x := range w {
		if x > 0.05 {
			t.Fatalf("clamped weight %v unexpectedly large", x)
		}
	}
}

func TestPoissonMeanVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, lambda := range []float64{0.5, 4, 25, 100, 3000} {
		n := 20000
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			x := float64(Poisson(rng, lambda))
			sum += x
			sumsq += x * x
		}
		mean := sum / float64(n)
		variance := sumsq/float64(n) - mean*mean
		if math.Abs(mean-lambda) > 4*math.Sqrt(lambda/float64(n))+0.6 {
			t.Errorf("lambda=%v: mean=%v", lambda, mean)
		}
		if variance < lambda*0.9-1 || variance > lambda*1.1+1 {
			t.Errorf("lambda=%v: variance=%v", lambda, variance)
		}
	}
}

func TestPoissonEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if Poisson(rng, 0) != 0 || Poisson(rng, -3) != 0 {
		t.Error("Poisson with non-positive lambda should be 0")
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		return Poisson(r, 50) >= 0 && Poisson(r, 3) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
func TestConstantProfile(t *testing.T) {
	p := Constant(3000)
	for _, e := range []int{0, 1, 999} {
		if p.Rate(e) != 3000 {
			t.Fatalf("Rate(%d) = %v", e, p.Rate(e))
		}
	}
}

func TestSlashdotProfileShape(t *testing.T) {
	s := PaperSlashdot()
	if r := s.Rate(0); r != 3000 {
		t.Errorf("pre-spike rate = %v", r)
	}
	if r := s.Rate(99); r != 3000 {
		t.Errorf("epoch 99 rate = %v", r)
	}
	// Peak reached at the end of the ramp.
	if r := s.Rate(124); math.Abs(r-183000) > 1e-6 {
		t.Errorf("peak rate = %v, want 183000", r)
	}
	// Monotone rise during the ramp.
	for e := 100; e < 124; e++ {
		if s.Rate(e) >= s.Rate(e+1) {
			t.Fatalf("ramp not increasing at epoch %d", e)
		}
	}
	// Monotone decay afterwards.
	for e := 125; e < 374; e++ {
		if s.Rate(e) <= s.Rate(e+1) {
			t.Fatalf("decay not decreasing at epoch %d (%v -> %v)", e, s.Rate(e), s.Rate(e+1))
		}
	}
	if r := s.Rate(375); r != 3000 {
		t.Errorf("post-decay rate = %v, want 3000", r)
	}
	if r := s.Rate(10000); r != 3000 {
		t.Errorf("far-future rate = %v, want 3000", r)
	}
}

func TestInsertStream(t *testing.T) {
	s := PaperInsertStream()
	if s.PerEpoch != 2000 || s.ValueSize != 500<<10 {
		t.Fatalf("paper insert stream = %+v", s)
	}
	if got := s.BytesPerEpoch(); got != 2000*500<<10 {
		t.Errorf("BytesPerEpoch = %d", got)
	}
}

func TestUniformClientsG(t *testing.T) {
	loc := topology.Qualified("eu", "ch", "dc0", "room0", "rack0", "srv0")
	if g := (UniformClients{}).G(loc); g != 1 {
		t.Errorf("uniform G = %v, want 1", g)
	}
}

func TestRegionClientsG(t *testing.T) {
	euClient := topology.Qualified("eu", "ch", "client", "client", "client", "client")
	usClient := topology.Qualified("us", "us-east", "client", "client", "client", "client")
	rc, err := NewRegionClients(
		[]topology.Location{euClient, usClient},
		[]float64{900, 100},
	)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Total() != 1000 {
		t.Errorf("Total = %v", rc.Total())
	}
	euServer := topology.Qualified("eu", "ch", "dc0", "room0", "rack0", "srv0")
	usServer := topology.Qualified("us", "us-east", "dc0", "room0", "rack0", "srv0")
	apServer := topology.Qualified("ap", "jp", "dc0", "room0", "rack0", "srv0")
	gEU, gUS, gAP := rc.G(euServer), rc.G(usServer), rc.G(apServer)
	// Most clients are in the EU country, so the EU server must be
	// preferred, then the US one, and a third-continent server last.
	if !(gEU > gUS && gUS > gAP) {
		t.Errorf("g ordering wrong: eu=%v us=%v ap=%v", gEU, gUS, gAP)
	}
	if gEU <= 0 || gEU > 1000 {
		t.Errorf("gEU out of range: %v", gEU)
	}
}

func TestRegionClientsErrors(t *testing.T) {
	loc := topology.Qualified("eu", "ch", "a", "b", "c", "d")
	if _, err := NewRegionClients([]topology.Location{loc}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths: want error")
	}
	if _, err := NewRegionClients(nil, nil); err == nil {
		t.Error("empty distribution: want error")
	}
	if _, err := NewRegionClients([]topology.Location{loc}, []float64{-1}); err == nil {
		t.Error("negative queries: want error")
	}
	if _, err := NewRegionClients([]topology.Location{loc}, []float64{0}); err == nil {
		t.Error("zero total queries: want error")
	}
}

func BenchmarkPoissonLarge(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Poisson(rng, 3000)
	}
}

func BenchmarkParetoSample(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := PaperPopularity()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Sample(rng)
	}
}
