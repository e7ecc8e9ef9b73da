package availability

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"skute/internal/ring"
	"skute/internal/topology"
)

func host(id int, conf float64, path ...string) Host {
	return Host{
		ID:   ring.ServerID(id),
		Conf: conf,
		Loc:  topology.Qualified(path[0], path[1], path[2], path[3], path[4], path[5]),
	}
}

func TestOfPairwise(t *testing.T) {
	// Two replicas on different continents: 1*1*63.
	hs := []Host{
		host(1, 1, "eu", "ch", "dc0", "r0", "k0", "s0"),
		host(2, 1, "us", "us-e", "dc0", "r0", "k0", "s1"),
	}
	if got := Of(hs); got != 63 {
		t.Errorf("Of(2 continents) = %v, want 63", got)
	}
	// Confidence scales multiplicatively per pair.
	hs[0].Conf = 0.5
	if got := Of(hs); got != 31.5 {
		t.Errorf("Of with conf 0.5 = %v, want 31.5", got)
	}
}

func TestOfSmallSets(t *testing.T) {
	if Of(nil) != 0 {
		t.Error("Of(nil) != 0")
	}
	single := []Host{host(1, 1, "eu", "ch", "dc0", "r0", "k0", "s0")}
	if Of(single) != 0 {
		t.Error("single replica availability must be 0")
	}
}

func TestOfThreeReplicas(t *testing.T) {
	// Three replicas on three continents: 3 pairs * 63 = 189.
	hs := []Host{
		host(1, 1, "eu", "a", "dc0", "r0", "k0", "s0"),
		host(2, 1, "us", "b", "dc0", "r0", "k0", "s1"),
		host(3, 1, "ap", "c", "dc0", "r0", "k0", "s2"),
	}
	if got := Of(hs); got != 189 {
		t.Errorf("Of = %v, want 189", got)
	}
	// Same rack replicas add almost nothing: pairs (1,2)=63, (1,3)=63,
	// (2,3 same rack)=1 => 127.
	hs[2] = host(3, 1, "us", "b", "dc0", "r0", "k0", "s3")
	if got := Of(hs); got != 127 {
		t.Errorf("Of with rack sibling = %v, want 127", got)
	}
}

func TestWithMatchesOf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randHost := func(id int) Host {
		return Host{
			ID:   ring.ServerID(id),
			Conf: 0.5 + rng.Float64()/2,
			Loc: topology.Qualified(
				string(rune('a'+rng.Intn(4))), string(rune('a'+rng.Intn(3))),
				"dc0", "r0", string(rune('a'+rng.Intn(2))), string(rune('a'+rng.Intn(6)))),
		}
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5)
		hs := make([]Host, n)
		for i := range hs {
			hs[i] = randHost(i)
		}
		extra := randHost(99)
		want := Of(append(append([]Host(nil), hs...), extra))
		if got := With(hs, extra); math.Abs(got-want) > 1e-9 {
			t.Fatalf("With = %v, Of(appended) = %v", got, want)
		}
	}
}

func TestWithoutMatchesOf(t *testing.T) {
	hs := []Host{
		host(1, 1, "eu", "a", "dc0", "r0", "k0", "s0"),
		host(2, 0.9, "us", "b", "dc0", "r0", "k0", "s1"),
		host(3, 0.8, "ap", "c", "dc0", "r0", "k0", "s2"),
	}
	want := Of([]Host{hs[0], hs[2]})
	if got := Without(hs, 2); got != want {
		t.Errorf("Without(2) = %v, want %v", got, want)
	}
	if got := Without(hs, 42); got != Of(hs) {
		t.Errorf("Without(absent) = %v, want %v", got, Of(hs))
	}
}

func TestAvailabilityMonotoneProperty(t *testing.T) {
	// Adding a replica never decreases availability (diversity >= 0).
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		n := rng.Intn(6)
		hs := make([]Host, n)
		for i := range hs {
			hs[i] = Host{
				ID:   ring.ServerID(i),
				Conf: rng.Float64(),
				Loc: topology.Qualified(
					string(rune('a'+rng.Intn(3))), "x", "dc", "r",
					string(rune('a'+rng.Intn(2))), string(rune('a'+rng.Intn(8)))),
			}
		}
		extra := Host{ID: 99, Conf: rng.Float64(), Loc: topology.Qualified("q", "q", "q", "q", "q", "q")}
		return With(hs, extra) >= Of(hs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestThresholds(t *testing.T) {
	// k=2: 0.95*63 = 59.85; two cross-continent replicas (63) satisfy it,
	// one replica (0) does not.
	th2 := ThresholdForReplicas(2)
	if !(th2 > 0 && th2 <= 63) {
		t.Errorf("th2 = %v", th2)
	}
	th3 := ThresholdForReplicas(3)
	if !(th3 > MaxAchievable(2) && th3 <= MaxAchievable(3)) {
		t.Errorf("th3 = %v not in (%v, %v]", th3, MaxAchievable(2), MaxAchievable(3))
	}
	th4 := ThresholdForReplicas(4)
	if !(th4 > MaxAchievable(3) && th4 <= MaxAchievable(4)) {
		t.Errorf("th4 = %v not in (%v, %v]", th4, MaxAchievable(3), MaxAchievable(4))
	}
	if ThresholdForReplicas(1) != 0 || ThresholdForReplicas(0) != 0 {
		t.Error("k<2 thresholds must be 0")
	}
}

func TestScoreEquationThree(t *testing.T) {
	current := []Host{
		host(1, 1, "eu", "a", "dc0", "r0", "k0", "s0"),
		host(2, 1, "us", "b", "dc0", "r0", "k0", "s1"),
	}
	cand := Candidate{
		Host: host(9, 0.5, "ap", "c", "dc0", "r0", "k0", "s9"),
		Rent: 10,
		G:    0.8,
	}
	// diversity to both = 63+63 = 126; score = 0.8*0.5*126 - 10 = 40.4
	if got := Score(current, cand); math.Abs(got-40.4) > 1e-9 {
		t.Errorf("Score = %v, want 40.4", got)
	}
}

func TestBestPrefersDiversityThenRent(t *testing.T) {
	current := []Host{host(1, 1, "eu", "a", "dc0", "r0", "k0", "s0")}
	sameRack := Candidate{Host: host(2, 1, "eu", "a", "dc0", "r0", "k0", "s2"), Rent: 1, G: 1}
	otherCont := Candidate{Host: host(3, 1, "us", "b", "dc0", "r0", "k0", "s3"), Rent: 5, G: 1}
	best, ok := Best(current, []Candidate{sameRack, otherCont})
	if !ok || best.ID != 3 {
		t.Errorf("Best = %v, want cross-continent server 3", best.ID)
	}

	// Equal diversity: cheaper rent wins.
	contA := Candidate{Host: host(4, 1, "us", "b", "dc0", "r0", "k0", "s4"), Rent: 7, G: 1}
	contB := Candidate{Host: host(5, 1, "ap", "c", "dc0", "r0", "k0", "s5"), Rent: 3, G: 1}
	// Make scores equal by construction: both cross-continent, so score =
	// 63 - rent; contB is cheaper and must win outright.
	best, ok = Best(current, []Candidate{contA, contB})
	if !ok || best.ID != 5 {
		t.Errorf("Best = %v, want cheaper server 5", best.ID)
	}
}

func TestBestDeterministicTieBreak(t *testing.T) {
	current := []Host{host(1, 1, "eu", "a", "dc0", "r0", "k0", "s0")}
	a := Candidate{Host: host(7, 1, "us", "b", "dc0", "r0", "k0", "s7"), Rent: 2, G: 1}
	b := Candidate{Host: host(4, 1, "ap", "c", "dc0", "r0", "k0", "s4"), Rent: 2, G: 1}
	best, _ := Best(current, []Candidate{a, b})
	if best.ID != 4 {
		t.Errorf("tie-break by ID: got %d, want 4", best.ID)
	}
	best2, _ := Best(current, []Candidate{b, a})
	if best2.ID != best.ID {
		t.Error("Best depends on candidate order")
	}
}

func TestBestEmpty(t *testing.T) {
	if _, ok := Best(nil, nil); ok {
		t.Error("Best of empty candidates reported ok")
	}
}

func BenchmarkOf(b *testing.B) {
	hs := []Host{
		host(1, 1, "eu", "a", "dc0", "r0", "k0", "s0"),
		host(2, 1, "us", "b", "dc0", "r0", "k0", "s1"),
		host(3, 1, "ap", "c", "dc0", "r0", "k0", "s2"),
		host(4, 1, "af", "d", "dc0", "r0", "k0", "s3"),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Of(hs)
	}
}

func BenchmarkBest200Candidates(b *testing.B) {
	current := []Host{
		host(1, 1, "eu", "a", "dc0", "r0", "k0", "s0"),
		host(2, 1, "us", "b", "dc0", "r0", "k0", "s1"),
	}
	cands := make([]Candidate, 200)
	for i := range cands {
		cands[i] = Candidate{
			Host: host(10+i, 1, string(rune('a'+i%5)), "c", "dc0", "r0", "k0", "s"),
			Rent: float64(i % 7),
			G:    1,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := Best(current, cands); !ok {
			b.Fatal("no best")
		}
	}
}
