package agent

import (
	"math/rand"
	"testing"

	"skute/internal/availability"
	"skute/internal/ring"
	"skute/internal/topology"
)

// randomLoc draws from a small location space so that candidates often
// tie on diversity, and with it on score.
func randomLoc(rng *rand.Rand) topology.Location {
	pick := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	return topology.Qualified(pick("eu", "us", "ap"), pick("c1", "c2"), pick("d1", "d2"), "rm", "rk", pick("s1", "s2"))
}

func randomHost(rng *rand.Rand, id int) availability.Host {
	confs := []float64{1, 1, 0.9, 0.5}
	return availability.Host{ID: ring.ServerID(id), Loc: randomLoc(rng), Conf: confs[rng.Intn(len(confs))]}
}

// randomCase draws one decision: 1-5 hosts including the node itself,
// 0-60 candidates with tied rents and scores (some of them hosts of the
// partition, as the simulator's epoch-wide list has), and an admit set
// that is nil one time in four.
func randomCase(rng *rand.Rand) (VNode, Params, Inputs) {
	ids := rng.Perm(100)
	hosts := make([]availability.Host, 1+rng.Intn(5))
	for i := range hosts {
		hosts[i] = randomHost(rng, ids[i])
	}
	cands := make([]availability.Candidate, rng.Intn(61))
	for i := range cands {
		id := ids[rng.Intn(len(ids))]
		if rng.Intn(4) > 0 {
			id = ids[len(hosts)+i]
		}
		cands[i] = availability.Candidate{
			Host: randomHost(rng, id),
			Rent: float64(1 + rng.Intn(4)),
			G:    []float64{1, 0.5}[rng.Intn(2)],
		}
	}
	var admit func(ring.ServerID) bool
	if rng.Intn(4) > 0 {
		set := make(map[ring.ServerID]bool)
		for _, c := range cands {
			set[c.ID] = rng.Intn(3) > 0
		}
		admit = func(id ring.ServerID) bool { return set[id] }
	}
	v := VNode{Server: hosts[rng.Intn(len(hosts))].ID}
	for n := rng.Intn(4); n > 0; n-- {
		v.Ledger.Push(float64(rng.Intn(5) - 2))
	}
	p := params()
	p.F = 1 + rng.Intn(2)
	if rng.Intn(2) == 0 {
		p.EvictionPressure = 0.9
	}
	in := Inputs{
		Threshold:       availability.ThresholdForReplicas(1+rng.Intn(4)) * rng.Float64() * 1.2,
		Hosts:           hosts,
		Candidates:      cands,
		Admit:           admit,
		Queries:         float64(rng.Intn(20)),
		StoragePressure: rng.Float64(),
		G:               1,
		Rent:            float64(1 + rng.Intn(4)),
		MinRent:         1,
		ConsistencyCost: float64(rng.Intn(2)),
	}
	return v, p, in
}

// filtered builds the admitted candidate list eagerly, the form an
// environment without an admission check hands the agent.
func filtered(in Inputs) []availability.Candidate {
	var out []availability.Candidate
	for _, c := range in.Candidates {
		if in.Admit == nil || in.Admit(c.ID) {
			out = append(out, c)
		}
	}
	return out
}

// refMigrationTarget is the migration rule written with availability.With
// and availability.Best over a pre-filtered list: the reference the fused
// single-pass scan must reproduce exactly.
func refMigrationTarget(v *VNode, in Inputs) (availability.Candidate, bool) {
	var others []availability.Host
	for _, h := range in.Hosts {
		if h.ID != v.Server {
			others = append(others, h)
		}
	}
	var cheaper []availability.Candidate
	for _, c := range filtered(in) {
		if c.Rent < in.Rent && availability.With(others, c.Host) >= in.Threshold {
			cheaper = append(cheaper, c)
		}
	}
	return availability.Best(others, cheaper)
}

func TestLazyAdmitMatchesPrefilteredList(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := make(map[Action]int)
	for trial := 0; trial < 20000; trial++ {
		v, p, in := randomCase(rng)

		ref := in
		ref.Candidates, ref.Admit = filtered(in), nil
		vl, vr := v, v
		got, want := vl.Decide(p, in), vr.Decide(p, ref)
		if got != want || vl.Ledger != vr.Ledger {
			t.Fatalf("trial %d: lazy admit decided %+v (ledger %+v), pre-filtered list %+v (ledger %+v)",
				trial, got, vl.Ledger, want, vr.Ledger)
		}
		seen[got.Action]++

		mc, mok := v.MigrationTarget(in)
		rc, rok := refMigrationTarget(&v, in)
		if mok != rok || mc != rc {
			t.Fatalf("trial %d: fused migration pass = %+v %v, With+Best = %+v %v", trial, mc, mok, rc, rok)
		}
	}
	for _, a := range []Action{Hold, Replicate, Migrate, Suicide} {
		if seen[a] == 0 {
			t.Errorf("no trial decided %v; the draw does not cover every branch (%v)", a, seen)
		}
	}
}

// evictionCase is a node on a full server whose cheapest admitted escape
// is one of 200 candidates: Decide takes the emergency-eviction branch.
func evictionCase() (VNode, Params, Inputs) {
	cands := make([]availability.Candidate, 200)
	conts := []string{"eu", "us", "ap", "af"}
	for i := range cands {
		cands[i] = cand(10+i, conts[i%len(conts)], float64(1+i%7))
	}
	p := params()
	p.EvictionPressure = 0.9
	return VNode{Server: 1}, p, Inputs{
		Threshold:       availability.ThresholdForReplicas(3),
		Hosts:           []availability.Host{host(1, "eu"), host(2, "us"), host(3, "ap")},
		Candidates:      cands,
		Admit:           func(id ring.ServerID) bool { return id%3 != 0 },
		StoragePressure: 0.95,
		G:               1, Rent: 5, MinRent: 1,
	}
}

func TestDecideEvictionAllocatesNothing(t *testing.T) {
	v, p, in := evictionCase()
	if d := v.Decide(p, in); d.Action != Migrate {
		t.Fatalf("action = %v, want the emergency migration", d.Action)
	}
	if n := testing.AllocsPerRun(100, func() { v.Decide(p, in) }); n != 0 {
		t.Errorf("Decide allocates %v times per call on the eviction branch, want 0", n)
	}
}

func BenchmarkDecideEvict(b *testing.B) {
	v, p, in := evictionCase()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Decide(p, in)
	}
}
