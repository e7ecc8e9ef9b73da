package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLevelBits(t *testing.T) {
	want := map[Level]uint8{
		Continent:  32,
		Country:    16,
		Datacenter: 8,
		Room:       4,
		Rack:       2,
		Server:     1,
	}
	for l, w := range want {
		if got := l.Bit(); got != w {
			t.Errorf("%s.Bit() = %d, want %d", l, got, w)
		}
	}
}

func TestLevelString(t *testing.T) {
	names := []string{"continent", "country", "datacenter", "room", "rack", "server"}
	for i, want := range names {
		if got := Level(i).String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", i, got, want)
		}
	}
	if got := Level(42).String(); got != "level(42)" {
		t.Errorf("Level(42).String() = %q", got)
	}
}

func TestDiversityPaperExample(t *testing.T) {
	// The paper's worked example: same continent, country and datacenter,
	// different room, rack, server => similarity 111000, diversity 7.
	a := Qualified("eu", "ch", "dc0", "room0", "rack0", "srv0")
	b := Qualified("eu", "ch", "dc0", "room1", "rack1", "srv1")
	if sim := Similarity(a, b); sim != 0b111000 {
		t.Errorf("Similarity = %06b, want 111000", sim)
	}
	if d := Diversity(a, b); d != 7 {
		t.Errorf("Diversity = %d, want 7", d)
	}
}

func TestDiversityExtremes(t *testing.T) {
	a := Qualified("eu", "ch", "dc0", "room0", "rack0", "srv0")
	if d := Diversity(a, a); d != 0 {
		t.Errorf("Diversity(a,a) = %d, want 0", d)
	}
	b := Qualified("us", "us-east", "dc9", "room9", "rack9", "srv9")
	if d := Diversity(a, b); d != MaxDiversity {
		t.Errorf("Diversity across continents = %d, want %d", d, MaxDiversity)
	}
}

func TestQualifiedHierarchy(t *testing.T) {
	// Sibling subtrees reuse child names; qualification must keep them
	// distinct at the deeper levels.
	a := Qualified("eu", "ch", "dc0", "room0", "rack0", "srv0")
	b := Qualified("eu", "fr", "dc0", "room0", "rack0", "srv0")
	// Different country implies different datacenter/room/rack/server even
	// though the short names match.
	if d := Diversity(a, b); d != 31 {
		t.Errorf("Diversity(different country, same short names) = %d, want 31", d)
	}
}

func TestParsePathRoundTrip(t *testing.T) {
	loc, err := ParsePath("eu/ch/dc0/room0/rack1/srv7")
	if err != nil {
		t.Fatalf("ParsePath: %v", err)
	}
	if got := loc.Path(); got != "eu/ch/dc0/room0/rack1/srv7" {
		t.Errorf("Path() = %q", got)
	}
	if loc.At(Country) != "eu/ch" {
		t.Errorf("country label = %q, want qualified \"eu/ch\"", loc.At(Country))
	}
}

func TestParsePathErrors(t *testing.T) {
	cases := []string{
		"",
		"eu/ch",
		"eu/ch/dc0/room0/rack1/srv7/extra",
		"eu//dc0/room0/rack1/srv7",
	}
	for _, c := range cases {
		if _, err := ParsePath(c); err == nil {
			t.Errorf("ParsePath(%q): want error, got nil", c)
		}
	}
}

func TestMustParsePathPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParsePath on malformed path did not panic")
		}
	}()
	MustParsePath("not/a/location")
}

func TestBuildPaperSpec(t *testing.T) {
	spec := PaperSpec()
	if got := spec.TotalServers(); got != 200 {
		t.Fatalf("PaperSpec total servers = %d, want 200", got)
	}
	sites := MustBuild(spec)
	if len(sites) != 200 {
		t.Fatalf("Build produced %d sites, want 200", len(sites))
	}
	// 10 distinct countries, 20 datacenters, 40 racks.
	countries := map[string]bool{}
	dcs := map[string]bool{}
	racks := map[string]bool{}
	servers := map[string]bool{}
	for i, s := range sites {
		if s.Index != i {
			t.Fatalf("site %d has index %d", i, s.Index)
		}
		if s.Confidence != 1 {
			t.Fatalf("default confidence = %v, want 1", s.Confidence)
		}
		countries[s.Loc.At(Country)] = true
		dcs[s.Loc.At(Datacenter)] = true
		racks[s.Loc.At(Rack)] = true
		servers[s.Loc.At(Server)] = true
	}
	if len(countries) != 10 || len(dcs) != 20 || len(racks) != 40 || len(servers) != 200 {
		t.Errorf("distinct countries/dcs/racks/servers = %d/%d/%d/%d, want 10/20/40/200",
			len(countries), len(dcs), len(racks), len(servers))
	}
}

func TestBuildConfidenceOverride(t *testing.T) {
	spec := PaperSpec()
	spec.ConfidenceByCountry = map[string]float64{"ct0.cn0": 0.5}
	sites := MustBuild(spec)
	seen := false
	for _, s := range sites {
		if s.Loc.At(Country) == "ct0/ct0.cn0" {
			seen = true
			if s.Confidence != 0.5 {
				t.Fatalf("confidence = %v, want 0.5", s.Confidence)
			}
		} else if s.Confidence != 1 {
			t.Fatalf("confidence of %s = %v, want 1", s.Loc, s.Confidence)
		}
	}
	if !seen {
		t.Fatal("country ct0.cn0 not found in built topology")
	}
}

func TestBuildInvalidSpec(t *testing.T) {
	spec := PaperSpec()
	spec.RacksPerRoom = 0
	if _, err := Build(spec); err == nil {
		t.Fatal("Build with zero racks per room: want error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild on invalid spec did not panic")
		}
	}()
	MustBuild(spec)
}

// randomLoc draws a random location from a small hierarchical namespace so
// that collisions at every level are likely.
func randomLoc(r *rand.Rand) Location {
	pick := func(prefix string, n int) string {
		return prefix + string(rune('a'+r.Intn(n)))
	}
	return Qualified(
		pick("ct", 3), pick("cn", 3), pick("dc", 3),
		pick("rm", 2), pick("rk", 2), pick("sv", 4),
	)
}

func TestDiversityPropertySymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		a, b := randomLoc(r), randomLoc(r)
		return Diversity(a, b) == Diversity(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDiversityPropertyRangeAndIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func() bool {
		a, b := randomLoc(r), randomLoc(r)
		d := Diversity(a, b)
		if d < 0 || d > MaxDiversity {
			return false
		}
		if a == b && d != 0 {
			return false
		}
		if d == 0 && a != b {
			return false
		}
		return Diversity(a, a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestDiversityPropertyHierarchical(t *testing.T) {
	// For locations built by Qualified, the set of similar levels is always
	// a (possibly empty) prefix of the hierarchy: once a level differs all
	// finer levels differ too. Hence diversity is one of the seven values
	// 0,1,3,7,15,31,63.
	valid := map[int]bool{0: true, 1: true, 3: true, 7: true, 15: true, 31: true, 63: true}
	r := rand.New(rand.NewSource(3))
	f := func() bool {
		a, b := randomLoc(r), randomLoc(r)
		return valid[Diversity(a, b)]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDiversity(b *testing.B) {
	x := Qualified("eu", "ch", "dc0", "room0", "rack0", "srv0")
	y := Qualified("eu", "ch", "dc1", "room0", "rack1", "srv9")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Diversity(x, y) == 0 {
			b.Fatal("unexpected zero diversity")
		}
	}
}
