package membership

import (
	"testing"
	"time"
)

func info(name string) Info {
	return Info{
		Name:          name,
		Addr:          name + ":addr",
		LocPath:       "eu/ch/zrh/dc1/r1/" + name,
		Confidence:    0.95,
		MonthlyRent:   100,
		Capacity:      1 << 30,
		QueryCapacity: 1000,
	}
}

func TestSeedPeerStartsInProbation(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := New(info("n0"), 10*time.Second, 20*time.Second)
	tb.SeedPeer(info("n1"), now)

	m, ok := tb.Get("n1")
	if !ok {
		t.Fatalf("seeded peer missing")
	}
	if !m.Probation() {
		t.Fatalf("seeded peer should be in probation, got %+v", m)
	}
	if tb.Alive("n1", now) {
		t.Fatalf("probation peer must not count as alive")
	}
	if !tb.Alive("n0", now) {
		t.Fatalf("owner must always be alive to itself")
	}

	tb.Confirm("n1", now.Add(time.Second))
	if !tb.Alive("n1", now.Add(time.Second)) {
		t.Fatalf("confirmed peer should be alive")
	}
}

func TestTickSuspectsThenKills(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := New(info("n0"), 10*time.Second, 20*time.Second)
	tb.SeedPeer(info("n1"), now)
	tb.Confirm("n1", now)

	s, d := tb.Tick(now.Add(5 * time.Second))
	if len(s) != 0 || len(d) != 0 {
		t.Fatalf("fresh member transitioned early: suspects=%v deads=%v", s, d)
	}

	s, _ = tb.Tick(now.Add(11 * time.Second))
	if len(s) != 1 || s[0].Info.Name != "n1" || s[0].State != Suspect {
		t.Fatalf("expected n1 suspected, got %v", s)
	}
	if tb.Alive("n1", now.Add(11*time.Second)) {
		t.Fatalf("suspect must not be alive")
	}

	// Not yet past suspectAfter+deadAfter.
	_, d = tb.Tick(now.Add(25 * time.Second))
	if len(d) != 0 {
		t.Fatalf("member declared dead before grace expired: %v", d)
	}

	_, d = tb.Tick(now.Add(31 * time.Second))
	if len(d) != 1 || d[0].Info.Name != "n1" || d[0].State != Dead {
		t.Fatalf("expected n1 dead, got %v", d)
	}
	m, _ := tb.Get("n1")
	if m.State != Dead {
		t.Fatalf("record not dead: %+v", m)
	}
}

func TestProbationPeerEventuallyDies(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := New(info("n0"), 10*time.Second, 20*time.Second)
	tb.SeedPeer(info("n1"), now)

	s, _ := tb.Tick(now.Add(11 * time.Second))
	if len(s) != 1 {
		t.Fatalf("unconfirmed peer should still be suspected, got %v", s)
	}
	_, d := tb.Tick(now.Add(31 * time.Second))
	if len(d) != 1 {
		t.Fatalf("unconfirmed peer should die, got %v", d)
	}
}

func TestConfirmClearsLocalSuspicion(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := New(info("n0"), 10*time.Second, 20*time.Second)
	tb.SeedPeer(info("n1"), now)
	tb.Confirm("n1", now)
	tb.Tick(now.Add(11 * time.Second))

	tb.Confirm("n1", now.Add(12*time.Second))
	if !tb.Alive("n1", now.Add(12*time.Second)) {
		t.Fatalf("direct contact should clear suspicion")
	}
	m, _ := tb.Get("n1")
	if m.State != Alive {
		t.Fatalf("state not restored: %+v", m)
	}
}

func TestConfirmDoesNotResurrectDead(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := New(info("n0"), 10*time.Second, 20*time.Second)
	tb.SeedPeer(info("n1"), now)
	tb.Fail("n1")
	tb.Confirm("n1", now)
	if tb.Alive("n1", now) {
		t.Fatalf("confirm must not resurrect a dead member")
	}
}

func TestMergePrecedence(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := New(info("n0"), 10*time.Second, 20*time.Second)

	if got := tb.Apply(Delta{Info: info("n1"), State: Alive, Incarnation: 3}, now); got != Applied {
		t.Fatalf("new record: got %v", got)
	}
	// Same incarnation, worse state wins.
	if got := tb.Apply(Delta{Info: info("n1"), State: Suspect, Incarnation: 3}, now); got != Applied {
		t.Fatalf("worse state at same incarnation should apply, got %v", got)
	}
	// Same incarnation, better state loses.
	if got := tb.Apply(Delta{Info: info("n1"), State: Alive, Incarnation: 3}, now); got != Stale {
		t.Fatalf("better state at same incarnation should be stale, got %v", got)
	}
	// Higher incarnation wins regardless.
	if got := tb.Apply(Delta{Info: info("n1"), State: Alive, Incarnation: 4}, now); got != Applied {
		t.Fatalf("higher incarnation should apply, got %v", got)
	}
	m, _ := tb.Get("n1")
	if m.State != Alive || m.Incarnation != 4 {
		t.Fatalf("unexpected record %+v", m)
	}
	// Exact duplicate.
	if got := tb.Apply(Delta{Info: info("n1"), State: Alive, Incarnation: 4}, now); got != Duplicate {
		t.Fatalf("duplicate should report Duplicate")
	}
	// Dead beats Left at same incarnation; Left beats Suspect.
	if got := tb.Apply(Delta{Info: info("n1"), State: Left, Incarnation: 4}, now); got != Applied {
		t.Fatalf("left should beat alive, got %v", got)
	}
	if got := tb.Apply(Delta{Info: info("n1"), State: Suspect, Incarnation: 4}, now); got != Stale {
		t.Fatalf("suspect should lose to left, got %v", got)
	}
	if got := tb.Apply(Delta{Info: info("n1"), State: Dead, Incarnation: 4}, now); got != Applied {
		t.Fatalf("dead should beat left, got %v", got)
	}
}

func TestRefutation(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := New(info("n0"), 10*time.Second, 20*time.Second)

	got := tb.Apply(Delta{Info: info("n0"), State: Suspect, Incarnation: 1}, now)
	if got != Refuted {
		t.Fatalf("self-suspicion should be refuted, got %v", got)
	}
	d := tb.SelfDelta()
	if d.State != Alive || d.Incarnation != 2 {
		t.Fatalf("refutation should bump incarnation: %+v", d)
	}
	// A stale accusation at a lower incarnation is just stale.
	if got := tb.Apply(Delta{Info: info("n0"), State: Dead, Incarnation: 1}, now); got != Stale {
		t.Fatalf("stale accusation should be Stale, got %v", got)
	}
	// Server-assigned fresh alive incarnation lands (join response path).
	if got := tb.Apply(Delta{Info: info("n0"), State: Alive, Incarnation: 9}, now); got != Applied {
		t.Fatalf("fresh self alive incarnation should apply, got %v", got)
	}
	if d := tb.SelfDelta(); d.Incarnation != 9 {
		t.Fatalf("incarnation not adopted: %+v", d)
	}
}

func TestResurrectionResetsConfirmation(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := New(info("n0"), 10*time.Second, 20*time.Second)
	tb.SeedPeer(info("n1"), now)
	tb.Confirm("n1", now)
	tb.Apply(Delta{Info: info("n1"), State: Dead, Incarnation: 1}, now)

	// Rejoin at a fresh incarnation: record applies but the member must
	// re-earn direct confirmation.
	if got := tb.Apply(Delta{Info: info("n1"), State: Alive, Incarnation: 2}, now); got != Applied {
		t.Fatalf("rejoin should apply, got %v", got)
	}
	m, _ := tb.Get("n1")
	if !m.Probation() {
		t.Fatalf("rejoined member should be in probation: %+v", m)
	}
}

func TestDigestConvergence(t *testing.T) {
	now := time.Unix(1000, 0)
	a := New(info("n0"), 10*time.Second, 20*time.Second)
	b := New(info("n1"), 10*time.Second, 20*time.Second)

	if a.Digest() == b.Digest() {
		t.Fatalf("different views should differ")
	}
	for _, d := range a.Deltas() {
		b.Apply(d, now)
	}
	for _, d := range b.Deltas() {
		a.Apply(d, now)
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("converged views should share a digest:\n a=%v\n b=%v", a.Members(), b.Members())
	}

	// Local-only confirmation must not change the digest.
	before := a.Digest()
	a.Confirm("n1", now)
	if a.Digest() != before {
		t.Fatalf("confirmation is local-only and must not affect the digest")
	}
}

func TestFailReviveRoundTrip(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := New(info("n0"), 10*time.Second, 20*time.Second)
	tb.SeedPeer(info("n1"), now)
	tb.Confirm("n1", now)

	tb.Fail("n1")
	if tb.Alive("n1", now) {
		t.Fatalf("failed member still alive")
	}
	tb.Revive("n1", now)
	if !tb.Alive("n1", now) {
		t.Fatalf("revived member not alive")
	}
	m, _ := tb.Get("n1")
	if m.Incarnation != 2 {
		t.Fatalf("revive should bump incarnation: %+v", m)
	}
	// Reviving an alive member is idempotent on incarnation.
	tb.Revive("n1", now)
	if m, _ := tb.Get("n1"); m.Incarnation != 2 {
		t.Fatalf("revive of alive member must not bump incarnation: %+v", m)
	}
}

func TestLeave(t *testing.T) {
	tb := New(info("n0"), 10*time.Second, 20*time.Second)
	d := tb.Leave()
	if d.State != Left || d.Incarnation != 2 {
		t.Fatalf("unexpected leave delta %+v", d)
	}
	other := New(info("n1"), 10*time.Second, 20*time.Second)
	other.Apply(d, time.Unix(1000, 0))
	if m, _ := other.Get("n0"); m.State != Left {
		t.Fatalf("leave did not propagate: %+v", m)
	}
	if got := other.GossipPeers(); len(got) != 0 {
		t.Fatalf("left member must not be a gossip target: %v", got)
	}
}

// TestManualStopsTheClock: in manual mode silence suspects nobody and a
// confirmed peer stays alive; turning the clock back on restarts the
// silence window at the switch, so manual time never counts.
func TestManualStopsTheClock(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := New(info("n0"), 10*time.Second, 20*time.Second)
	tb.SeedPeer(info("n1"), now)
	tb.Confirm("n1", now)
	tb.SetManual(true, time.Time{})

	late := now.Add(time.Hour)
	if s, d := tb.Tick(late); len(s)+len(d) != 0 || !tb.Alive("n1", late) {
		t.Fatalf("manual table aged n1: suspects=%v deads=%v alive=%v", s, d, tb.Alive("n1", late))
	}
	tb.Fail("n1")
	if tb.Alive("n1", late) {
		t.Fatal("Fail did not take n1 down in manual mode")
	}
	tb.Revive("n1", now)

	tb.SetManual(false, late)
	if s, _ := tb.Tick(late.Add(5 * time.Second)); len(s) != 0 || !tb.Alive("n1", late.Add(5*time.Second)) {
		t.Fatalf("switch to clocked counted manual time as silence: suspects=%v", s)
	}
	if s, _ := tb.Tick(late.Add(11 * time.Second)); len(s) != 1 {
		t.Fatalf("clocked table did not suspect n1 after 11 s of silence: %v", s)
	}
}
