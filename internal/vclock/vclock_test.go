package vclock

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTickAndGet(t *testing.T) {
	v := New().Tick("a").Tick("a").Tick("b")
	if v.Get("a") != 2 || v.Get("b") != 1 || v.Get("c") != 0 {
		t.Errorf("clock = %v", v)
	}
	var nilClock VC
	ticked := nilClock.Tick("x")
	if ticked.Get("x") != 1 {
		t.Error("Tick on nil clock failed")
	}
}

func TestCompare(t *testing.T) {
	a := VC{"a": 1}
	b := VC{"a": 2}
	c := VC{"b": 1}
	cases := []struct {
		x, y VC
		want Ordering
	}{
		{a, a.Clone(), Equal},
		{a, b, Before},
		{b, a, After},
		{a, c, Concurrent},
		{c, a, Concurrent},
		{nil, nil, Equal},
		{nil, a, Before},
		{a, nil, After},
		{VC{"a": 1, "b": 2}, VC{"a": 2, "b": 1}, Concurrent},
		{VC{"a": 1, "b": 1}, VC{"a": 1, "b": 2}, Before},
	}
	for i, cse := range cases {
		if got := cse.x.Compare(cse.y); got != cse.want {
			t.Errorf("case %d: %v.Compare(%v) = %v, want %v", i, cse.x, cse.y, got, cse.want)
		}
	}
}

func TestDescends(t *testing.T) {
	a := VC{"a": 1}
	b := VC{"a": 2, "b": 1}
	if !b.Descends(a) || a.Descends(b) {
		t.Error("Descends wrong for ordered clocks")
	}
	if !a.Descends(a.Clone()) {
		t.Error("clock must descend its equal")
	}
	if a.Descends(VC{"b": 1}) {
		t.Error("concurrent clocks must not descend each other")
	}
}

func TestMerge(t *testing.T) {
	a := VC{"a": 3, "b": 1}
	b := VC{"a": 1, "c": 2}
	m := Merge(a, b)
	want := VC{"a": 3, "b": 1, "c": 2}
	if m.Compare(want) != Equal {
		t.Errorf("Merge = %v, want %v", m, want)
	}
	if !m.Descends(a) || !m.Descends(b) {
		t.Error("merged clock must descend both inputs")
	}
	// Merge must not alias its inputs.
	m.Tick("a")
	if a["a"] != 3 {
		t.Error("Merge aliased input")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := VC{"a": 1}
	c := a.Clone()
	c.Tick("a")
	if a["a"] != 1 {
		t.Error("Clone aliased input")
	}
}

func TestString(t *testing.T) {
	v := VC{"b": 2, "a": 1}
	if got := v.String(); got != "{a:1, b:2}" {
		t.Errorf("String = %q", got)
	}
	if got := (VC{}).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
	if Ordering(99).String() == "" {
		t.Error("unknown ordering string empty")
	}
	for o, s := range map[Ordering]string{Equal: "equal", Before: "before", After: "after", Concurrent: "concurrent"} {
		if o.String() != s {
			t.Errorf("%d.String() = %q", int(o), o.String())
		}
	}
}

// buildVC maps quick-generated data onto a small clock space.
func buildVC(ticks []uint8) VC {
	nodes := []string{"a", "b", "c"}
	v := New()
	for i, n := range ticks {
		for j := 0; j < int(n%4); j++ {
			v.Tick(nodes[i%len(nodes)])
		}
	}
	return v
}

func TestComparePropertyAntisymmetric(t *testing.T) {
	f := func(x, y []uint8) bool {
		a, b := buildVC(x), buildVC(y)
		ab, ba := a.Compare(b), b.Compare(a)
		switch ab {
		case Equal:
			return ba == Equal
		case Before:
			return ba == After
		case After:
			return ba == Before
		default:
			return ba == Concurrent
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMergePropertyUpperBound(t *testing.T) {
	f := func(x, y []uint8) bool {
		a, b := buildVC(x), buildVC(y)
		m := Merge(a, b)
		return m.Descends(a) && m.Descends(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTickPropertyStrictlyAfter(t *testing.T) {
	f := func(x []uint8) bool {
		a := buildVC(x)
		b := a.Clone().Tick("a")
		return b.Compare(a) == After && a.Compare(b) == Before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// fmtString is the String of earlier releases, which built the text with
// fmt. Merkle leaves hash this text, so AppendString must reproduce it
// byte for byte: a single differing byte would make anti-entropy between
// old and new nodes repair every key.
func fmtString(v VC) string {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%d", k, v[k])
	}
	b.WriteByte('}')
	return b.String()
}

func TestAppendStringMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	clocks := []VC{nil, {}, {"": 0}, {"a": ^uint64(0)}}
	for range 2000 {
		c := VC{}
		for range rng.Intn(12) {
			name := make([]byte, rng.Intn(6))
			for j := range name {
				name[j] = byte(rng.Intn(256))
			}
			c[string(name)] = rng.Uint64() >> rng.Intn(64)
		}
		clocks = append(clocks, c)
	}
	for _, c := range clocks {
		want := fmtString(c)
		if got := c.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
		if got := string(c.AppendString([]byte("x"))); got != "x"+want {
			t.Fatalf("AppendString = %q, want %q", got, "x"+want)
		}
	}
}

func TestAppendStringAllocs(t *testing.T) {
	c := VC{"n0": 3, "n1": 1, "n2": 7}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = c.AppendString(buf[:0]) }); n != 0 {
		t.Errorf("AppendString of a 3-entry clock allocates %.0f times, want 0", n)
	}
}
