package cluster

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"skute/internal/membership"
	"skute/internal/placement"
	"skute/internal/ring"
	"skute/internal/store"
	"skute/internal/vclock"
)

// handSamples builds one representative (non-zero) value per
// hand-coded payload type, in tag order.
func handSamples() []any {
	id := ring.RingID{App: "app1", Class: "gold"}
	ver := store.Version{Value: []byte("v1"), Clock: vclock.VC{"n0": 3, "n1": 1}}
	tomb := store.Version{Clock: vclock.VC{"n2": 1 << 40}, Tombstone: true}
	items := []kv{{Key: "k", Versions: []store.Version{ver, tomb}}, {Key: "empty"}}
	return []any{
		multiGetReq{Ring: id, Keys: []string{"a", "b", "c"}},
		multiGetResp{Items: items},
		multiPutReq{Ring: id, Items: []putItem{{Key: "a", Version: ver}, {Key: "b", Version: tomb}}},
		clientGetReq{Ring: id, Key: "user:42", Consistency: ConsistencyQuorum, Timeout: 250 * time.Millisecond},
		clientGetResp{Values: [][]byte{[]byte("a"), []byte("b")}, Context: map[string]uint64{"n1": 9}},
		clientPutReq{Ring: id, Key: "user:42", Value: []byte(`{"v":1}`), Context: map[string]uint64{"n0": 2}, Consistency: ConsistencyOne, Timeout: -time.Second},
		clientMGetReq{Ring: id, Keys: []string{"x", "y"}, Consistency: ConsistencyAll, Timeout: time.Minute},
		clientMGetResp{Items: []clientKV{{Key: "x", Values: [][]byte{[]byte("1")}, Context: map[string]uint64{"n0": 1}}, {Key: "y"}}},
		clientMPutReq{Ring: id, Entries: []Entry{{Key: "a", Value: []byte("x"), Context: vclock.VC{"n2": 4}}}, Timeout: time.Second},
		fetchChunkResp{Items: items, Next: "k", Done: true},
	}
}

// codecSamples builds one representative value per gob payload type
// that carries a count, then every hand-coded sample. Parent and child of
// the cross-process test construct the identical list.
func codecSamples() []any {
	id := ring.RingID{App: "app1", Class: "gold"}
	gobs := []any{
		heartbeatReq{From: "n0", Digest: []ringSum{{Ring: id, Sum: 7}}, MDigest: 3},
		deltaReq{Deltas: []placement.Delta{{Ring: id, Part: 3, Version: 7, Origin: "n1", Replicas: []string{"n0", "n1"}}}},
		deltaPullReq{Digest: []ringSum{{Ring: id, Sum: 1}, {Ring: ring.RingID{App: "app2"}, Sum: 2}}},
		rentsResp{Rents: []nodeRent{{Node: "n0", Rent: 100}, {Node: "n1", Rent: 150.5}}},
		memberDeltaReq{Deltas: []membership.Delta{{Info: membership.Info{Name: "n0", Addr: "a:1", Confidence: 1}, Incarnation: 2}}},
		leavesResp{Keys: []string{"a"}, Hashes: [][]byte{{1, 2, 3}}},
	}
	return append(gobs, handSamples()...)
}

// TestPayloadCodecRoundTrip: every wire payload type round-trips through
// its codec, zero value and sample alike, and a payload of the wrong
// codec or with a 0x00 marker is a codec mismatch.
func TestPayloadCodecRoundTrip(t *testing.T) {
	var zeros []any
	for _, s := range handSamples() {
		zeros = append(zeros, reflect.Zero(reflect.TypeOf(s)).Interface())
	}
	for _, v := range append(append(zeros, wirePayloadPrototypes...), codecSamples()...) {
		out := newPtr(v)
		if err := decode(encode(v), out); err != nil {
			t.Errorf("round-trip %T: %v", v, err)
			continue
		}
		if got := reflect.ValueOf(out).Elem().Interface(); !reflect.DeepEqual(got, gobRoundTrip(t, v)) {
			t.Errorf("round-trip %T: got %+v, want %+v", v, got, v)
		}
	}
	hand := encode(clientPutReq{Key: "k"})
	gobbed := encode(heartbeatReq{From: "n0"})
	for name, c := range map[string]struct {
		p  []byte
		to any
	}{
		"gob payload to a hand-coded type": {gobbed, &clientPutReq{}},
		"hand payload to a gob type":       {hand, &heartbeatReq{}},
		"wrong tag":                        {hand, &clientGetReq{}},
		"0x00 marker":                      {append([]byte{0x00}, hand[1:]...), &clientPutReq{}},
		"0x00 marker to a gob type":        {append([]byte{0x00}, gobbed[1:]...), &heartbeatReq{}},
	} {
		if err := decode(c.p, c.to); err == nil || !strings.Contains(err.Error(), "codec mismatch") {
			t.Errorf("%s: err = %v, want a codec mismatch", name, err)
		}
	}
	if err := decode(append(encode(clientGetReq{Key: "k"}), 0), &clientGetReq{}); err == nil {
		t.Error("hand decode accepted a trailing byte")
	}
	if err := decode(append(encode(heartbeatReq{From: "n0"}), 0), &heartbeatReq{}); err == nil {
		t.Error("gob decode accepted a trailing byte")
	}
}

// TestHandCodedTypesLeftGob: the hand-coded types implement both
// halves of the hand codec, and the pinned gob registry lists none of
// them.
func TestHandCodedTypesLeftGob(t *testing.T) {
	for _, s := range handSamples() {
		if _, ok := newPtr(s).(wireUnmarshaler); !ok {
			t.Errorf("%T marshals by hand but its pointer has no unmarshalWire", s)
		}
	}
	for _, p := range wirePayloadPrototypes {
		if _, ok := p.(wireMarshaler); ok {
			t.Errorf("hand-coded %T is still in wirePayloadPrototypes", p)
		}
	}
}

// TestGobWireTypesHoldNoMap: gob sizes a map from the count the payload
// claims, so no gob wire type may hold one at any depth; scanGob also
// needs every struct field exported, as gob numbers only those.
func TestGobWireTypesHoldNoMap(t *testing.T) {
	var walk func(path string, t reflect.Type) []string
	walk = func(path string, typ reflect.Type) []string {
		switch typ.Kind() {
		case reflect.Map:
			return []string{path + " is a map"}
		case reflect.Slice, reflect.Array, reflect.Pointer:
			return walk(path+"[]", typ.Elem())
		case reflect.Struct:
			var bad []string
			for i := range typ.NumField() {
				f := typ.Field(i)
				if !f.IsExported() {
					bad = append(bad, path+"."+f.Name+" is unexported")
					continue
				}
				bad = append(bad, walk(path+"."+f.Name, f.Type)...)
			}
			return bad
		}
		return nil
	}
	for _, p := range wirePayloadPrototypes {
		for _, b := range walk(reflect.TypeOf(p).String(), reflect.TypeOf(p)) {
			t.Error(b)
		}
	}
}

// claimUvarint and claimGob are 10⁶ as a uvarint (hand codec) and as a
// gob uint.
var (
	claimUvarint = []byte{0xc0, 0x84, 0x3d}
	claimGob     = []byte{0xfd, 0x0f, 0x42, 0x40}
)

// TestDecodeBoundsClaimedCounts: a payload under 64 bytes whose count
// claims 10⁶ entries fails, and decoding it allocates under 64 KiB.
// Before the bounds rule, a 40-byte multi-put whose clock claimed 10⁶
// entries made gob allocate 56 MB.
func TestDecodeBoundsClaimedCounts(t *testing.T) {
	cases := map[string]struct {
		p  []byte
		to any
	}{}
	add := func(name string, to any, parts ...[]byte) {
		cases[name] = struct {
			p  []byte
			to any
		}{bytes.Join(parts, nil), to}
	}
	h := func(tag byte) []byte { return []byte{handMarker, tag} }
	ringZ := []byte{0, 0}
	fill := bytes.Repeat([]byte{1}, 16)
	add("multiGetReq.Keys", &multiGetReq{}, h(tagMultiGetReq), ringZ, claimUvarint, fill)
	add("multiGetResp.Items", &multiGetResp{}, h(tagMultiGetResp), claimUvarint, fill)
	add("multiGetResp.Versions", &multiGetResp{}, h(tagMultiGetResp), []byte{1, 0}, claimUvarint, fill)
	add("multiGetResp.Clock", &multiGetResp{}, h(tagMultiGetResp), []byte{1, 0, 1, 0}, claimUvarint, fill)
	add("multiPutReq.Items", &multiPutReq{}, h(tagMultiPutReq), ringZ, claimUvarint, fill)
	add("multiPutReq.Clock", &multiPutReq{}, h(tagMultiPutReq), ringZ, []byte{1, 0, 0}, claimUvarint, fill)
	add("multiPutReq.Value", &multiPutReq{}, h(tagMultiPutReq), ringZ, []byte{1, 0}, claimUvarint, fill)
	add("clientGetReq.Key", &clientGetReq{}, h(tagClientGetReq), ringZ, claimUvarint, fill)
	add("clientGetResp.Values", &clientGetResp{}, h(tagClientGetResp), claimUvarint, fill)
	add("clientGetResp.Context", &clientGetResp{}, h(tagClientGetResp), []byte{0}, claimUvarint, fill)
	add("clientPutReq.Context", &clientPutReq{}, h(tagClientPutReq), ringZ, []byte{0, 0, 0}, claimUvarint, fill)
	add("clientMGetReq.Keys", &clientMGetReq{}, h(tagClientMGetReq), ringZ, claimUvarint, fill)
	add("clientMGetResp.Items", &clientMGetResp{}, h(tagClientMGetResp), claimUvarint, fill)
	add("clientMPutReq.Entries", &clientMPutReq{}, h(tagClientMPutReq), ringZ, claimUvarint, fill)
	add("fetchChunkResp.Items", &fetchChunkResp{}, h(tagFetchChunkResp), claimUvarint, fill)
	for _, proto := range wirePayloadPrototypes {
		typ := reflect.TypeOf(proto)
		body := encode(proto)[1:] // [length] [type id] [0]: the zero value
		g := gobScan{b: body}
		g.uint()
		rest := g.b
		g.uint()
		typeID := rest[:len(rest)-len(g.b)]
		marker := []byte{primeFor(typ).marker}
		msg := func(parts ...[]byte) []byte {
			m := bytes.Join(parts, nil)
			return append(append(marker, byte(len(m))), m...)
		}
		add(typ.Name()+" message length", newPtr(proto), marker, claimGob, typeID, []byte{0})
		if path := gobCountPath(typ); path != nil {
			add(typ.Name()+" count", newPtr(proto), msg(typeID, path, claimGob, fill))
		}
	}
	for name, c := range cases {
		if len(c.p) >= 64 {
			t.Fatalf("%s: payload of %d bytes, want < 64", name, len(c.p))
		}
		// The least of three readings: another goroutine of the test
		// process may allocate during one of them.
		var err error
		alloc := allocated(func() { err = decode(c.p, c.to) })
		for range 2 {
			alloc = min(alloc, allocated(func() { _ = decode(c.p, c.to) }))
		}
		if err == nil {
			t.Errorf("%s: decode of a payload claiming 10^6 entries succeeded", name)
		}
		if alloc >= 64<<10 {
			t.Errorf("%s: decode allocated %d bytes, want < 64 KiB (err %v)", name, alloc, err)
		}
	}
}

// gobCountPath returns the field deltas of a gob struct encoding that
// lead, depth first, to the first slice field of t, else to the first
// string field, or nil when t has neither.
func gobCountPath(t reflect.Type) []byte {
	if p := gobPathTo(t, reflect.Slice); p != nil {
		return p
	}
	return gobPathTo(t, reflect.String)
}

func gobPathTo(t reflect.Type, kind reflect.Kind) []byte {
	for i := range t.NumField() {
		ft := t.Field(i).Type
		if ft.Kind() == kind {
			return []byte{byte(i + 1)}
		}
		if ft.Kind() == reflect.Struct {
			if sub := gobPathTo(ft, kind); sub != nil {
				return append([]byte{byte(i + 1)}, sub...)
			}
		}
	}
	return nil
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// gobRoundTrip is the oracle: v through a fresh gob encoder and decoder.
func gobRoundTrip(t testing.TB, v any) any {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	out := newPtr(v)
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatal(err)
	}
	return reflect.ValueOf(out).Elem().Interface()
}

// TestHandCodecMatchesGob: on random values of every hand-coded type,
// hand-decoding the hand encoding gives what a fresh gob round trip
// gives. That pins gob's semantics, which the hand codec keeps: an empty
// Value, Versions or other slice arrives as nil, while an empty Context
// or Clock map stays empty and a nil one stays nil. The gob types run
// the same check, which holds scanGob to everything gob emits.
func TestHandCodecMatchesGob(t *testing.T) {
	freshInternTable(t) // the random clock names must not fill the process's table
	rng := rand.New(rand.NewSource(1))
	for _, s := range append(handSamples(), wirePayloadPrototypes...) {
		typ := reflect.TypeOf(s)
		for range 300 {
			v := randomValue(rng, typ, 3).Interface()
			out := newPtr(v)
			if err := decode(encode(v), out); err != nil {
				t.Fatalf("%T: %v", v, err)
			}
			got, want := reflect.ValueOf(out).Elem().Interface(), gobRoundTrip(t, v)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%T: codec gave %#v, gob gives %#v", v, got, want)
			}
		}
	}
}

// randomValue builds a random value of t: a slice, map or byte slice is
// nil, empty or populated with equal odds, so both of gob's collapses
// (nil and empty) are exercised.
func randomValue(rng *rand.Rand, t reflect.Type, depth int) reflect.Value {
	v := reflect.New(t).Elem()
	switch t.Kind() {
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.Int, reflect.Int64:
		v.SetInt(rng.Int63() - rng.Int63())
	case reflect.Uint64:
		v.SetUint(rng.Uint64() >> rng.Intn(64))
	case reflect.Float64:
		v.SetFloat(rng.NormFloat64() * 1e3)
	case reflect.String:
		b := make([]byte, rng.Intn(6))
		rng.Read(b)
		v.SetString(string(b))
	case reflect.Slice, reflect.Map:
		mode := rng.Intn(3)
		if mode == 0 || depth == 0 {
			return v // nil
		}
		n := 0
		if mode == 2 {
			n = 1 + rng.Intn(4)
		}
		if t.Kind() == reflect.Map {
			v.Set(reflect.MakeMap(t))
			for range n {
				v.SetMapIndex(randomValue(rng, t.Key(), depth-1), randomValue(rng, t.Elem(), depth-1))
			}
			return v
		}
		v.Set(reflect.MakeSlice(t, n, n))
		for i := range n {
			v.Index(i).Set(randomValue(rng, t.Elem(), depth-1))
		}
	case reflect.Uint8:
		v.SetUint(uint64(rng.Intn(256)))
	case reflect.Struct:
		for i := range t.NumField() {
			v.Field(i).Set(randomValue(rng, t.Field(i).Type, depth))
		}
	default:
		panic("randomValue: unhandled kind " + t.Kind().String())
	}
	return v
}

// FuzzDecodePayload: decode reads bytes off the socket, so no input may
// panic it or make it allocate past its bytes, and no input may poison
// the pooled gob session a later well-formed payload decodes on. Every
// input is decoded into every hand-coded type and a few gob types. The
// seeds are the encoded samples; plain go test runs them, go test -fuzz
// explores from them.
func FuzzDecodePayload(f *testing.F) {
	samples := codecSamples()
	for _, s := range samples {
		f.Add(encode(s))
	}
	wellFormed := make([][]byte, len(samples))
	for i, s := range samples {
		wellFormed[i] = encode(s)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		for _, s := range samples {
			_ = decode(p, newPtr(s))
		}
		for i, s := range samples {
			got := newPtr(s)
			if err := decode(wellFormed[i], got); err != nil || !reflect.DeepEqual(reflect.ValueOf(got).Elem().Interface(), s) {
				t.Fatalf("well-formed %T after input %x: %+v, %v; want %+v", s, p, got, err, s)
			}
		}
	})
}

// newPtr returns a pointer to a fresh zero value of v's type.
func newPtr(v any) any { return reflect.New(reflect.TypeOf(v)).Interface() }

// TestPayloadCodecCrossProcess pins the skutectl/skuted interop bug:
// gob assigns wire type IDs from a process-global registry in
// first-use order, so value-only session payloads are only portable
// because registerWireTypes pins that order at package init. The test
// re-execs the test binary as a CHILD whose first gob activity is a
// different encode order (like skutectl, whose first payload is a
// client get, vs skuted, whose first is a heartbeat), then has the
// child decode every parent-encoded sample. Without the init pinning
// this fails with "gob: unknown type id or corrupted data".
func TestPayloadCodecCrossProcess(t *testing.T) {
	if os.Getenv("SKUTE_CODEC_CHILD") == "1" {
		t.Skip("child mode is driven by TestPayloadCodecCrossProcessChild")
	}
	samples := codecSamples()
	var lines []string
	for _, s := range samples {
		lines = append(lines, hex.EncodeToString(encode(s)))
	}
	input := filepath.Join(t.TempDir(), "payloads.hex")
	if err := os.WriteFile(input, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run", "TestPayloadCodecCrossProcessChild", "-test.v")
	cmd.Env = append(os.Environ(), "SKUTE_CODEC_CHILD=1", "SKUTE_CODEC_INPUT="+input)
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "PASS") {
		t.Fatalf("child decode failed: %v\n%s", err, out)
	}
}

// TestPayloadCodecCrossProcessChild is the re-exec target. It encodes
// in a deliberately different order first (exercising lazy registration
// paths), then decodes every payload the parent produced and checks it
// equals the sample.
func TestPayloadCodecCrossProcessChild(t *testing.T) {
	if os.Getenv("SKUTE_CODEC_CHILD") != "1" {
		t.Skip("parent drives this via re-exec")
	}
	// Mimic skutectl: the child's first encodes are client requests, in
	// reverse sample order — any registration-order dependence left in
	// the codec would surface as mismatched type IDs below.
	samples := codecSamples()
	for i := len(samples) - 1; i >= 0; i-- {
		_ = encode(samples[i])
	}
	raw, err := os.ReadFile(os.Getenv("SKUTE_CODEC_INPUT"))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(raw), "\n") {
		p, err := hex.DecodeString(strings.TrimSpace(line))
		if err != nil {
			t.Fatal(err)
		}
		out := newPtr(samples[i])
		if err := decode(p, out); err != nil {
			t.Fatalf("cross-process decode of %T: %v", samples[i], err)
		}
		if got := reflect.ValueOf(out).Elem().Interface(); !reflect.DeepEqual(got, samples[i]) {
			t.Fatalf("cross-process decode of %T: %+v, want %+v", samples[i], got, samples[i])
		}
	}
}

// TestInternNameBounded: a repeated clock node name decodes to one
// shared string, and neither long names nor more than maxInterned
// distinct names enter the table.
func TestInternNameBounded(t *testing.T) {
	freshInternTable(t)
	a, b := internName([]byte("intern-n0")), internName([]byte("intern-n0"))
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Error("a repeated name was not interned")
	}
	long := strings.Repeat("x", maxInternedLen+1)
	if s := internName([]byte(long)); s != long || interned()[long] != "" {
		t.Error("a name past maxInternedLen entered the table")
	}
	for i := range 2 * maxInterned {
		if s := fmt.Sprint("intern-", i); internName([]byte(s)) != s {
			t.Fatalf("internName(%q) changed the name", s)
		}
	}
	if n := len(interned()); n > maxInterned {
		t.Errorf("intern table holds %d names, want <= %d", n, maxInterned)
	}
}

// freshInternTable empties the clock-name intern table for the test and
// restores it afterwards.
func freshInternTable(t *testing.T) {
	saved := internTab.Load()
	internTab.Store(nil)
	t.Cleanup(func() { internTab.Store(saved) })
}
