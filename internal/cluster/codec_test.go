package cluster

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"skute/internal/membership"
	"skute/internal/placement"
	"skute/internal/ring"
	"skute/internal/store"
	"skute/internal/transport"
	"skute/internal/vclock"
)

// codecSamples builds one representative (non-zero) value per payload
// type, in tag order. Every map holds at most one entry, so each sample
// has exactly one encoding: testdata/payload pins it.
func codecSamples() []any {
	id := ring.RingID{App: "app1", Class: "gold"}
	ver := store.Version{Value: []byte("v1"), Clock: vclock.VC{"n0": 3}}
	tomb := store.Version{Clock: vclock.VC{"n2": 1 << 40}, Tombstone: true}
	items := []kv{{Key: "k", Versions: []store.Version{ver, tomb}}, {Key: "empty"}}
	info := membership.Info{Name: "n0", Addr: "10.0.0.1:7101", LocPath: "eu/ch/dc0/r0/k0/s0", Confidence: 0.99, MonthlyRent: 100, Capacity: 16 << 30, QueryCapacity: 10000}
	member := membership.Delta{Info: info, State: membership.Suspect, Incarnation: 3}
	pdelta := placement.Delta{Ring: id, Part: 3, Replicas: []string{"n0", "n1"}, Version: 7, Origin: "n1"}
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
		heartbeatReq{From: "n0", Digest: placement.Digest{id: 7}, Member: member, MDigest: 1 << 63},
		heartbeatResp{Member: member},
		leavesReq{Ring: id, Part: 5, Root: []byte{0xde, 0xad}},
		leavesResp{Keys: []string{"a"}, Hashes: [][]byte{{1, 2, 3}}},
		adoptReq{Ring: id, Part: 2, FromAddr: "10.0.0.2:7102"},
		announceReq{Node: "n1", Rent: 150.5},
		rentsResp{Rents: []nodeRent{{Node: "n0", Rent: 100}, {Node: "n1", Rent: 150.5}}},
		deltaReq{Deltas: []placement.Delta{pdelta}},
		deltaPullReq{Digest: placement.Digest{{App: "app2"}: 2}},
		deltaPullResp{Deltas: []placement.Delta{pdelta, {Ring: id}}},
		joinReq{Info: info},
		joinResp{Assigned: 4, Members: []membership.Delta{member}, Rings: []RingSpec{{App: "app1", Class: "gold", Partitions: 8, Replicas: 3}},
			Placement: []placement.Delta{pdelta}, ReadQuorum: 2, WriteQuorum: 2, SuspectAfter: 10 * time.Second, DeadAfter: 30 * time.Second},
		memberPullReq{Digest: 42},
		memberPullResp{Deltas: []membership.Delta{member}},
		memberDeltaReq{Deltas: []membership.Delta{member, {Info: membership.Info{Name: "n1"}, State: membership.Dead}}},
		fetchChunkReq{Ring: id, Part: 1, After: "app1/gold/k", MaxItems: 256},
		clientMembersResp{Members: []MemberRecord{{Name: "n0", Addr: "10.0.0.1:7101", State: "alive", Incarnation: 2, Confirmed: true, AgeMillis: 1500}}},
	}
}

// roundTrip decodes the encoding of v into a fresh value of its type.
func roundTrip(v any) (any, error) {
	out := newPtr(v)
	err := decode(encode(v.(wireMarshaler)), out)
	return reflect.ValueOf(out).Elem().Interface(), err
}

// TestPayloadCodecRoundTrip: every payload type round-trips, zero value
// and sample alike, to what a gob round trip gives; a foreign marker or
// a wrong tag is a codec mismatch, and a trailing byte fails.
func TestPayloadCodecRoundTrip(t *testing.T) {
	samples := codecSamples()
	for _, s := range samples {
		for _, v := range []any{reflect.Zero(reflect.TypeOf(s)).Interface(), s} {
			got, err := roundTrip(v)
			if err != nil {
				t.Errorf("round-trip %T: %v", v, err)
				continue
			}
			if want := gobRoundTrip(t, v); !reflect.DeepEqual(got, want) {
				t.Errorf("round-trip %T: got %+v, want %+v", v, got, want)
			}
		}
	}
	p := encode(clientPutReq{Key: "k"})
	for name, c := range map[string]struct {
		p  []byte
		to wireUnmarshaler
	}{
		"wrong tag":            {p, &clientGetReq{}},
		"0x00 marker":          {append([]byte{0x00}, p[1:]...), &clientPutReq{}},
		"retired gob marker":   {append([]byte{0x80 | 0x2a}, p[1:]...), &clientPutReq{}},
		"data to control":      {p, &heartbeatReq{}},
		"control to data":      {encode(heartbeatReq{From: "n0"}), &clientPutReq{}},
		"control to control":   {encode(memberPullReq{Digest: 1}), &memberDeltaReq{}},
		"empty tag after mark": {[]byte{payloadMarker}, &leavesReq{}},
	} {
		if err := decode(c.p, c.to); err == nil || !strings.Contains(err.Error(), "codec mismatch") {
			t.Errorf("%s: err = %v, want a codec mismatch", name, err)
		}
	}
	for _, s := range samples {
		if err := decode(append(encode(s.(wireMarshaler)), 0), newPtr(s)); err == nil {
			t.Errorf("%T: decode accepted a trailing byte", s)
		}
	}
	if err := decode(nil, &heartbeatReq{}); err == nil {
		t.Error("decode accepted an empty payload")
	}
}

// TestGoldenPayloads pins the wire format: testdata/payload holds one
// encoding per payload type (the data-plane ones written by the encoder
// that introduced their tags), and each must decode to its sample and
// re-encode byte for byte. A layout change fails here, not between
// binaries of two versions.
func TestGoldenPayloads(t *testing.T) {
	samples := codecSamples()
	files, err := filepath.Glob(filepath.Join("testdata", "payload", "*.hex"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(samples) {
		t.Errorf("testdata/payload holds %d encodings, want one per payload type (%d)", len(files), len(samples))
	}
	for _, s := range samples {
		name := reflect.TypeOf(s).Name()
		raw, err := os.ReadFile(filepath.Join("testdata", "payload", name+".hex"))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		want, err := hex.DecodeString(strings.TrimSpace(string(raw)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := newPtr(s)
		if err := decode(want, got); err != nil {
			t.Errorf("%s: golden bytes no longer decode: %v", name, err)
			continue
		}
		if v := reflect.ValueOf(got).Elem().Interface(); !reflect.DeepEqual(v, s) {
			t.Errorf("%s: golden bytes decode to %+v, want %+v", name, v, s)
		}
		if p := encode(s.(wireMarshaler)); !bytes.Equal(p, want) {
			t.Errorf("%s: encodes to %x, golden is %x", name, p, want)
		}
	}
}

// claimUvarint is 10⁶ as a uvarint.
var claimUvarint = []byte{0xc0, 0x84, 0x3d}

// TestDecodeBoundsClaimedCounts: a payload under 64 bytes whose count or
// length claims 10⁶ entries fails, and decoding it allocates under
// 64 KiB. Before the bounds rule, a 40-byte multi-put whose clock
// claimed 10⁶ entries made the decoder allocate 56 MB. Every payload
// type has at least one case.
func TestDecodeBoundsClaimedCounts(t *testing.T) {
	type claim struct {
		name string
		to   wireUnmarshaler
		p    []byte
	}
	var cases []claim
	add := func(name string, to wireUnmarshaler, tag byte, parts ...[]byte) {
		p := append([]byte{payloadMarker, tag}, bytes.Join(append(parts, claimUvarint, bytes.Repeat([]byte{1}, 16)), nil)...)
		cases = append(cases, claim{name, to, p})
	}
	z := []byte{0}
	ringZ := []byte{0, 0}
	add("multiGetReq.Keys", &multiGetReq{}, tagMultiGetReq, ringZ)
	add("multiGetResp.Items", &multiGetResp{}, tagMultiGetResp)
	add("multiGetResp.Versions", &multiGetResp{}, tagMultiGetResp, []byte{1, 0})
	add("multiGetResp.Clock", &multiGetResp{}, tagMultiGetResp, []byte{1, 0, 1, 0})
	add("multiPutReq.Items", &multiPutReq{}, tagMultiPutReq, ringZ)
	add("multiPutReq.Clock", &multiPutReq{}, tagMultiPutReq, ringZ, []byte{1, 0, 0})
	add("multiPutReq.Value", &multiPutReq{}, tagMultiPutReq, ringZ, []byte{1, 0})
	add("clientGetReq.Key", &clientGetReq{}, tagClientGetReq, ringZ)
	add("clientGetResp.Values", &clientGetResp{}, tagClientGetResp)
	add("clientGetResp.Context", &clientGetResp{}, tagClientGetResp, z)
	add("clientPutReq.Context", &clientPutReq{}, tagClientPutReq, ringZ, []byte{0, 0, 0})
	add("clientMGetReq.Keys", &clientMGetReq{}, tagClientMGetReq, ringZ)
	add("clientMGetResp.Items", &clientMGetResp{}, tagClientMGetResp)
	add("clientMPutReq.Entries", &clientMPutReq{}, tagClientMPutReq, ringZ)
	add("fetchChunkResp.Items", &fetchChunkResp{}, tagFetchChunkResp)
	add("heartbeatReq.From", &heartbeatReq{}, tagHeartbeatReq)
	add("heartbeatReq.Digest", &heartbeatReq{}, tagHeartbeatReq, z)
	add("heartbeatReq.Member", &heartbeatReq{}, tagHeartbeatReq, z, z)
	add("heartbeatResp.Member", &heartbeatResp{}, tagHeartbeatResp)
	add("leavesReq.Root", &leavesReq{}, tagLeavesReq, ringZ, z)
	add("leavesResp.Keys", &leavesResp{}, tagLeavesResp, z)
	add("leavesResp.Hashes", &leavesResp{}, tagLeavesResp, z, z)
	add("adoptReq.FromAddr", &adoptReq{}, tagAdoptReq, ringZ, z)
	add("announceReq.Node", &announceReq{}, tagAnnounceReq)
	add("rentsResp.Rents", &rentsResp{}, tagRentsResp)
	add("deltaReq.Deltas", &deltaReq{}, tagDeltaReq)
	add("deltaReq.Replicas", &deltaReq{}, tagDeltaReq, []byte{1}, ringZ, z)
	add("deltaPullReq.Digest", &deltaPullReq{}, tagDeltaPullReq)
	add("deltaPullResp.Deltas", &deltaPullResp{}, tagDeltaPullResp)
	add("joinReq.Info", &joinReq{}, tagJoinReq)
	add("joinResp.Members", &joinResp{}, tagJoinResp, z)
	add("joinResp.Rings", &joinResp{}, tagJoinResp, z, z)
	add("joinResp.Placement", &joinResp{}, tagJoinResp, z, z, z)
	add("memberPullReq (no count: trailing bytes)", &memberPullReq{}, tagMemberPullReq)
	add("memberPullResp.Deltas", &memberPullResp{}, tagMemberPullResp)
	add("memberDeltaReq.Deltas", &memberDeltaReq{}, tagMemberDeltaReq)
	add("fetchChunkReq.After", &fetchChunkReq{}, tagFetchChunkReq, ringZ, z)
	add("clientMembersResp.Members", &clientMembersResp{}, tagClientMembersResp)

	covered := map[reflect.Type]bool{}
	for _, c := range cases {
		covered[reflect.TypeOf(c.to).Elem()] = true
		if len(c.p) >= 64 {
			t.Fatalf("%s: payload of %d bytes, want < 64", c.name, len(c.p))
		}
		// The least of three readings: another goroutine of the test
		// process may allocate during one of them.
		var err error
		alloc := allocated(func() { err = decode(c.p, c.to) })
		for range 2 {
			alloc = min(alloc, allocated(func() { _ = decode(c.p, c.to) }))
		}
		if err == nil {
			t.Errorf("%s: decode of a payload claiming 10^6 entries succeeded", c.name)
		}
		if alloc >= 64<<10 {
			t.Errorf("%s: decode allocated %d bytes, want < 64 KiB (err %v)", c.name, alloc, err)
		}
	}
	for _, s := range codecSamples() {
		if !covered[reflect.TypeOf(s)] {
			t.Errorf("%T has no claimed-count case", s)
		}
	}
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

// TestHandCodecMatchesGob: on random values of every payload type,
// decoding the encoding gives what a fresh gob round trip gives. That
// pins gob's semantics, which the codec keeps: an empty byte slice,
// string list or other slice arrives as nil, while an empty map (a
// clock, a context, a placement digest) stays empty and a nil one
// stays nil.
func TestHandCodecMatchesGob(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range codecSamples() {
		typ := reflect.TypeOf(s)
		for range 300 {
			v := randomValue(rng, typ, 3).Interface()
			got, err := roundTrip(v)
			if err != nil {
				t.Fatalf("%T: %v", v, err)
			}
			if want := gobRoundTrip(t, v); !reflect.DeepEqual(got, want) {
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
// panic it or make it allocate past its bytes. Every input is decoded
// into every payload type. The seeds are the encoded samples; plain go
// test runs them, go test -fuzz explores from them.
func FuzzDecodePayload(f *testing.F) {
	samples := codecSamples()
	for _, s := range samples {
		f.Add(encode(s.(wireMarshaler)))
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		for _, s := range samples {
			_ = decode(p, newPtr(s))
		}
	})
}

// newPtr returns a pointer to a fresh zero value of v's payload type.
func newPtr(v any) wireUnmarshaler {
	return reflect.New(reflect.TypeOf(v)).Interface().(wireUnmarshaler)
}

// TestWirePackagesImportNoGobOrReflect: the wire path is one hand-laid
// codec. No non-test file of the cluster or transport package may import
// encoding/gob or reflect.
func TestWirePackagesImportNoGobOrReflect(t *testing.T) {
	for _, dir := range []string{".", "../transport"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "encoding/gob" || path == "reflect" {
					t.Errorf("%s imports %s", file, path)
				}
			}
		}
	}
}

// TestInternNameBounded: a registered member name decodes to one shared
// string, and neither long names nor more than maxInterned distinct
// names enter the table.
func TestInternNameBounded(t *testing.T) {
	freshInternTable(t)
	internMember("intern-n0")
	a, b := internName([]byte("intern-n0")), internName([]byte("intern-n0"))
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Error("a member name was not interned")
	}
	long := strings.Repeat("x", maxInternedLen+1)
	if internMember(long); interned()[long] != "" {
		t.Error("a name past maxInternedLen entered the table")
	}
	for i := range 2 * maxInterned {
		internMember(fmt.Sprint("intern-", i))
	}
	if n := len(interned()); n > maxInterned {
		t.Errorf("intern table holds %d names, want <= %d", n, maxInterned)
	}
}

// TestInternTableKeepsMembers: clock names a peer makes up never enter
// the intern table, so after a flood of them a member a node learns
// later still decodes to the interned string without allocating.
func TestInternTableKeepsMembers(t *testing.T) {
	freshInternTable(t)
	for i := range 2 * maxInterned {
		p := encode(clientGetResp{Context: map[string]uint64{fmt.Sprint("garbage-", i): 1}})
		if err := decode(p, &clientGetResp{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(interned()); n != 0 {
		t.Errorf("decoding made-up clock names interned %d of them", n)
	}
	cfg := testConfig()
	mesh := transport.NewMemory()
	t.Cleanup(func() { mesh.Close() })
	if _, err := NewNode(cfg, cfg.Nodes[0].Name, mesh, store.NewMemory()); err != nil {
		t.Fatal(err)
	}
	name := []byte(cfg.Nodes[1].Name)
	var resp clientGetResp
	if err := decode(encode(clientGetResp{Context: map[string]uint64{string(name): 1}}), &resp); err != nil {
		t.Fatal(err)
	}
	want, ok := interned()[string(name)]
	if !ok {
		t.Fatalf("member %s is not interned", name)
	}
	for got := range resp.Context {
		if unsafe.StringData(got) != unsafe.StringData(want) {
			t.Errorf("member %s decoded to a fresh string, not the interned one", name)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { internName(name) }); allocs != 0 {
		t.Errorf("decoding member name %s allocates %.0f times, want 0", name, allocs)
	}
}

// freshInternTable empties the clock-name intern table for the test and
// restores it afterwards.
func freshInternTable(t *testing.T) {
	saved := internTab.Load()
	internTab.Store(nil)
	t.Cleanup(func() { internTab.Store(saved) })
}
