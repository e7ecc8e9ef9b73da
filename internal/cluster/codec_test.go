package cluster

import (
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"skute/internal/placement"
	"skute/internal/ring"
	"skute/internal/store"
	"skute/internal/vclock"
)

// codecSamples builds one representative (non-zero) value per hot wire
// payload type. Parent and child of the cross-process test construct
// the identical list.
func codecSamples() []any {
	id := ring.RingID{App: "app1", Class: "gold"}
	ver := store.Version{Value: []byte("v1"), Clock: vclock.VC{"n0": 3, "n1": 1}}
	return []any{
		clientGetReq{Ring: id, Key: "user:42", Consistency: ConsistencyQuorum, Timeout: 250 * time.Millisecond},
		clientPutReq{Ring: id, Key: "user:42", Value: []byte(`{"v":1}`), Context: map[string]uint64{"n0": 2}},
		clientGetResp{Values: [][]byte{[]byte("a"), []byte("b")}, Context: map[string]uint64{"n1": 9}},
		heartbeatReq{From: "n0", Digest: placement.Digest{}},
		multiGetResp{Items: []kv{{Key: "k", Versions: []store.Version{ver}}}},
		multiGetReq{Ring: id, Keys: []string{"a", "b", "c"}},
		multiPutReq{Ring: id, Items: []putItem{{Key: "a", Version: ver}}},
		clientMPutReq{Ring: id, Entries: []Entry{{Key: "a", Value: []byte("x"), Context: vclock.VC{"n2": 4}}}},
		deltaReq{Deltas: []placement.Delta{{Ring: id, Part: 3, Version: 7, Origin: "n1", Replicas: []string{"n0", "n1"}}}},
	}
}

// TestPayloadCodecRoundTrip: every registered wire payload type
// round-trips through the session codec (and the samples decode to
// equal field values for a few representative cases).
func TestPayloadCodecRoundTrip(t *testing.T) {
	for _, proto := range wirePayloadPrototypes {
		p := encode(proto)
		out := newPtr(proto)
		if err := decode(p, out); err != nil {
			t.Errorf("round-trip %T: %v", proto, err)
		}
	}
	var got clientPutReq
	want := codecSamples()[1].(clientPutReq)
	if err := decode(encode(want), &got); err != nil {
		t.Fatal(err)
	}
	if got.Key != want.Key || string(got.Value) != string(want.Value) || got.Context["n0"] != 2 {
		t.Errorf("decoded %+v, want %+v", got, want)
	}
	// The session codec is the only one: a payload whose marker byte is
	// 0x00 is a codec mismatch like any other marker but the type's own.
	p := encode(want)
	p[0] = 0x00
	if err := decode(p, &got); err == nil || !strings.Contains(err.Error(), "codec mismatch") {
		t.Errorf("decode of a 0x00-marked payload: err = %v, want a codec mismatch", err)
	}
}

// FuzzDecodePayload: decode reads bytes off the socket, so no input may
// panic it, and no input may poison the pooled session a later
// well-formed payload decodes on. The seeds are the encoded samples; plain
// go test runs them, go test -fuzz explores from them.
func FuzzDecodePayload(f *testing.F) {
	var want multiPutReq
	for _, s := range codecSamples() {
		f.Add(encode(s))
		if m, ok := s.(multiPutReq); ok {
			want = m
		}
	}
	wellFormed := encode(want)
	f.Fuzz(func(t *testing.T, p []byte) {
		_ = decode(p, &multiPutReq{})
		_ = decode(p, &multiGetResp{})
		_ = decode(p, &clientPutReq{})
		var got multiPutReq
		if err := decode(wellFormed, &got); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("well-formed multiPutReq after input %x: %+v, %v; want %+v", p, got, err, want)
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
// paths), then decodes every payload the parent produced.
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
	}
	// Spot-check one decoded value end to end.
	var got clientGetReq
	p, _ := hex.DecodeString(strings.Split(string(raw), "\n")[0])
	if err := decode(p, &got); err != nil {
		t.Fatal(err)
	}
	want := samples[0].(clientGetReq)
	if got.Key != want.Key || got.Consistency != want.Consistency || got.Timeout != want.Timeout {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}
