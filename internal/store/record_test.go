package store

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"skute/internal/vclock"
)

// goldenRecords are the samples whose encodings testdata/record pins.
// Clocks hold at most one entry, because a clock is written in map
// order.
var goldenRecords = map[string]walRecord{
	"put":       {Key: "user:42", Version: Version{Value: []byte("hello"), Clock: vclock.VC{"n0": 300}}},
	"tombstone": {Key: "user:42", Version: Version{Clock: vclock.VC{"n1": 2}, Tombstone: true}},
	"drop":      {Key: "user:42", Drop: true},
}

var goldenShard = []shardEntry{
	{Key: "a", Versions: []Version{{Value: []byte("x"), Clock: vclock.VC{"n0": 1}}}},
	{Key: "b", Versions: []Version{
		{Value: []byte("y"), Clock: vclock.VC{"n0": 1}},
		{Clock: vclock.VC{"n1": 1}, Tombstone: true},
	}},
	{Key: "c", Versions: []Version{{Value: []byte("z"), Clock: vclock.VC{}}}},
}

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "record", name+".hex"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p
}

// TestGoldenRecords: the checked-in bytes of a put, a tombstone and a
// drop record and of one shard blob decode to their samples, and the
// samples encode to exactly those bytes. A layout change fails here.
func TestGoldenRecords(t *testing.T) {
	for name, rec := range goldenRecords {
		want := readGolden(t, name)
		got, err := decodeRecord(want)
		if err != nil {
			t.Errorf("%s: golden bytes no longer decode: %v", name, err)
		} else if !reflect.DeepEqual(got, rec) {
			t.Errorf("%s: golden bytes decode to %+v, want %+v", name, got, rec)
		}
		p, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, want) {
			t.Errorf("%s: encodes to %x, golden is %x", name, p, want)
		}
	}
	want := readGolden(t, "shard")
	got, err := decodeShard(want)
	if err != nil {
		t.Errorf("shard: golden bytes no longer decode: %v", err)
	} else if !reflect.DeepEqual(got, goldenShard) {
		t.Errorf("shard: golden bytes decode to %+v, want %+v", got, goldenShard)
	}
	if p := encodeShard(goldenShard); !bytes.Equal(p, want) {
		t.Errorf("shard: encodes to %x, golden is %x", p, want)
	}
}

// TestRecordRoundTrip covers what the goldens cannot pin byte for byte:
// clocks of several entries, a nil clock next to an empty one, and the
// records of one batch sharing a slab.
func TestRecordRoundTrip(t *testing.T) {
	recs := []walRecord{
		{Key: "k", Version: Version{Value: bytes.Repeat([]byte("v"), 300), Clock: vclock.VC{"n0": 1, "n1": 1 << 40, "n2": 7}}},
		{Key: "", Version: Version{Clock: nil}},
		{Key: "e", Version: Version{Clock: vclock.VC{}, Tombstone: true}},
		{Key: "gone", Drop: true},
	}
	for i, rec := range recs {
		p, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeRecord(p)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, recs[i]) {
			t.Errorf("record %d: decoded %+v, want %+v", i, got, recs[i])
		}
	}
	items := []Item{{Key: recs[0].Key, Version: recs[0].Version}, {Key: recs[2].Key, Version: recs[2].Version}}
	ps, err := encodeItems(items)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		want := walRecord{Key: items[i].Key, Version: items[i].Version}
		if got, err := decodeRecord(p); err != nil || !reflect.DeepEqual(got, want) || cap(p) != len(p) {
			t.Errorf("slab record %d: %+v, %v, cap %d of len %d; want %+v", i, got, err, cap(p), len(p), want)
		}
	}
	entries := []shardEntry{{Key: "k", Versions: []Version{recs[0].Version, recs[2].Version}}}
	got, err := decodeShard(encodeShard(entries))
	if err != nil || !reflect.DeepEqual(got, entries) {
		t.Errorf("shard round trip = %+v, %v; want %+v", got, err, entries)
	}
	if got, err := decodeShard(encodeShard(nil)); err != nil || len(got) != 0 {
		t.Errorf("empty shard round trip = %+v, %v", got, err)
	}
}

// TestDecodeRecordOwnsValues: a decoded version shares no bytes with
// the record it came from, so replay can store it as it is.
func TestDecodeRecordOwnsValues(t *testing.T) {
	p := readGolden(t, "put")
	rec, err := decodeRecord(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p {
		p[i] = 0xff
	}
	if string(rec.Version.Value) != "hello" || rec.Key != "user:42" || rec.Version.Clock["n0"] != 300 {
		t.Errorf("decoded record changed with its input: %+v", rec)
	}
}

func TestDecodeRecordRejects(t *testing.T) {
	put := readGolden(t, "put")
	shard := readGolden(t, "shard")
	cases := []struct {
		name  string
		p     []byte
		shard bool
	}{
		{"empty record", nil, false},
		{"empty shard", nil, true},
		{"marker only", []byte{recordMarker}, false},
		{"unknown layout version", append([]byte{recordMarker, layoutVersion + 1}, put[2:]...), false},
		{"trailing byte", append(append([]byte(nil), put...), 0), false},
		{"truncated", put[:len(put)-1], false},
		{"unknown flag", []byte{recordMarker, layoutVersion, 0, 0x04, 0, 0}, false},
		{"drop flag in a shard", []byte{recordMarker, layoutVersion, 1, 0, 1, flagDrop, 0, 0}, true},
		{"shard trailing byte", append(append([]byte(nil), shard...), 0), true},
		{"shard truncated", shard[:len(shard)-1], true},
		{"overlong varint", append([]byte{recordMarker, layoutVersion}, bytes.Repeat([]byte{0x80}, 11)...), false},
	}
	for _, c := range cases {
		var err error
		if c.shard {
			_, err = decodeShard(c.p)
		} else {
			_, err = decodeRecord(c.p)
		}
		if err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
	}
}

// claimUvarint is 10⁶ as a uvarint.
var claimUvarint = []byte{0xc0, 0x84, 0x3d}

// TestDecodeRecordBoundsClaimedCounts: a record or shard under 64 bytes
// whose count or length claims 10⁶ entries fails, and decoding it
// allocates under 64 KiB.
func TestDecodeRecordBoundsClaimedCounts(t *testing.T) {
	hdr := []byte{recordMarker, layoutVersion}
	cases := []struct {
		name  string
		p     [][]byte
		shard bool
	}{
		{"record key", [][]byte{hdr}, false},
		{"record value", [][]byte{hdr, {0, 0}}, false},
		{"record clock", [][]byte{hdr, {0, 0, 0}}, false},
		{"shard entries", [][]byte{hdr}, true},
		{"shard key", [][]byte{hdr, {1}}, true},
		{"shard versions", [][]byte{hdr, {1, 0}}, true},
		{"shard value", [][]byte{hdr, {1, 0, 1, 0}}, true},
		{"shard clock", [][]byte{hdr, {1, 0, 1, 0, 0}}, true},
	}
	for _, c := range cases {
		p := bytes.Join(append(c.p, claimUvarint, bytes.Repeat([]byte{1}, 16)), nil)
		if len(p) >= 64 {
			t.Fatalf("%s: input of %d bytes, want < 64", c.name, len(p))
		}
		decode := func() error {
			if c.shard {
				_, err := decodeShard(p)
				return err
			}
			_, err := decodeRecord(p)
			return err
		}
		// The least of three readings: another goroutine of the test
		// process may allocate during one of them.
		var err error
		alloc := allocated(func() { err = decode() })
		for range 2 {
			alloc = min(alloc, allocated(func() { _ = decode() }))
		}
		if err == nil {
			t.Errorf("%s: decode of an input claiming 10^6 entries succeeded", c.name)
		}
		if alloc >= 64<<10 {
			t.Errorf("%s: decode allocated %d bytes, want < 64 KiB (err %v)", c.name, alloc, err)
		}
	}
}

func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeWALRecord feeds the same bytes to the record and the shard
// decoder, as replay and snapshot load would read them off a disk. Input
// in the hand layout that decodes must survive an encode and a second
// decode unchanged.
func FuzzDecodeWALRecord(f *testing.F) {
	for _, name := range []string{"put", "tombstone", "drop", "shard"} {
		f.Add(readGolden(f, name))
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		hand := len(p) > 0 && p[0] == recordMarker
		if rec, err := decodeRecord(p); err == nil && hand {
			re, err := encodeRecord(rec)
			if err != nil {
				t.Fatal(err)
			}
			back, err := decodeRecord(re)
			if err != nil || !reflect.DeepEqual(back, rec) {
				t.Fatalf("record round trip: %+v, %v; want %+v", back, err, rec)
			}
		}
		if entries, err := decodeShard(p); err == nil && hand {
			back, err := decodeShard(encodeShard(entries))
			if err != nil || !reflect.DeepEqual(back, entries) {
				t.Fatalf("shard round trip: %+v, %v; want %+v", back, err, entries)
			}
		}
	})
}

// legacyState is the engine state that testdata/legacy restores to. The
// directory was written by the gob encoder of an earlier release:
// a snapshot after puts of a, b, c (two siblings), d (a tombstone) and e
// (then dropped), and a log tail that overwrites a, adds f and the
// tombstone g, and drops b.
var legacyState = map[string][]Version{
	"a": {{Value: []byte("alpha2"), Clock: vclock.VC{"n0": 2}}},
	"c": {{Value: []byte("c1"), Clock: vclock.VC{"n0": 1}}, {Value: []byte("c2"), Clock: vclock.VC{"n1": 1}}},
	"d": {{Clock: vclock.VC{"n0": 2}, Tombstone: true}},
	"f": {{Value: []byte("phi"), Clock: vclock.VC{"n2": 1}}},
	"g": {{Clock: vclock.VC{"n1": 4}, Tombstone: true}},
}

// restoreLegacy boots an engine from a private copy of testdata/legacy.
func restoreLegacy(t *testing.T) (e *Engine, walDir, snapDir string) {
	t.Helper()
	walDir, snapDir = dirs(t)
	copyTree(t, filepath.Join("testdata", "legacy", "wal"), walDir)
	copyTree(t, filepath.Join("testdata", "legacy", "snaps"), snapDir)
	e, err := Restore(walDir, snapDir)
	if err != nil {
		t.Fatalf("Restore of a gob-written directory: %v", err)
	}
	return e, walDir, snapDir
}

func checkState(t *testing.T, e *Engine, want map[string][]Version) {
	t.Helper()
	keys := e.Keys()
	if len(keys) != len(want) {
		t.Errorf("engine holds keys %v, want %d keys", keys, len(want))
	}
	var bytes int64
	for k, vs := range want {
		if got := e.Get(k); !reflect.DeepEqual(got, vs) {
			t.Errorf("%s = %+v, want %+v", k, got, vs)
		}
		for _, v := range vs {
			bytes += int64(len(v.Value))
		}
	}
	if e.Bytes() != bytes {
		t.Errorf("Bytes() = %d, want %d", e.Bytes(), bytes)
	}
}

// TestRestoreLegacyGob: a snapshot and a log tail written by the gob
// encoder of an earlier release restore to the state they recorded.
func TestRestoreLegacyGob(t *testing.T) {
	e, _, _ := restoreLegacy(t)
	defer e.Close()
	d := e.Durability()
	if d.SnapshotSeq == 0 || d.TailRecords == 0 {
		t.Fatalf("restore used snapshot seq %d and %d tail records, want both gob paths exercised", d.SnapshotSeq, d.TailRecords)
	}
	checkState(t, e, legacyState)
}

// TestRestoreMixedLog: a log holding gob records followed by records in
// the hand layout replays in order, and a checkpoint taken on top
// rewrites the snapshot in the hand layout.
func TestRestoreMixedLog(t *testing.T) {
	e, walDir, snapDir := restoreLegacy(t)
	want := map[string][]Version{}
	for k, vs := range legacyState {
		want[k] = vs
	}
	steps := []struct {
		key string
		v   Version
	}{
		{"h", ver("eta", vclock.VC{"n3": 1})},
		{"f", Version{Clock: vclock.VC{"n2": 2}, Tombstone: true}},
		{"c", ver("c3", vclock.VC{"n0": 2, "n1": 1})},
	}
	for _, s := range steps {
		if _, err := e.Put(s.key, s.v); err != nil {
			t.Fatal(err)
		}
		want[s.key] = []Version{s.v}
	}
	if _, err := e.Drop("a"); err != nil {
		t.Fatal(err)
	}
	delete(want, "a")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Restore(walDir, snapDir)
	if err != nil {
		t.Fatalf("Restore of a mixed log: %v", err)
	}
	checkState(t, r, want)
	if _, err := r.Checkpoint(snapDir); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r, err = Restore(walDir, snapDir)
	if err != nil {
		t.Fatalf("Restore from a hand-layout snapshot: %v", err)
	}
	defer r.Close()
	checkState(t, r, want)
}

// TestOnlyLegacyImportsGob: the package writes no gob, and reads it in
// one file, so that file is all a later release deletes.
func TestOnlyLegacyImportsGob(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") || file == "legacy.go" {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "encoding/gob" {
				t.Errorf("%s imports %s", file, path)
			}
		}
	}
}

// TestPutCopiesCallerValue: Put stores a copy, so a caller that reuses
// its value or clock after Put returns leaves the engine unchanged.
func TestPutCopiesCallerValue(t *testing.T) {
	e := NewMemory()
	value, clock := []byte("original"), vclock.VC{"n": 1}
	if _, err := e.Put("k", Version{Value: value, Clock: clock}); err != nil {
		t.Fatal(err)
	}
	copy(value, "mutated!")
	clock["n"], clock["m"] = 9, 1
	want := []Version{{Value: []byte("original"), Clock: vclock.VC{"n": 1}}}
	if got := e.Get("k"); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the caller changed its buffers, Get = %+v, want %+v", got, want)
	}
}

// TestPutBatchTakesOwnership: PutBatch stores the value it is given, so
// a replicated write is copied once, by the payload decoder, not twice.
func TestPutBatchTakesOwnership(t *testing.T) {
	e := NewMemory()
	v := ver("payload", vclock.VC{"n": 1})
	if _, err := e.PutBatch([]Item{{Key: "k", Version: v}}); err != nil {
		t.Fatal(err)
	}
	s := e.shardOf("k")
	if stored := s.data["k"]; len(stored) != 1 || &stored[0].Value[0] != &v.Value[0] {
		t.Fatal("PutBatch stored a copy of the value, want the item's own buffer")
	}
}

// TestLeafSumGolden pins the Merkle-leaf digest of one sibling set to
// the value earlier releases computed: a changed byte would make
// anti-entropy between old and new nodes repair every key.
func TestLeafSumGolden(t *testing.T) {
	vs := []Version{
		{Value: []byte("v1"), Clock: vclock.VC{"n0": 1, "n1": 2}},
		{Clock: vclock.VC{"n2": 3, "a": 10}, Tombstone: true},
		{Value: []byte("x")},
	}
	const want = "7058a6675434a5ac19212b6f55d35f02feedbf1755b495ddf988ff7d9af03d13"
	if d := leafSum(vs); fmt.Sprintf("%x", d[:]) != want {
		t.Errorf("leafSum = %x, want %s", d[:], want)
	}
}
