package store

import (
	"encoding/binary"
	"fmt"

	"skute/internal/vclock"
	"skute/internal/wal"
)

// Record codec. The WAL record and the snapshot shard blob are laid out
// by hand in the idiom of the cluster's payload codec: uvarint lengths
// and counts, one flag byte per version, no reflection and no type
// descriptors.
//
//	record: [recordMarker] [layoutVersion] [key] [flags] [value] [clock]
//	shard:  [recordMarker] [layoutVersion] [key count]
//	        then per key [key] [version count],
//	        then per version [flags] [value] [clock]
//
// A key or value is its length and its bytes. A clock is 0 when nil,
// else its entry count plus one, then each entry's name and counter, as
// the payload codec writes it. The flags of a record may mark a drop; a
// shard's versions carry only the tombstone flag.
//
// recordMarker 0x00 cannot start a gob stream, whose first byte is the
// nonzero length of its first message, so bytes that start with any
// other value are a record or shard written by the gob encoder of
// earlier releases and go to the read-only decoder in legacy.go.
//
// Bounds rule: every count is checked against the bytes left divided by
// the element's minimum encoded size before anything is allocated, and
// trailing bytes fail the decode. Keys, values and clock names are
// copied out, so a decoded version is uniquely owned.
const (
	recordMarker  byte = 0x00
	layoutVersion byte = 1
)

// Version flags.
const (
	flagTombstone byte = 1 << iota
	flagDrop
)

// Minimum encoded sizes of the repeated elements, in bytes.
const (
	minVersion = 3 // flags, value length, clock count
	minClockKV = 2 // name length, counter
	minEntry   = 2 // key length, version count
)

// walRecord is the record appended to the log per accepted write. Drop
// records remove the key outright (replica handoff, not a user delete).
type walRecord struct {
	Key     string
	Version Version
	Drop    bool
}

// shardEntry is one key of a snapshot shard blob.
type shardEntry struct {
	Key      string
	Versions []Version
}

func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

func bytesLen(n int) int { return uvarintLen(uint64(n)) + n }

// versionLen is the encoded size of a version's flags, value and clock.
func versionLen(v Version) int {
	n := 1 + bytesLen(len(v.Value))
	if v.Clock == nil {
		return n + 1
	}
	n += uvarintLen(uint64(len(v.Clock)) + 1)
	for name, c := range v.Clock {
		n += bytesLen(len(name)) + uvarintLen(c)
	}
	return n
}

func appendVersion(b []byte, v Version, flags byte) []byte {
	if v.Tombstone {
		flags |= flagTombstone
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(len(v.Value)))
	b = append(b, v.Value...)
	if v.Clock == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(v.Clock))+1)
	for name, c := range v.Clock {
		b = binary.AppendUvarint(b, uint64(len(name)))
		b = append(b, name...)
		b = binary.AppendUvarint(b, c)
	}
	return b
}

// recordLen is the encoded size of a record.
func recordLen(rec walRecord) int {
	return 2 + bytesLen(len(rec.Key)) + versionLen(rec.Version)
}

func appendRecord(b []byte, rec walRecord) []byte {
	var flags byte
	if rec.Drop {
		flags = flagDrop
	}
	b = append(b, recordMarker, layoutVersion)
	b = binary.AppendUvarint(b, uint64(len(rec.Key)))
	b = append(b, rec.Key...)
	return appendVersion(b, rec.Version, flags)
}

// encodeRecord lays out one WAL record and checks it fits the log.
func encodeRecord(rec walRecord) ([]byte, error) {
	n := recordLen(rec)
	if err := checkRecordLen(n); err != nil {
		return nil, err
	}
	return appendRecord(make([]byte, 0, n), rec), nil
}

// encodeItems lays out one put record per item into one slab and returns
// each record's slice of it. A record too large for the log fails the
// whole call before anything is written.
func encodeItems(items []Item) ([][]byte, error) {
	total := 0
	for _, it := range items {
		n := recordLen(walRecord{Key: it.Key, Version: it.Version})
		if err := checkRecordLen(n); err != nil {
			return nil, err
		}
		total += n
	}
	slab := make([]byte, 0, total)
	out := make([][]byte, len(items))
	for i, it := range items {
		start := len(slab)
		slab = appendRecord(slab, walRecord{Key: it.Key, Version: it.Version})
		out[i] = slab[start:len(slab):len(slab)]
	}
	return out, nil
}

func checkRecordLen(n int) error {
	if n > wal.MaxRecordSize {
		return fmt.Errorf("store: wal record of %d bytes exceeds max %d", n, wal.MaxRecordSize)
	}
	return nil
}

// encodeShard lays out one snapshot shard blob.
func encodeShard(entries []shardEntry) []byte {
	n := 2 + uvarintLen(uint64(len(entries)))
	for _, en := range entries {
		n += bytesLen(len(en.Key)) + uvarintLen(uint64(len(en.Versions)))
		for _, v := range en.Versions {
			n += versionLen(v)
		}
	}
	b := make([]byte, 0, n)
	b = append(b, recordMarker, layoutVersion)
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, en := range entries {
		b = binary.AppendUvarint(b, uint64(len(en.Key)))
		b = append(b, en.Key...)
		b = binary.AppendUvarint(b, uint64(len(en.Versions)))
		for _, v := range en.Versions {
			b = appendVersion(b, v, 0)
		}
	}
	return b
}

// decodeRecord decodes one WAL record, in the hand layout or, from logs
// of earlier releases, in gob.
func decodeRecord(p []byte) (walRecord, error) {
	if len(p) > 0 && p[0] != recordMarker {
		return decodeLegacyRecord(p)
	}
	d := recDec{b: p, what: "wal record"}
	d.header()
	var rec walRecord
	rec.Key = string(d.raw())
	rec.Version, rec.Drop = d.version(flagDrop)
	return rec, d.end()
}

// decodeShard decodes one snapshot shard blob, in the hand layout or,
// from snapshots of earlier releases, in gob.
func decodeShard(p []byte) ([]shardEntry, error) {
	if len(p) > 0 && p[0] != recordMarker {
		return decodeLegacyShard(p)
	}
	d := recDec{b: p, what: "snapshot shard"}
	d.header()
	entries := make([]shardEntry, d.count(minEntry))
	for i := range entries {
		entries[i].Key = string(d.raw())
		vs := make([]Version, d.count(minVersion))
		for j := range vs {
			vs[j], _ = d.version(0)
		}
		entries[i].Versions = vs
	}
	return entries, d.end()
}

// recDec reads the hand layout. The first failure is kept in err and
// empties b, so every later read returns a zero value and every later
// count is 0, and the decoder unwinds without further checks.
type recDec struct {
	b    []byte
	what string
	err  error
}

func (d *recDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("store: decode %s: %s", d.what, fmt.Sprintf(format, args...))
	}
	d.b = nil
}

func (d *recDec) header() {
	if len(d.b) < 2 || d.b[0] != recordMarker || d.b[1] != layoutVersion {
		d.fail("bad header % x", d.b[:min(len(d.b), 2)])
		return
	}
	d.b = d.b[2:]
}

func (d *recDec) end() error {
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

func (d *recDec) uvarint() uint64 {
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		if d.b != nil {
			d.fail("truncated or overlong varint")
		}
		return 0
	}
	d.b = d.b[n:]
	return x
}

// count reads an element count; see bound.
func (d *recDec) count(minSize int) int { return d.bound(d.uvarint(), minSize) }

// bound fails unless the bytes left can hold n elements of at least
// minSize bytes each.
func (d *recDec) bound(n uint64, minSize int) int {
	if n > uint64(len(d.b)/minSize) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

// raw returns the next length-prefixed field, aliasing the input.
func (d *recDec) raw() []byte {
	n := d.count(1)
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

// version decodes a version's flags, value and clock; allowed names the
// flags besides the tombstone that may be set, and drop reports
// flagDrop.
func (d *recDec) version(allowed byte) (v Version, drop bool) {
	if len(d.b) == 0 {
		d.fail("truncated version")
		return v, false
	}
	flags := d.b[0]
	d.b = d.b[1:]
	if flags&^(flagTombstone|allowed) != 0 {
		d.fail("bad flags %#x", flags)
		return v, false
	}
	if p := d.raw(); len(p) > 0 {
		v.Value = append(make([]byte, 0, len(p)), p...)
	}
	v.Clock = d.clock()
	v.Tombstone = flags&flagTombstone != 0
	return v, flags&flagDrop != 0
}

func (d *recDec) clock() vclock.VC {
	m := d.uvarint()
	if m == 0 {
		return nil
	}
	n := d.bound(m-1, minClockKV)
	c := make(vclock.VC, n)
	for range n {
		name := string(d.raw())
		c[name] = d.uvarint()
	}
	return c
}
