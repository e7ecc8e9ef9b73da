package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"skute/internal/membership"
	"skute/internal/placement"
	"skute/internal/ring"
	"skute/internal/store"
)

// Payload codec. Every wire payload is laid out by hand in the idiom of
// internal/transport/frame.go: uvarint counts and lengths, zigzag varints
// for signed fields (int fields travel as 64-bit varints, so 32-bit and
// 64-bit builds agree), 8 little-endian bytes per float64, one byte per
// bool or member state, no reflection and no type descriptors.
//
// Layout: [payloadMarker] [type tag] [fields in declaration order]. A
// wrong marker or tag fails as a codec mismatch. Tags are never reused
// or renumbered: a new payload type takes the next tag, and no other
// type's bytes move. testdata/payload pins one encoding per type.
//
// Bounds rule: a decoder reads only from the payload's own bytes. Every
// count is checked against the bytes left divided by the element's
// minimum encoded size before anything is allocated, so a short payload
// cannot claim a large allocation; trailing bytes fail the decode. Every
// byte slice and string is copied out, so the caller may recycle the
// payload buffer as soon as decode returns.

// payloadMarker leads every payload: version 1 of the layout. 0x00 stays
// invalid (it marked a retired codec).
const payloadMarker byte = 0x01

// Type tags, one per payload type. Never reuse a retired tag.
const (
	// Data plane: keys, values and clocks.
	tagMultiGetReq byte = iota + 1
	tagMultiGetResp
	tagMultiPutReq
	tagClientGetReq
	tagClientGetResp
	tagClientPutReq
	tagClientMGetReq
	tagClientMGetResp
	tagClientMPutReq
	tagFetchChunkResp
	// Control plane: heartbeats, membership, placement, adoption,
	// anti-entropy leaves and transfer requests.
	tagHeartbeatReq
	tagHeartbeatResp
	tagLeavesReq
	tagLeavesResp
	tagAdoptReq
	_ // 16: retired rent announcement, never reused
	_ // 17: retired rent list, never reused
	tagDeltaReq
	tagDeltaPullReq
	tagDeltaPullResp
	tagJoinReq
	tagJoinResp
	tagMemberPullReq
	tagMemberPullResp
	tagMemberDeltaReq
	tagFetchChunkReq
	tagClientMembersResp
)

// Minimum encoded sizes, in bytes, of the repeated elements: every
// string, byte slice, count and varint takes at least one byte, and a
// float64 eight.
const (
	minString       = 1
	minVersion      = 3 // value, clock count, tombstone
	minClockKV      = 2 // name, counter
	minKV           = 2 // key, version count
	minPutItem      = 1 + minVersion
	minEntry        = 3                     // key, value, context count
	minClient       = 3                     // key, value count, context count
	minRingSum      = 3                     // ring (two strings), sum
	minInfo         = 3*minString + 3*8 + 1 // three strings, three float64s, capacity
	minMemberDelta  = minInfo + 2 + 8 + 1   // info, state, incarnation, rent, rent seq
	minPlaceDelta   = 6                     // ring, part, replica count, version, origin
	minRingSpec     = 4                     // app, class, partitions, replicas
	minMemberRecord = 6                     // name, addr, state, incarnation, confirmed, age
)

// wireMarshaler is implemented by every payload type (on the value),
// wireUnmarshaler by its pointer, so encode and decode refuse any other
// type at compile time.
type wireMarshaler interface{ marshalWire(e *wireEnc) }
type wireUnmarshaler interface{ unmarshalWire(d *wireDec) }

// encode lays out v in one exactly sized allocation: a sizing pass over
// the same marshalWire, then the writing pass.
func encode(v wireMarshaler) []byte {
	e := wireEnc{sizing: true}
	v.marshalWire(&e)
	e = wireEnc{b: make([]byte, 1, 1+e.n)}
	e.b[0] = payloadMarker
	v.marshalWire(&e)
	return e.b
}

// decode fills v from p, failing on an empty payload, a foreign marker,
// a wrong tag, a count the bytes left cannot hold, or trailing bytes.
func decode(p []byte, v wireUnmarshaler) error {
	if len(p) == 0 {
		return fmt.Errorf("cluster: empty payload for %T", v)
	}
	if p[0] != payloadMarker {
		return fmt.Errorf("cluster: payload codec mismatch for %T (marker %#x, want %#x): sender and receiver disagree on the payload codec", v, p[0], payloadMarker)
	}
	d := wireDec{b: p[1:], v: v}
	v.unmarshalWire(&d)
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

// wireEnc appends the layout to b, or in its sizing pass only adds up
// the bytes the writing pass will need.
type wireEnc struct {
	b      []byte
	n      int
	sizing bool
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func (e *wireEnc) uvarint(x uint64) {
	if e.sizing {
		e.n += uvarintLen(x)
		return
	}
	e.b = binary.AppendUvarint(e.b, x)
}

func (e *wireEnc) varint(x int64) { e.uvarint(uint64(x<<1) ^ uint64(x>>63)) }

func (e *wireEnc) byte(c byte) {
	if e.sizing {
		e.n++
		return
	}
	e.b = append(e.b, c)
}

func (e *wireEnc) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

func (e *wireEnc) string(s string) {
	e.uvarint(uint64(len(s)))
	if e.sizing {
		e.n += len(s)
		return
	}
	e.b = append(e.b, s...)
}

func (e *wireEnc) bytes(p []byte) {
	e.uvarint(uint64(len(p)))
	if e.sizing {
		e.n += len(p)
		return
	}
	e.b = append(e.b, p...)
}

func (e *wireEnc) strings(ss []string) {
	e.uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.string(s)
	}
}

func (e *wireEnc) byteSlices(ps [][]byte) {
	e.uvarint(uint64(len(ps)))
	for _, p := range ps {
		e.bytes(p)
	}
}

func (e *wireEnc) ring(id ring.RingID) {
	e.string(id.App)
	e.string(id.Class)
}

// clock writes a vector clock or client context: 0 for a nil map, else
// the entry count plus one, so an empty map stays empty and nil stays
// nil.
func (e *wireEnc) clock(c map[string]uint64) {
	if c == nil {
		e.uvarint(0)
		return
	}
	e.uvarint(uint64(len(c)) + 1)
	for name, n := range c {
		e.string(name)
		e.uvarint(n)
	}
}

func (e *wireEnc) version(v store.Version) {
	e.bytes(v.Value)
	e.clock(v.Clock)
	e.bool(v.Tombstone)
}

func (e *wireEnc) kvs(items []kv) {
	e.uvarint(uint64(len(items)))
	for _, it := range items {
		e.string(it.Key)
		e.uvarint(uint64(len(it.Versions)))
		for _, v := range it.Versions {
			e.version(v)
		}
	}
}

func (e *wireEnc) int(x int) { e.varint(int64(x)) }

func (e *wireEnc) float64(f float64) {
	if e.sizing {
		e.n += 8
		return
	}
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(f))
}

// encodeList writes a count-prefixed list, one element at a time.
func encodeList[T any](e *wireEnc, items []T, elem func(T)) {
	e.uvarint(uint64(len(items)))
	for _, it := range items {
		elem(it)
	}
}

// digest writes a placement digest like a clock: 0 for nil, else the
// ring count plus one.
func (e *wireEnc) digest(dg placement.Digest) {
	if dg == nil {
		e.uvarint(0)
		return
	}
	e.uvarint(uint64(len(dg)) + 1)
	for id, sum := range dg {
		e.ring(id)
		e.uvarint(sum)
	}
}

func (e *wireEnc) info(i membership.Info) {
	e.string(i.Name)
	e.string(i.Addr)
	e.string(i.LocPath)
	e.float64(i.Confidence)
	e.float64(i.MonthlyRent)
	e.varint(i.Capacity)
	e.float64(i.QueryCapacity)
}

func (e *wireEnc) memberDelta(d membership.Delta) {
	e.info(d.Info)
	e.byte(byte(d.State))
	e.uvarint(d.Incarnation)
	e.float64(d.Rent)
	e.uvarint(d.RentSeq)
}

func (e *wireEnc) placeDelta(d placement.Delta) {
	e.ring(d.Ring)
	e.int(d.Part)
	e.strings(d.Replicas)
	e.uvarint(d.Version)
	e.string(d.Origin)
}

// wireDec reads the layout from b. The first failure sticks: it empties
// b, so every later read returns a zero value and every later count is
// 0, and the decoder unwinds without further checks.
type wireDec struct {
	b   []byte
	v   any // the payload being decoded, named in errors
	err error
}

func (d *wireDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("cluster: decode %T: %s", d.v, fmt.Sprintf(format, args...))
	}
	d.b = nil
}

// tag checks the payload's type tag.
func (d *wireDec) tag(want byte) {
	if len(d.b) == 0 || d.b[0] != want {
		if d.err == nil {
			got := -1
			if len(d.b) > 0 {
				got = int(d.b[0])
			}
			d.err = fmt.Errorf("cluster: payload codec mismatch for %T (tag %#x, want %#x)", d.v, got, want)
		}
		d.b = nil
		return
	}
	d.b = d.b[1:]
}

func (d *wireDec) uvarint() uint64 {
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

func (d *wireDec) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads an element count; see bound.
func (d *wireDec) count(minSize int) int { return d.bound(d.uvarint(), minSize) }

// bound fails unless the bytes left can hold n elements of at least
// minSize bytes each.
func (d *wireDec) bound(n uint64, minSize int) int {
	if n > uint64(len(d.b)/minSize) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *wireDec) bool() bool {
	if len(d.b) == 0 || d.b[0] > 1 {
		d.fail("bad bool")
		return false
	}
	v := d.b[0] == 1
	d.b = d.b[1:]
	return v
}

// raw returns the next length-prefixed field, aliasing the payload.
func (d *wireDec) raw() []byte {
	n := d.count(1)
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *wireDec) string() string { return string(d.raw()) }

// bytes copies the next byte field out; an empty one decodes as nil.
func (d *wireDec) bytes() []byte {
	p := d.raw()
	if len(p) == 0 {
		return nil
	}
	return append(make([]byte, 0, len(p)), p...)
}

// strings decodes a key list with one allocation for all the keys: they
// are copied out together and sliced apart. Only read paths decode key
// lists, so a retained key pins no more than its list's other keys.
func (d *wireDec) strings() []string {
	n := d.count(minString)
	if n == 0 {
		return nil
	}
	region := d.b
	for range n {
		d.raw()
	}
	if d.err != nil {
		return nil
	}
	arena := string(region[:len(region)-len(d.b)])
	out := make([]string, n)
	for i := range out {
		l, k := binary.Uvarint(region) // validated by the first pass
		out[i] = arena[k : k+int(l)]
		arena, region = arena[k+int(l):], region[k+int(l):]
	}
	return out
}

func (d *wireDec) byteSlices() [][]byte {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = d.bytes()
	}
	return out
}

func (d *wireDec) ring() ring.RingID {
	app := d.string()
	return ring.RingID{App: app, Class: d.string()}
}

// clock decodes a vector clock or client context (see wireEnc.clock);
// node names come from the intern table.
func (d *wireDec) clock() map[string]uint64 {
	m := d.uvarint()
	if m == 0 {
		return nil
	}
	n := d.bound(m-1, minClockKV)
	c := make(map[string]uint64, n)
	for range n {
		name := internName(d.raw())
		c[name] = d.uvarint()
	}
	return c
}

func (d *wireDec) version() store.Version {
	value := d.bytes()
	clock := d.clock()
	return store.Version{Value: value, Clock: clock, Tombstone: d.bool()}
}

// kvs decodes a key/versions list. Most keys hold one version, so the
// versions share one slab sized by the keys left; a key whose versions
// do not fit gets its own slice. Stores and merges copy the Version
// values out, so the slab outlives no read.
func (d *wireDec) kvs() []kv {
	n := d.count(minKV)
	if n == 0 {
		return nil
	}
	out := make([]kv, n)
	var slab []store.Version
	for i := range out {
		out[i].Key = d.string()
		m := d.count(minVersion)
		if m == 0 {
			continue
		}
		if slab == nil {
			slab = make([]store.Version, 0, n-i)
		}
		var vs []store.Version
		if k := len(slab); k+m <= cap(slab) {
			vs, slab = slab[k:k+m:k+m], slab[:k+m]
		} else {
			vs = make([]store.Version, m)
		}
		for j := range vs {
			vs[j] = d.version()
		}
		out[i].Versions = vs
	}
	return out
}

func (d *wireDec) int() int { return int(d.varint()) }

func (d *wireDec) byte() byte {
	if len(d.b) == 0 {
		d.fail("truncated byte")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *wireDec) float64() float64 {
	if len(d.b) < 8 {
		d.fail("truncated float64")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return f
}

// decodeList decodes a count-prefixed list whose elements take at least
// minSize bytes each; an empty list decodes as nil.
func decodeList[T any](d *wireDec, minSize int, elem func() T) []T {
	n := d.count(minSize)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = elem()
	}
	return out
}

// digest decodes a placement digest (see wireEnc.digest).
func (d *wireDec) digest() placement.Digest {
	m := d.uvarint()
	if m == 0 {
		return nil
	}
	n := d.bound(m-1, minRingSum)
	dg := make(placement.Digest, n)
	for range n {
		id := d.ring()
		dg[id] = d.uvarint()
	}
	return dg
}

func (d *wireDec) info() membership.Info {
	return membership.Info{Name: d.string(), Addr: d.string(), LocPath: d.string(),
		Confidence: d.float64(), MonthlyRent: d.float64(), Capacity: d.varint(), QueryCapacity: d.float64()}
}

func (d *wireDec) memberDelta() membership.Delta {
	return membership.Delta{Info: d.info(), State: membership.State(d.byte()), Incarnation: d.uvarint(),
		Rent: d.float64(), RentSeq: d.uvarint()}
}

func (d *wireDec) placeDelta() placement.Delta {
	return placement.Delta{Ring: d.ring(), Part: d.int(), Replicas: d.strings(), Version: d.uvarint(), Origin: d.string()}
}

// Clock node names repeat in every version of every key, so decoding
// interns them: a process-wide table maps a member's name bytes to one
// shared string. Only member names enter it — every node registers the
// members it learns (Node.registerName) — and the decoder never inserts,
// so a peer that sends random clock names can neither fill the table
// nor crowd a member out: each such name costs one failed lookup and one
// string allocation. Lookups read an immutable map through an atomic
// pointer and allocate nothing; registering copies the map under a
// mutex, once per distinct member name. A name past maxInternedLen
// bytes, or any new name once the table holds maxInterned, is not
// remembered.
const (
	maxInterned    = 1024
	maxInternedLen = 64
)

var (
	internMu  sync.Mutex
	internTab atomic.Pointer[map[string]string]
)

// internName returns the interned member name equal to b, or a fresh
// copy of b.
func internName(b []byte) string {
	if s, ok := interned()[string(b)]; ok {
		return s
	}
	return string(b)
}

// internMember adds a member name to the intern table.
func internMember(name string) {
	if len(name) > maxInternedLen {
		return
	}
	internMu.Lock()
	defer internMu.Unlock()
	old := interned()
	if _, ok := old[name]; ok || len(old) >= maxInterned {
		return
	}
	tab := make(map[string]string, len(old)+1)
	for k, v := range old {
		tab[k] = v
	}
	tab[name] = name
	internTab.Store(&tab)
}

// interned returns the current intern table; nil before the first name.
func interned() map[string]string {
	if tab := internTab.Load(); tab != nil {
		return *tab
	}
	return nil
}

// The payload types. Each marshalWire writes its tag and then its fields
// in declaration order; each unmarshalWire reads them back and sets
// every field. The data-plane types come first, in tag order, then the
// control-plane types.

func (m multiGetReq) marshalWire(e *wireEnc) {
	e.byte(tagMultiGetReq)
	e.ring(m.Ring)
	e.strings(m.Keys)
}

func (m *multiGetReq) unmarshalWire(d *wireDec) {
	d.tag(tagMultiGetReq)
	m.Ring = d.ring()
	m.Keys = d.strings()
}

func (m multiGetResp) marshalWire(e *wireEnc) {
	e.byte(tagMultiGetResp)
	e.kvs(m.Items)
}

func (m *multiGetResp) unmarshalWire(d *wireDec) {
	d.tag(tagMultiGetResp)
	m.Items = d.kvs()
}

func (m multiPutReq) marshalWire(e *wireEnc) {
	e.byte(tagMultiPutReq)
	e.ring(m.Ring)
	e.uvarint(uint64(len(m.Items)))
	for _, it := range m.Items {
		e.string(it.Key)
		e.version(it.Version)
	}
}

func (m *multiPutReq) unmarshalWire(d *wireDec) {
	d.tag(tagMultiPutReq)
	m.Ring = d.ring()
	m.Items = nil
	if n := d.count(minPutItem); n > 0 {
		m.Items = make([]putItem, n)
		for i := range m.Items {
			m.Items[i].Key = d.string()
			m.Items[i].Version = d.version()
		}
	}
}

func (m clientGetReq) marshalWire(e *wireEnc) {
	e.byte(tagClientGetReq)
	e.ring(m.Ring)
	e.string(m.Key)
	e.varint(int64(m.Consistency))
	e.varint(int64(m.Timeout))
}

func (m *clientGetReq) unmarshalWire(d *wireDec) {
	d.tag(tagClientGetReq)
	m.Ring = d.ring()
	m.Key = d.string()
	m.Consistency = Consistency(d.varint())
	m.Timeout = time.Duration(d.varint())
}

func (m clientGetResp) marshalWire(e *wireEnc) {
	e.byte(tagClientGetResp)
	e.byteSlices(m.Values)
	e.clock(m.Context)
}

func (m *clientGetResp) unmarshalWire(d *wireDec) {
	d.tag(tagClientGetResp)
	m.Values = d.byteSlices()
	m.Context = d.clock()
}

func (m clientPutReq) marshalWire(e *wireEnc) {
	e.byte(tagClientPutReq)
	e.ring(m.Ring)
	e.string(m.Key)
	e.bytes(m.Value)
	e.bool(m.Delete)
	e.clock(m.Context)
	e.varint(int64(m.Consistency))
	e.varint(int64(m.Timeout))
}

func (m *clientPutReq) unmarshalWire(d *wireDec) {
	d.tag(tagClientPutReq)
	m.Ring = d.ring()
	m.Key = d.string()
	m.Value = d.bytes()
	m.Delete = d.bool()
	m.Context = d.clock()
	m.Consistency = Consistency(d.varint())
	m.Timeout = time.Duration(d.varint())
}

func (m clientMGetReq) marshalWire(e *wireEnc) {
	e.byte(tagClientMGetReq)
	e.ring(m.Ring)
	e.strings(m.Keys)
	e.varint(int64(m.Consistency))
	e.varint(int64(m.Timeout))
}

func (m *clientMGetReq) unmarshalWire(d *wireDec) {
	d.tag(tagClientMGetReq)
	m.Ring = d.ring()
	m.Keys = d.strings()
	m.Consistency = Consistency(d.varint())
	m.Timeout = time.Duration(d.varint())
}

func (m clientMGetResp) marshalWire(e *wireEnc) {
	e.byte(tagClientMGetResp)
	e.uvarint(uint64(len(m.Items)))
	for _, it := range m.Items {
		e.string(it.Key)
		e.byteSlices(it.Values)
		e.clock(it.Context)
	}
}

func (m *clientMGetResp) unmarshalWire(d *wireDec) {
	d.tag(tagClientMGetResp)
	m.Items = nil
	if n := d.count(minClient); n > 0 {
		m.Items = make([]clientKV, n)
		for i := range m.Items {
			m.Items[i].Key = d.string()
			m.Items[i].Values = d.byteSlices()
			m.Items[i].Context = d.clock()
		}
	}
}

func (m clientMPutReq) marshalWire(e *wireEnc) {
	e.byte(tagClientMPutReq)
	e.ring(m.Ring)
	e.uvarint(uint64(len(m.Entries)))
	for _, en := range m.Entries {
		e.string(en.Key)
		e.bytes(en.Value)
		e.clock(en.Context)
	}
	e.varint(int64(m.Consistency))
	e.varint(int64(m.Timeout))
}

func (m *clientMPutReq) unmarshalWire(d *wireDec) {
	d.tag(tagClientMPutReq)
	m.Ring = d.ring()
	m.Entries = nil
	if n := d.count(minEntry); n > 0 {
		m.Entries = make([]Entry, n)
		for i := range m.Entries {
			m.Entries[i].Key = d.string()
			m.Entries[i].Value = d.bytes()
			m.Entries[i].Context = d.clock()
		}
	}
	m.Consistency = Consistency(d.varint())
	m.Timeout = time.Duration(d.varint())
}

func (m fetchChunkResp) marshalWire(e *wireEnc) {
	e.byte(tagFetchChunkResp)
	e.kvs(m.Items)
	e.string(m.Next)
	e.bool(m.Done)
}

func (m *fetchChunkResp) unmarshalWire(d *wireDec) {
	d.tag(tagFetchChunkResp)
	m.Items = d.kvs()
	m.Next = d.string()
	m.Done = d.bool()
}

func (m heartbeatReq) marshalWire(e *wireEnc) {
	e.byte(tagHeartbeatReq)
	e.string(m.From)
	e.digest(m.Digest)
	e.memberDelta(m.Member)
	e.uvarint(m.MDigest)
}

func (m *heartbeatReq) unmarshalWire(d *wireDec) {
	d.tag(tagHeartbeatReq)
	*m = heartbeatReq{From: d.string(), Digest: d.digest(), Member: d.memberDelta(), MDigest: d.uvarint()}
}

func (m heartbeatResp) marshalWire(e *wireEnc) {
	e.byte(tagHeartbeatResp)
	e.memberDelta(m.Member)
}

func (m *heartbeatResp) unmarshalWire(d *wireDec) {
	d.tag(tagHeartbeatResp)
	m.Member = d.memberDelta()
}

func (m leavesReq) marshalWire(e *wireEnc) {
	e.byte(tagLeavesReq)
	e.ring(m.Ring)
	e.int(m.Part)
	e.bytes(m.Root)
}

func (m *leavesReq) unmarshalWire(d *wireDec) {
	d.tag(tagLeavesReq)
	*m = leavesReq{Ring: d.ring(), Part: d.int(), Root: d.bytes()}
}

func (m leavesResp) marshalWire(e *wireEnc) {
	e.byte(tagLeavesResp)
	e.bool(m.Same)
	e.strings(m.Keys)
	e.byteSlices(m.Hashes)
}

func (m *leavesResp) unmarshalWire(d *wireDec) {
	d.tag(tagLeavesResp)
	*m = leavesResp{Same: d.bool(), Keys: d.strings(), Hashes: d.byteSlices()}
}

func (m adoptReq) marshalWire(e *wireEnc) {
	e.byte(tagAdoptReq)
	e.ring(m.Ring)
	e.int(m.Part)
	e.string(m.FromAddr)
}

func (m *adoptReq) unmarshalWire(d *wireDec) {
	d.tag(tagAdoptReq)
	*m = adoptReq{Ring: d.ring(), Part: d.int(), FromAddr: d.string()}
}

func (m deltaReq) marshalWire(e *wireEnc) {
	e.byte(tagDeltaReq)
	encodeList(e, m.Deltas, e.placeDelta)
}

func (m *deltaReq) unmarshalWire(d *wireDec) {
	d.tag(tagDeltaReq)
	m.Deltas = decodeList(d, minPlaceDelta, d.placeDelta)
}

func (m deltaPullReq) marshalWire(e *wireEnc) {
	e.byte(tagDeltaPullReq)
	e.digest(m.Digest)
}

func (m *deltaPullReq) unmarshalWire(d *wireDec) {
	d.tag(tagDeltaPullReq)
	m.Digest = d.digest()
}

func (m deltaPullResp) marshalWire(e *wireEnc) {
	e.byte(tagDeltaPullResp)
	encodeList(e, m.Deltas, e.placeDelta)
}

func (m *deltaPullResp) unmarshalWire(d *wireDec) {
	d.tag(tagDeltaPullResp)
	m.Deltas = decodeList(d, minPlaceDelta, d.placeDelta)
}

func (m joinReq) marshalWire(e *wireEnc) {
	e.byte(tagJoinReq)
	e.info(m.Info)
}

func (m *joinReq) unmarshalWire(d *wireDec) {
	d.tag(tagJoinReq)
	m.Info = d.info()
}

func (m joinResp) marshalWire(e *wireEnc) {
	e.byte(tagJoinResp)
	e.uvarint(m.Assigned)
	encodeList(e, m.Members, e.memberDelta)
	encodeList(e, m.Rings, func(r RingSpec) {
		e.string(r.App)
		e.string(r.Class)
		e.int(r.Partitions)
		e.int(r.Replicas)
	})
	encodeList(e, m.Placement, e.placeDelta)
	e.int(m.ReadQuorum)
	e.int(m.WriteQuorum)
	e.varint(int64(m.SuspectAfter))
	e.varint(int64(m.DeadAfter))
}

func (m *joinResp) unmarshalWire(d *wireDec) {
	d.tag(tagJoinResp)
	*m = joinResp{
		Assigned: d.uvarint(),
		Members:  decodeList(d, minMemberDelta, d.memberDelta),
		Rings: decodeList(d, minRingSpec, func() RingSpec {
			return RingSpec{App: d.string(), Class: d.string(), Partitions: d.int(), Replicas: d.int()}
		}),
		Placement:    decodeList(d, minPlaceDelta, d.placeDelta),
		ReadQuorum:   d.int(),
		WriteQuorum:  d.int(),
		SuspectAfter: time.Duration(d.varint()),
		DeadAfter:    time.Duration(d.varint()),
	}
}

func (m memberPullReq) marshalWire(e *wireEnc) {
	e.byte(tagMemberPullReq)
	e.uvarint(m.Digest)
}

func (m *memberPullReq) unmarshalWire(d *wireDec) {
	d.tag(tagMemberPullReq)
	m.Digest = d.uvarint()
}

func (m memberPullResp) marshalWire(e *wireEnc) {
	e.byte(tagMemberPullResp)
	encodeList(e, m.Deltas, e.memberDelta)
}

func (m *memberPullResp) unmarshalWire(d *wireDec) {
	d.tag(tagMemberPullResp)
	m.Deltas = decodeList(d, minMemberDelta, d.memberDelta)
}

func (m memberDeltaReq) marshalWire(e *wireEnc) {
	e.byte(tagMemberDeltaReq)
	encodeList(e, m.Deltas, e.memberDelta)
}

func (m *memberDeltaReq) unmarshalWire(d *wireDec) {
	d.tag(tagMemberDeltaReq)
	m.Deltas = decodeList(d, minMemberDelta, d.memberDelta)
}

func (m fetchChunkReq) marshalWire(e *wireEnc) {
	e.byte(tagFetchChunkReq)
	e.ring(m.Ring)
	e.int(m.Part)
	e.string(m.After)
	e.int(m.MaxItems)
}

func (m *fetchChunkReq) unmarshalWire(d *wireDec) {
	d.tag(tagFetchChunkReq)
	*m = fetchChunkReq{Ring: d.ring(), Part: d.int(), After: d.string(), MaxItems: d.int()}
}

func (m clientMembersResp) marshalWire(e *wireEnc) {
	e.byte(tagClientMembersResp)
	encodeList(e, m.Members, func(r MemberRecord) {
		e.string(r.Name)
		e.string(r.Addr)
		e.string(r.State)
		e.uvarint(r.Incarnation)
		e.bool(r.Confirmed)
		e.varint(r.AgeMillis)
	})
}

func (m *clientMembersResp) unmarshalWire(d *wireDec) {
	d.tag(tagClientMembersResp)
	m.Members = decodeList(d, minMemberRecord, func() MemberRecord {
		return MemberRecord{Name: d.string(), Addr: d.string(), State: d.string(),
			Incarnation: d.uvarint(), Confirmed: d.bool(), AgeMillis: d.varint()}
	})
}
