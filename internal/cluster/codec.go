package cluster

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"slices"
	"strings"
	"sync"

	"skute/internal/placement"
)

// Payload codecs. The data-plane payloads (keys, values, clocks) are
// hand-encoded, see handcodec.go; encode and decode pick that path for
// any type implementing wireMarshaler/wireUnmarshaler. Every other
// payload — the control plane: heartbeats, membership, placement,
// economy, anti-entropy leaves — rides the gob sessions below.
//
// A gob session is a long-lived, pooled encoder/decoder stream. The old
// encode/decode built a fresh gob encoder or decoder per call,
// so every wire payload carried the full type descriptors and every
// decode re-parsed and re-compiled them — profiling showed descriptor
// handling alone was ~40% of a quorum operation's CPU. A session is a
// gob stream primed once with the zero value of its payload type: after
// priming, the encoder emits value-only bytes and the decoder keeps its
// compiled engines, so type descriptors cross a process boundary
// exactly once per session prime instead of once per call.
//
// The sender primes its encoder by encoding a zero value into the
// discard pile; the receiver primes its decoder by consuming the
// canonical prime bytes computed locally from the same types. No
// handshake is needed, but this only works because the wire-type
// registry is PINNED at init (next comment) — both ends then emit
// byte-identical primes. Sessions are pooled per payload type with
// sync.Pool, making the steady-state cost of encode/decode a single
// value message with no descriptor work at all.
//
// Bounds: gob sizes a map from the count the payload claims and a
// slice from that count capped at 10 MB, so a few hostile bytes could
// make it allocate megabytes. No gob wire type holds a map, and
// scanGob walks every gob payload against its type before gob sees it,
// failing any count or length the bytes left cannot hold.

// Cross-process determinism. Gob assigns wire type IDs from a
// process-GLOBAL registry in first-use order, so two binaries that
// first encode different types (skuted's first payload is a heartbeat,
// skutectl's a client get) would bake different IDs into their
// value-only messages. registerWireTypes pins the registry: every wire
// payload type is registered at package init, in one canonical order,
// in every binary that imports this package — so all primes agree
// byte-for-byte across processes. Every payload also carries a marker
// byte whose low bits fingerprint the sender's canonical prime for the
// type, so any future drift (a wire type missing from this list, or
// mixed binaries) fails loudly as a codec mismatch instead of
// corrupting silently.
//
// ADD NEW WIRE PAYLOAD TYPES TO THIS LIST. The cross-process codec
// test re-execs the test binary to catch a forgotten registration.
var wirePayloadPrototypes = []any{
	heartbeatReq{},
	leavesReq{}, leavesResp{},
	adoptReq{}, announceReq{}, rentsResp{},
	deltaReq{}, deltaPullReq{}, deltaPullResp{},
	joinReq{}, joinResp{}, memberPullReq{}, memberPullResp{},
	memberDeltaReq{}, fetchChunkReq{},
	MemberRecord{}, clientMembersResp{},
	heartbeatResp{},
}

func init() {
	enc := gob.NewEncoder(io.Discard)
	for _, v := range wirePayloadPrototypes {
		if err := enc.Encode(v); err != nil {
			panic(fmt.Sprintf("cluster: register wire type %T: %v", v, err))
		}
	}
}

// primeInfo caches, per payload type, the canonical bytes a fresh gob
// stream emits for the type's descriptors plus one zero value, and the
// marker byte fingerprinting them: the first byte of every encoded
// payload, its high bit set and its low 7 bits a hash of the bytes.
type primeInfo struct {
	bytes  []byte
	marker byte
}

var primes sync.Map // reflect.Type -> primeInfo

func primeFor(t reflect.Type) primeInfo {
	if p, ok := primes.Load(t); ok {
		return p.(primeInfo)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).EncodeValue(reflect.New(t).Elem()); err != nil {
		panic(fmt.Sprintf("cluster: prime %v: %v", t, err)) // all payloads are gob-safe by construction
	}
	h := fnv.New32a()
	h.Write(buf.Bytes())
	pi := primeInfo{bytes: buf.Bytes(), marker: 0x80 | byte(h.Sum32()&0x7f)}
	p, _ := primes.LoadOrStore(t, pi)
	return p.(primeInfo)
}

// encSession is a primed encoder stream: Encode after priming emits
// value-only bytes into buf.
type encSession struct {
	buf bytes.Buffer
	enc *gob.Encoder
}

// decSession is a primed decoder stream fed one payload at a time
// through a refillable reader; its compiled engines persist across
// payloads.
type decSession struct {
	src payloadReader
	dec *gob.Decoder
}

// payloadReader feeds the session decoder exactly one payload per
// Decode. It implements io.ByteReader so gob uses it directly instead
// of wrapping it in a bufio.Reader whose read-ahead would cross payload
// boundaries.
type payloadReader struct {
	buf []byte
	off int
}

func (r *payloadReader) Read(p []byte) (int, error) {
	if r.off >= len(r.buf) {
		return 0, io.EOF
	}
	n := copy(p, r.buf[r.off:])
	r.off += n
	return n, nil
}

func (r *payloadReader) ReadByte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, io.EOF
	}
	c := r.buf[r.off]
	r.off++
	return c, nil
}

var (
	encPools sync.Map // reflect.Type -> *sync.Pool of *encSession
	decPools sync.Map // reflect.Type -> *sync.Pool of *decSession
)

func encPoolFor(t reflect.Type) *sync.Pool {
	if p, ok := encPools.Load(t); ok {
		return p.(*sync.Pool)
	}
	pool := &sync.Pool{New: func() any {
		s := &encSession{}
		s.enc = gob.NewEncoder(&s.buf)
		if err := s.enc.EncodeValue(reflect.New(t).Elem()); err != nil {
			panic(fmt.Sprintf("cluster: prime encoder %v: %v", t, err))
		}
		s.buf.Reset() // discard the priming bytes; descriptors are now "sent"
		return s
	}}
	p, _ := encPools.LoadOrStore(t, pool)
	return p.(*sync.Pool)
}

func decPoolFor(t reflect.Type) *sync.Pool {
	if p, ok := decPools.Load(t); ok {
		return p.(*sync.Pool)
	}
	prime := primeFor(t).bytes
	pool := &sync.Pool{New: func() any {
		s := &decSession{}
		s.dec = gob.NewDecoder(&s.src)
		s.src.buf = prime
		if err := s.dec.DecodeValue(reflect.New(t).Elem()); err != nil {
			panic(fmt.Sprintf("cluster: prime decoder %v: %v", t, err))
		}
		return s
	}}
	p, _ := decPools.LoadOrStore(t, pool)
	return p.(*sync.Pool)
}

// encode serializes a wire payload: hand-coded types through their own
// layout, every other type through its pooled gob session as one marker
// byte, then value-only bytes with no per-call descriptors. The returned
// slice is an exact-size copy, so the session buffer never escapes.
func encode(v any) []byte {
	if h, ok := v.(wireMarshaler); ok {
		return encodeHand(h)
	}
	t := reflect.TypeOf(v)
	marker := primeFor(t).marker
	pool := encPoolFor(t)
	s := pool.Get().(*encSession)
	s.buf.Reset()
	if err := s.enc.Encode(v); err != nil {
		// The stream state is unknown after a failed encode; drop the
		// session rather than repool it.
		panic(fmt.Sprintf("cluster: encode %T: %v", v, err)) // all payloads are gob-safe by construction
	}
	out := make([]byte, 1+s.buf.Len())
	out[0] = marker
	copy(out[1:], s.buf.Bytes())
	pool.Put(s)
	return out
}

// decode deserializes a wire payload; v must be a pointer to the
// concrete payload type. A marker that is not the type's own — a sender
// whose canonical gob prime disagrees with ours (codec drift, e.g. a
// wire type missing from wirePayloadPrototypes), or a payload of the
// other codec — fails as a codec mismatch instead of misdecoding. A gob
// payload must pass scanGob before a session sees it; a failed gob
// decode discards its session (its stream state is unknown).
func decode(p []byte, v any) error {
	if len(p) == 0 {
		return fmt.Errorf("cluster: empty payload for %T", v)
	}
	if h, ok := v.(wireUnmarshaler); ok {
		return decodeHand(p, h)
	}
	marker, body := p[0], p[1:]
	t := reflect.TypeOf(v)
	if t.Kind() != reflect.Pointer {
		return fmt.Errorf("cluster: decode into non-pointer %T", v)
	}
	if want := primeFor(t.Elem()).marker; marker != want {
		return fmt.Errorf("cluster: payload codec mismatch for %v (marker %#x, want %#x): sender and receiver disagree on the canonical wire-type registry", t.Elem(), marker, want)
	}
	if err := scanGob(body, t.Elem()); err != nil {
		return fmt.Errorf("cluster: decode %v: %w", t.Elem(), err)
	}
	pool := decPoolFor(t.Elem())
	s := pool.Get().(*decSession)
	s.src.buf = body
	s.src.off = 0
	if err := s.dec.Decode(v); err != nil {
		return err // session dropped: a mid-stream error poisons its state
	}
	s.src.buf = nil
	pool.Put(s)
	return nil
}

// scanGob checks one value-only gob message of type t — [length]
// [type id] [struct fields] — without allocating: the length must be
// exactly the bytes that follow, and every count and length inside must
// fit in the bytes left, each element taking at least one byte. Only
// the kinds the gob wire types use are accepted; a map is not.
func scanGob(body []byte, t reflect.Type) error {
	g := gobScan{b: body}
	if n := g.uint(); g.err == nil && n != uint64(len(g.b)) {
		return fmt.Errorf("gob message length %d, %d bytes follow", n, len(g.b))
	}
	if id := g.uint(); g.err == nil && (id == 0 || id&1 == 1) {
		return fmt.Errorf("gob message carries no positive type id") // type definitions never follow a primed session
	}
	g.value(t)
	if g.err == nil && len(g.b) > 0 {
		g.err = fmt.Errorf("%d trailing bytes after the gob value", len(g.b))
	}
	return g.err
}

type gobScan struct {
	b   []byte
	err error
}

func (g *gobScan) fail(format string, args ...any) {
	if g.err == nil {
		g.err = fmt.Errorf(format, args...)
	}
	g.b = nil
}

// uint reads one gob unsigned integer: a byte below 0x80 is the value;
// otherwise it is the negated count (≤ 8) of big-endian bytes that follow.
func (g *gobScan) uint() uint64 {
	if len(g.b) == 0 {
		g.fail("truncated gob value")
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	if c < 0x80 {
		return uint64(c)
	}
	n := -int(int8(c))
	if n > 8 || n > len(g.b) {
		g.fail("bad gob integer")
		return 0
	}
	var x uint64
	for _, d := range g.b[:n] {
		x = x<<8 | uint64(d)
	}
	g.b = g.b[n:]
	return x
}

// count reads a length or element count the bytes left can hold.
func (g *gobScan) count() int {
	n := g.uint()
	if n > uint64(len(g.b)) {
		g.fail("gob count %d exceeds the %d bytes left", n, len(g.b))
		return 0
	}
	return int(n)
}

func (g *gobScan) value(t reflect.Type) {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		g.uint()
	case reflect.String:
		n := g.count()
		g.b = g.b[n:]
	case reflect.Slice, reflect.Array:
		n := g.count()
		if t.Kind() == reflect.Slice && t.Elem().Kind() == reflect.Uint8 {
			g.b = g.b[n:] // a byte slice travels as raw bytes
			return
		}
		for range n {
			g.value(t.Elem())
		}
	case reflect.Struct:
		// Fields travel as (delta, value) pairs in declaration order of
		// the exported fields, ended by a zero delta.
		field := -1
		for g.err == nil {
			delta := g.uint()
			if delta == 0 {
				return
			}
			if delta > uint64(t.NumField()) || field+int(delta) >= t.NumField() {
				g.fail("gob field delta %d out of range for %v", delta, t)
				return
			}
			field += int(delta)
			f := t.Field(field)
			if !f.IsExported() {
				g.fail("gob field %d of %v is unexported", field, t)
				return
			}
			g.value(f.Type)
		}
	default:
		g.fail("gob kind %v is not a wire kind", t.Kind())
	}
}

// wireDigest flattens a placement digest into its wire form, sorted by
// ring.
func wireDigest(d placement.Digest) []ringSum {
	out := make([]ringSum, 0, len(d))
	for id, sum := range d {
		out = append(out, ringSum{Ring: id, Sum: sum})
	}
	slices.SortFunc(out, func(a, b ringSum) int {
		return cmp.Or(strings.Compare(a.Ring.App, b.Ring.App), strings.Compare(a.Ring.Class, b.Ring.Class))
	})
	return out
}

// digestOf rebuilds a placement digest from its wire form.
func digestOf(sums []ringSum) placement.Digest {
	d := make(placement.Digest, len(sums))
	for _, s := range sums {
		d[s.Ring] = s.Sum
	}
	return d
}
