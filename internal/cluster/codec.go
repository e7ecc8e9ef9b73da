package cluster

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"sync"
)

// Payload codec: long-lived, pooled gob encoder/decoder sessions.
//
// The old encode/decode built a fresh gob encoder or decoder per call,
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
	leavesReq{}, leavesResp{}, kv{},
	adoptReq{}, announceReq{}, rentsResp{},
	deltaReq{}, deltaPullReq{}, deltaPullResp{},
	putItem{}, multiGetReq{}, multiGetResp{}, multiPutReq{},
	clientGetReq{}, clientGetResp{}, clientPutReq{},
	clientMGetReq{}, clientKV{}, clientMGetResp{}, clientMPutReq{},
	joinReq{}, joinResp{}, memberPullReq{}, memberPullResp{},
	memberDeltaReq{}, fetchChunkReq{}, fetchChunkResp{},
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

// encode serializes a wire payload through its type's pooled session:
// one marker byte, then value-only bytes with no per-call descriptors.
// The returned slice is an exact-size copy, so the session buffer never
// escapes.
func encode(v any) []byte {
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

// decode deserializes a wire payload through its type's pooled session.
// v must be a pointer to the concrete payload type. The marker byte
// rejects a sender whose canonical prime disagrees with ours (codec
// drift — e.g. a wire type missing from wirePayloadPrototypes) instead
// of misdecoding. A failed decode discards the session (its stream
// state is unknown) and reports the error.
func decode(p []byte, v any) error {
	if len(p) == 0 {
		return fmt.Errorf("cluster: empty payload for %T", v)
	}
	marker, body := p[0], p[1:]
	t := reflect.TypeOf(v)
	if t.Kind() != reflect.Pointer {
		return fmt.Errorf("cluster: decode into non-pointer %T", v)
	}
	if want := primeFor(t.Elem()).marker; marker != want {
		return fmt.Errorf("cluster: payload codec mismatch for %v (marker %#x, want %#x): sender and receiver disagree on the canonical wire-type registry", t.Elem(), marker, want)
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
