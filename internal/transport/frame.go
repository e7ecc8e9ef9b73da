package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// The TCP wire speaks length-prefixed binary frames over persistent
// connections:
//
//	[4B length N] [8B request ID] [1B flags] [1B error code]
//	[2B kind length] [2B error-message length] [kind] [error] [payload]
//
// where N covers everything after the length prefix. Every frame
// carries a request ID: many calls share one socket, requests and
// responses interleave freely, and a slow response never head-of-line
// blocks a fast one behind it. The header is hand-encoded — no
// reflection, no per-call type descriptors — and the opaque payload
// rides as raw bytes (internal/cluster lays every payload out by hand
// in this same idiom).
const (
	// flagResponse marks a response frame; requests have no flags.
	flagResponse = 1 << 0
	// frameHeaderBytes is the fixed header size after the length prefix.
	frameHeaderBytes = 8 + 1 + 1 + 2 + 2
	// maxFrameBytes bounds a single frame — a corrupt or hostile length
	// prefix cannot make a reader allocate unbounded memory.
	maxFrameBytes = 64 << 20
	// maxRetainedBufferBytes caps how much staging buffer a connection
	// keeps between frames: one huge anti-entropy transfer must not pin
	// tens of MB on a long-lived pooled connection forever.
	maxRetainedBufferBytes = 1 << 20
	// maxPooledPayloadBytes caps the payload buffers the recycle pool
	// retains — quorum-read and heartbeat payloads are well under this,
	// while a bulk transfer chunk passes through unpooled rather than
	// pinning its buffer for the pool's lifetime.
	maxPooledPayloadBytes = 64 << 10
)

// payloadPool recycles the per-frame payload staging buffers between
// readFrame (which must copy the payload out of the connection's reused
// read buffer) and RecyclePayload. Buffers are stored as *[]byte so
// repooling does not allocate an interface box per slice header.
var payloadPool sync.Pool

// newPayloadBuf hands out a payload buffer of length n, reusing a pooled
// one when it fits. Fresh allocations round their capacity up to a power
// of two (min 1 KiB) so a recycled buffer serves many payload sizes.
func newPayloadBuf(n int) []byte {
	if n > maxPooledPayloadBytes {
		return make([]byte, n) // oversized: bypass the pool entirely
	}
	if bp, _ := payloadPool.Get().(*[]byte); bp != nil && cap(*bp) >= n {
		return (*bp)[:n]
	}
	c := 1 << 10
	for c < n {
		c <<= 1
	}
	return make([]byte, n, c)
}

// RecyclePayload returns a payload buffer to the staging pool. The
// transport calls it for every request payload once its handler returns;
// clients that fully consume a response payload (the cluster layer's
// decode copies every byte out) may call it too, turning the per-frame
// payload copy into a pool hit. Callers must not touch the slice
// afterwards. Recycling a slice the pool never produced is harmless —
// oversized or zero-cap buffers are simply dropped.
func RecyclePayload(p []byte) {
	if cap(p) == 0 || cap(p) > maxPooledPayloadBytes {
		return
	}
	p = p[:0]
	payloadPool.Put(&p)
}

// frameSizeError reports a frame that failed validation BEFORE any byte
// reached the socket: the connection is still healthy, so callers must
// surface the error without tearing the stream down.
type frameSizeError struct{ msg string }

func (e *frameSizeError) Error() string { return e.msg }

// frame is the unit on the socket.
type frame struct {
	ID      uint64
	Flags   uint8
	Code    uint8  // ErrorCode of a failed response (0 = success)
	Kind    string // Envelope kind (request) or reply kind (response)
	Err     string // error message of a failed response
	Payload []byte
}

// streamCodec is one connection's codec state: a reusable staging
// buffer so each frame hits the socket as a single write, and a write
// mutex that lets any number of goroutines interleave whole frames on
// the shared socket. The read side is single-consumer (one reader
// goroutine per connection), so it needs no lock.
type streamCodec struct {
	conn net.Conn

	wmu  sync.Mutex
	wbuf []byte
	bw   *bufio.Writer

	br   *bufio.Reader
	rbuf []byte
}

func newStreamCodec(conn net.Conn) *streamCodec {
	return &streamCodec{
		conn: conn,
		bw:   bufio.NewWriter(conn),
		br:   bufio.NewReader(conn),
	}
}

// writeFrame encodes and sends one frame before the deadline. Except for
// *frameSizeError (validation, nothing written), a failed write leaves
// a partial frame on the wire, so callers must treat it as a broken
// connection.
//
// Known limitation: the write mutex is held for one frame's flush, and
// a mutex wait is not context-interruptible — a caller whose deadline
// fires while another goroutine flushes a huge frame to a slow peer
// overshoots until that flush's own write deadline (bounded by
// CallTimeout) releases the lock. An async writer queue would remove
// this; at this store's frame sizes it has not been worth the
// complexity.
func (sc *streamCodec) writeFrame(f *frame, deadline time.Time) error {
	if len(f.Kind) > 0xffff || len(f.Err) > 0xffff {
		return &frameSizeError{msg: fmt.Sprintf("transport: frame kind/error field too long (%d/%d bytes)", len(f.Kind), len(f.Err))}
	}
	n := frameHeaderBytes + len(f.Kind) + len(f.Err) + len(f.Payload)
	if n > maxFrameBytes {
		return &frameSizeError{msg: fmt.Sprintf("transport: frame of %d bytes exceeds the %d byte limit", n, maxFrameBytes)}
	}
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	if cap(sc.wbuf) < 4+n {
		sc.wbuf = make([]byte, 4+n)
	}
	b := sc.wbuf[:4+n]
	binary.BigEndian.PutUint32(b[0:4], uint32(n))
	binary.BigEndian.PutUint64(b[4:12], f.ID)
	b[12] = f.Flags
	b[13] = f.Code
	binary.BigEndian.PutUint16(b[14:16], uint16(len(f.Kind)))
	binary.BigEndian.PutUint16(b[16:18], uint16(len(f.Err)))
	off := 4 + frameHeaderBytes
	off += copy(b[off:], f.Kind)
	off += copy(b[off:], f.Err)
	copy(b[off:], f.Payload)
	if err := sc.conn.SetWriteDeadline(deadline); err != nil {
		return err
	}
	if _, err := sc.bw.Write(b); err != nil {
		return err
	}
	err := sc.bw.Flush()
	if cap(sc.wbuf) > maxRetainedBufferBytes {
		sc.wbuf = nil // an oversized frame must not pin its buffer forever
	}
	return err
}

// readFrame blocks for the next frame. The read buffer is reused across
// frames; the decoded Kind/Err strings are fresh allocations safe to
// retain. The Payload is staged in a buffer from payloadPool: ownership
// passes to the frame's consumer, who may hand it back through
// RecyclePayload once the payload is fully consumed.
func (sc *streamCodec) readFrame(f *frame) error {
	var lenb [4]byte
	if _, err := io.ReadFull(sc.br, lenb[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(lenb[:])
	if n < frameHeaderBytes || n > maxFrameBytes {
		return fmt.Errorf("transport: invalid frame length %d", n)
	}
	if cap(sc.rbuf) < int(n) {
		sc.rbuf = make([]byte, n)
	}
	b := sc.rbuf[:n]
	if _, err := io.ReadFull(sc.br, b); err != nil {
		return err
	}
	f.ID = binary.BigEndian.Uint64(b[0:8])
	f.Flags = b[8]
	f.Code = b[9]
	kindLen := int(binary.BigEndian.Uint16(b[10:12]))
	errLen := int(binary.BigEndian.Uint16(b[12:14]))
	if frameHeaderBytes+kindLen+errLen > int(n) {
		return fmt.Errorf("transport: frame field lengths exceed frame size")
	}
	off := frameHeaderBytes
	f.Kind = string(b[off : off+kindLen])
	off += kindLen
	f.Err = string(b[off : off+errLen])
	off += errLen
	payload := b[off:]
	if len(payload) > 0 {
		f.Payload = newPayloadBuf(len(payload))
		copy(f.Payload, payload)
	} else {
		f.Payload = nil
	}
	if cap(sc.rbuf) > maxRetainedBufferBytes {
		sc.rbuf = nil // see writeFrame: don't pin a huge buffer between frames
	}
	return nil
}
