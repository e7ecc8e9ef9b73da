// Package wal implements the append-only, CRC-checked, segmented
// write-ahead log of the Skute prototype store. Every mutation is framed,
// sequence-numbered and flushed before it is acknowledged; on restart the
// log is replayed to rebuild the in-memory engine, truncating a torn or
// corrupt tail after the last intact frame (the standard crash-consistency
// contract of database logs).
//
// The log is a directory of segment files, each named after the sequence
// number of the first record it holds (seg-<first>.wal). The highest-named
// segment is active and receives appends; once it grows past
// Options.SegmentBytes it is sealed and a fresh segment is started.
// Sealed segments below a checkpointed sequence number are reclaimed with
// TruncateBefore, which is how the store keeps the log's size proportional
// to the data written since the last snapshot rather than to all history.
//
// Appends use group commit: while one appender (the commit leader) is
// writing and fsyncing, concurrent appenders frame their records into
// the log's pending buffer, and the next leader writes that whole buffer
// with a single write and a single fsync per round. Under contention
// this amortizes the dominant fsync cost over many records without
// weakening durability — Append still returns only after the record is
// on stable storage.
//
// Frame layout (little endian):
//
//	magic   uint32  0x534b5457 ("SKTW")
//	length  uint32  payload bytes
//	crc32   uint32  IEEE CRC of the payload
//	seq     uint64  record sequence number (dense, starting at 1)
//	payload []byte
//
// The payload is integrity-checked by the CRC; the sequence number is
// integrity-checked by density — records are written with consecutive
// sequence numbers, so replay treats any frame whose seq is not exactly
// one past its predecessor as corruption and stops there.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"skute/internal/fsutil"
	"skute/internal/telemetry"
)

const magic uint32 = 0x534b5457

// headerSize is the frame header length in bytes.
const headerSize = 20

// DefaultSegmentBytes is the rotation threshold used when Options does not
// override it: the active segment is sealed once it grows past this size.
const DefaultSegmentBytes = 4 << 20

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: closed")

// MaxRecordSize bounds a single record (64 MiB); larger appends fail and
// larger lengths found during replay are treated as corruption.
const MaxRecordSize = 64 << 20

// Options tunes a Log; the zero value selects the defaults.
type Options struct {
	// SegmentBytes seals the active segment once it grows past this many
	// bytes; <= 0 selects DefaultSegmentBytes. Tests shrink it to exercise
	// rotation cheaply.
	SegmentBytes int64
}

// segment is one sealed (no longer written) segment file.
type segment struct {
	path        string
	first, last uint64 // sequence numbers of its first and last record
}

// maxSpareBytes bounds the round buffer a log keeps for reuse: a buffer
// that grew past it for one large round is dropped, not kept.
const maxSpareBytes = 1 << 20

// Log is an append-only record log backed by a directory of segment
// files. Append is safe for concurrent use.
type Log struct {
	mu          sync.Mutex
	idle        sync.Cond // broadcast when a commit round finishes
	dir         string
	segBytes    int64
	f           *os.File // active segment
	size        int64    // bytes in the active segment
	activeFirst uint64   // first seq the active segment may hold
	sealed      []segment
	nextSeq     uint64 // seq the next Enqueue will be assigned
	lastFlushed uint64 // seq of the last durably written record
	closed      bool
	committing  bool
	failed      error // sticky write/rotate failure; the log refuses new work
	// pending holds the frames enqueued since the last round began, in
	// sequence order: records lastFlushed+1 .. nextSeq-1 while no round
	// is writing. spare is the previous round's buffer, kept for the
	// next round once the commit that wrote it has returned.
	pending []byte
	spare   []byte
	// records counts appended + replayed records, for observability.
	records int64
	// syncs counts fsyncs issued by commits; records/syncs is the group
	// commit batching factor.
	syncs int64
	// fsync records the latency of each commit fsync — the floor under
	// every acknowledged write's tail latency (see FsyncLatency).
	fsync *telemetry.Histogram
}

// segName returns the file name of the segment whose first record has the
// given sequence number.
func segName(first uint64) string {
	return fmt.Sprintf("seg-%020d.wal", first)
}

// parseSegName extracts the first-record sequence number from a segment
// file name, reporting whether the name is a well-formed segment name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len("seg-"):len(name)-len(".wal")], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Open opens (creating if needed) the log directory at dir, replays every
// intact record into the replay callback in sequence order and truncates
// trailing corruption of the final segment. The callback must not retain
// the byte slice. It is equivalent to OpenOptions with zero Options.
func Open(dir string, replay func(seq uint64, payload []byte) error) (*Log, error) {
	return OpenOptions(dir, Options{}, replay)
}

// OpenOptions is Open with explicit tuning.
func OpenOptions(dir string, o Options, replay func(seq uint64, payload []byte) error) (*Log, error) {
	segBytes := o.SegmentBytes
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %s (the log is a directory of segment files): %w", dir, err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, segBytes: segBytes, fsync: telemetry.NewHistogram()}
	l.idle.L = &l.mu

	if len(segs) == 0 {
		l.nextSeq = 1
		if err := l.openActive(1); err != nil {
			return nil, err
		}
		return l, nil
	}

	expected := segs[0].first
	for i, s := range segs {
		if s.first != expected {
			return nil, fmt.Errorf("wal: segment %s starts at seq %d, want %d (gap in the log)", s.path, s.first, expected)
		}
		f, err := os.OpenFile(s.path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: open segment %s: %w", s.path, err)
		}
		valid, last, n, err := replaySegment(f, expected, replay)
		if err != nil {
			f.Close()
			return nil, err
		}
		if i < len(segs)-1 {
			// A sealed segment was fully synced before the next one was
			// created, so trailing corruption here is not a crash artifact:
			// refuse to silently drop the later segments' records.
			fi, statErr := f.Stat()
			f.Close()
			if statErr != nil {
				return nil, fmt.Errorf("wal: stat segment %s: %w", s.path, statErr)
			}
			if valid != fi.Size() || n == 0 {
				return nil, fmt.Errorf("wal: segment %s corrupt mid-log (%d of %d bytes intact)", s.path, valid, fi.Size())
			}
			l.sealed = append(l.sealed, segment{path: s.path, first: s.first, last: last})
		} else {
			// Final segment: a torn or corrupt tail is the expected crash
			// artifact — truncate to the last intact frame and append there.
			if err := f.Truncate(valid); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: truncate %s: %w", s.path, err)
			}
			if _, err := f.Seek(valid, io.SeekStart); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: seek %s: %w", s.path, err)
			}
			l.f = f
			l.size = valid
			l.activeFirst = s.first
		}
		l.records += n
		expected = last + 1
	}
	l.nextSeq = expected
	l.lastFlushed = expected - 1
	return l, nil
}

// listSegments returns the well-formed segment files of dir in ascending
// first-sequence order.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir %s: %w", dir, err)
	}
	var segs []segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		first, ok := parseSegName(e.Name())
		if !ok {
			continue
		}
		segs = append(segs, segment{path: filepath.Join(dir, e.Name()), first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// replaySegment scans one segment from the start, invoking cb for each
// intact frame whose sequence number continues the dense record sequence,
// and returns the byte offset of the first invalid byte, the last valid
// sequence number seen (expected-1 when the segment is empty) and the
// number of records replayed. The only error it returns is a callback
// error; corruption just stops the scan.
func replaySegment(f *os.File, expected uint64, cb func(uint64, []byte) error) (valid int64, last uint64, n int64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, 0, fmt.Errorf("wal: seek %s: %w", f.Name(), err)
	}
	r := bufio.NewReader(f)
	var (
		offset int64
		hdr    [headerSize]byte
		seq    = expected
	)
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return offset, seq - 1, n, nil // clean EOF or torn header: stop here
		}
		if binary.LittleEndian.Uint32(hdr[0:4]) != magic {
			return offset, seq - 1, n, nil
		}
		length := binary.LittleEndian.Uint32(hdr[4:8])
		if length > MaxRecordSize {
			return offset, seq - 1, n, nil
		}
		if binary.LittleEndian.Uint64(hdr[12:20]) != seq {
			return offset, seq - 1, n, nil // sequence break: corruption
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return offset, seq - 1, n, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[8:12]) {
			return offset, seq - 1, n, nil // corrupt payload
		}
		if cb != nil {
			if err := cb(seq, payload); err != nil {
				return 0, 0, 0, fmt.Errorf("wal: replay callback: %w", err)
			}
		}
		n++
		seq++
		offset += headerSize + int64(length)
	}
}

// openActive creates the segment whose first record will have sequence
// number first and makes it the append target. Caller holds l.mu (or is
// Open, before the log is shared).
func (l *Log) openActive(first uint64) error {
	path := filepath.Join(l.dir, segName(first))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment %s: %w", path, err)
	}
	l.f = f
	l.size = 0
	l.activeFirst = first
	return syncDir(l.dir)
}

// rotate seals the active segment and starts a fresh one. Caller holds
// l.mu and guarantees the active segment's content is synced (it is —
// rotation only runs right after a successful commit or on an idle log).
func (l *Log) rotate() error {
	if l.lastFlushed < l.activeFirst {
		return nil // active segment holds no records yet
	}
	old := l.f
	l.sealed = append(l.sealed, segment{
		path:  filepath.Join(l.dir, segName(l.activeFirst)),
		first: l.activeFirst,
		last:  l.lastFlushed,
	})
	if err := old.Close(); err != nil {
		return fmt.Errorf("wal: close sealed segment: %w", err)
	}
	return l.openActive(l.lastFlushed + 1)
}

// TruncateBefore reclaims every segment all of whose records have
// sequence numbers < seq — the store calls it after a checkpoint so the
// log only retains the tail a restart still needs to replay. When the
// active segment is idle and also entirely below seq it is sealed first,
// so a fresh checkpoint shrinks the log to a single empty segment. It
// returns the number of segment files removed.
func (l *Log) TruncateBefore(seq uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.failed != nil {
		return 0, l.failed
	}
	// Seal an idle active segment whose records are all reclaimable, so
	// they can be deleted below instead of lingering until size rotation.
	if !l.committing && len(l.pending) == 0 &&
		l.lastFlushed >= l.activeFirst && l.lastFlushed < seq {
		if err := l.rotate(); err != nil {
			l.failed = err
			return 0, err
		}
	}
	removed := 0
	kept := l.sealed[:0]
	var firstErr error
	for _, s := range l.sealed {
		if s.last < seq && firstErr == nil {
			if err := os.Remove(s.path); err != nil {
				firstErr = fmt.Errorf("wal: remove segment %s: %w", s.path, err)
				kept = append(kept, s)
				continue
			}
			removed++
			continue
		}
		kept = append(kept, s)
	}
	l.sealed = kept
	if removed > 0 {
		if err := syncDir(l.dir); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return removed, firstErr
}

// Append frames one record and returns its sequence number once it is
// written and synced — Enqueue followed by Commit.
func (l *Log) Append(payload []byte) (uint64, error) {
	seq, err := l.Enqueue(payload)
	if err != nil {
		return 0, err
	}
	return seq, l.Commit(seq)
}

// Enqueue assigns the record the next sequence number and frames a copy
// of it into the log's pending buffer, which fixes its position in the
// log order. It never blocks on I/O, so callers may enqueue while
// holding their own locks (the store does, per shard, to pin log order
// to apply order) and Commit outside them. An enqueued record becomes
// durable at the next commit round even if the caller delays Commit.
func (l *Log) Enqueue(payload []byte) (uint64, error) {
	if len(payload) > MaxRecordSize {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds max %d", len(payload), MaxRecordSize)
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(payload))
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.failed != nil {
		return 0, l.failed
	}
	seq := l.nextSeq
	l.nextSeq++
	binary.LittleEndian.PutUint64(hdr[12:20], seq)
	l.pending = append(l.pending, hdr[:]...)
	l.pending = append(l.pending, payload...)
	return seq, nil
}

// Commit blocks until the record with sequence number seq is on stable
// storage, or returns the log's sticky failure if the round that covered
// it (or an earlier one) failed: rounds commit in sequence order, so a
// record past lastFlushed on a failed log can never become durable. If
// another appender is mid-commit the record rides the next round;
// otherwise this caller becomes the commit leader, writes the whole
// pending buffer — one write, one fsync — and hands leadership to
// whoever enqueued behind it, so no leader ever services an unbounded
// stream of other goroutines' records.
func (l *Log) Commit(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.lastFlushed >= seq {
			return nil
		}
		if l.failed != nil {
			return l.failed
		}
		if !l.committing {
			break
		}
		l.idle.Wait()
	}
	if l.closed {
		// Close drains the pending buffer, so an unflushed record here
		// means the log was closed and its final round already ran
		// without it — only possible for a seq the log never assigned.
		// Defensive: report closed.
		return ErrClosed
	}
	// Become leader for exactly the current round (which contains seq).
	l.flushRound()
	if l.lastFlushed >= seq {
		return nil
	}
	return l.failed
}

// flushRound commits the whole pending buffer as one round: one write,
// one fsync, then a size-triggered rotation if the active segment is
// full. Caller holds l.mu with committing false and a non-empty pending
// buffer; it returns still holding l.mu.
func (l *Log) flushRound() {
	// A previous round failed mid-write: the tail of the active segment is
	// in an unknown state, so writing new frames after the torn bytes
	// would acknowledge records a replay can never reach. Fail the whole
	// round without touching the file.
	if l.failed != nil {
		l.pending = l.pending[:0]
		return
	}
	l.committing = true
	buf, last := l.pending, l.nextSeq-1
	l.pending, l.spare = l.spare[:0], nil
	l.mu.Unlock()
	err := l.commit(buf)
	l.mu.Lock()
	if err == nil {
		l.records += int64(last - l.lastFlushed)
		l.syncs++
		l.lastFlushed = last
		l.size += int64(len(buf))
		if l.size >= l.segBytes {
			if rerr := l.rotate(); rerr != nil {
				l.failed = rerr
			}
		}
	} else {
		// A failed write leaves the tail of the active segment in an
		// unknown state; poison the log rather than risk writing later
		// sequence numbers after a gap.
		l.failed = err
	}
	if cap(buf) <= maxSpareBytes {
		l.spare = buf[:0]
	}
	l.committing = false
	l.idle.Broadcast()
}

// commit writes a round's frames and fsyncs once. Called by the commit
// leader only, without holding l.mu — enqueuing is what needs the lock,
// not the file I/O.
func (l *Log) commit(buf []byte) error {
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("wal: write batch: %w", err)
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.fsync.RecordSince(start)
	return nil
}

// Records returns the number of records appended plus replayed.
func (l *Log) Records() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Syncs returns the number of fsyncs commits have issued; with concurrent
// appenders it lags Records by the group-commit batching factor.
func (l *Log) Syncs() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

// FsyncLatency exposes the histogram of commit fsync durations. With
// group commit one fsync covers a whole batch, so this is the latency
// floor shared by every write acknowledged in that round.
func (l *Log) FsyncLatency() *telemetry.Histogram { return l.fsync }

// LastSeq returns the highest sequence number the log has assigned (0 on
// a fresh log). It counts records enqueued but not yet flushed, so it can
// run ahead of what the log durably holds; checkpoints anchor at
// LastFlushed instead.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// LastFlushed returns the sequence number of the last record durably
// written to stable storage (0 on a fresh log; after Open, the last
// replayed record). It never exceeds LastSeq — enqueued records whose
// commit round has not fsynced yet are excluded — which makes it the safe
// checkpoint anchor: every flushed record was enqueued (and, for callers
// that enqueue under their own state lock, applied), and a snapshot at
// LastFlushed can never claim a sequence number the on-disk log lacks.
func (l *Log) LastFlushed() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastFlushed
}

// FirstSeq returns the sequence number of the first record the log
// retains (the name of its oldest segment). Anything below it has been
// reclaimed by TruncateBefore and must be covered by a snapshot; restore
// paths compare the two to detect an unrecoverable gap.
func (l *Log) FirstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.sealed) > 0 {
		return l.sealed[0].first
	}
	return l.activeFirst
}

// Flush blocks until every record enqueued before the call is durable,
// returning the log's sticky failure if any covering commit round failed.
// The store's checkpoint drains the pending records with it after
// copying shard state: once Flush returns nil, every record the copies
// can contain is on stable storage, so nothing in a snapshot can belong
// to a write whose caller saw an error.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	target := l.nextSeq - 1
	for l.lastFlushed < target {
		if l.failed != nil {
			return l.failed
		}
		if !l.committing {
			if len(l.pending) == 0 {
				// Every assigned seq was covered by a finished round; the
				// only way lastFlushed can still lag is a failed round.
				return l.failed
			}
			l.flushRound()
			continue
		}
		l.idle.Wait()
	}
	return nil
}

// Err returns the log's sticky failure, if any: once a commit round
// fails, the tail of the active segment is in an unknown state and the
// log refuses all further work. Callers that applied state optimistically
// before a failed commit (the store does, under its shard locks) must not
// make that state durable elsewhere — the store refuses to checkpoint a
// failed log.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Segments returns the number of segment files, including the active one.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sealed) + 1
}

// Close syncs and closes the active segment. Further appends fail with
// ErrClosed. A commit in flight finishes first and enqueued-but-
// uncommitted records are drained with a final round, so Enqueue's
// durability promise holds across a close.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	for l.committing {
		l.idle.Wait()
	}
	if len(l.pending) > 0 {
		l.flushRound()
	}
	l.mu.Unlock()
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// syncDir fsyncs a directory so segment creations and removals survive a
// crash.
func syncDir(dir string) error {
	if err := fsutil.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
