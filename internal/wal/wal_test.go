package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

// rec is one replayed record.
type rec struct {
	seq     uint64
	payload []byte
}

func openCollect(t *testing.T, dir string) (*Log, []rec) {
	t.Helper()
	l, got, err := openCollectErr(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, got
}

func openCollectErr(dir string, o Options) (*Log, []rec, error) {
	var got []rec
	l, err := OpenOptions(dir, o, func(seq uint64, p []byte) error {
		got = append(got, rec{seq, append([]byte(nil), p...)})
		return nil
	})
	return l, got, err
}

// segFiles returns the segment file paths of dir, sorted.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(matches)
	return matches
}

// finalSegment returns the highest-named (active) segment file of dir.
func finalSegment(t *testing.T, dir string) string {
	t.Helper()
	files := segFiles(t, dir)
	if len(files) == 0 {
		t.Fatal("no segment files")
	}
	return files[len(files)-1]
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, got := openCollect(t, dir)
	if len(got) != 0 {
		t.Fatal("fresh log replayed records")
	}
	records := [][]byte{[]byte("one"), []byte("two"), {}, []byte("four4")}
	for i, r := range records {
		seq, err := l.Append(r)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if seq != uint64(i+1) {
			t.Errorf("Append seq = %d, want %d", seq, i+1)
		}
	}
	if l.Records() != 4 {
		t.Errorf("Records = %d", l.Records())
	}
	if l.LastSeq() != 4 {
		t.Errorf("LastSeq = %d", l.LastSeq())
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, got := openCollect(t, dir)
	defer l2.Close()
	if len(got) != len(records) {
		t.Fatalf("replayed %d records, want %d", len(got), len(records))
	}
	for i := range records {
		if !bytes.Equal(got[i].payload, records[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i].payload, records[i])
		}
		if got[i].seq != uint64(i+1) {
			t.Errorf("record %d seq = %d, want %d", i, got[i].seq, i+1)
		}
	}
	if l2.Records() != 4 {
		t.Errorf("Records after replay = %d", l2.Records())
	}
	if l2.LastSeq() != 4 {
		t.Errorf("LastSeq after replay = %d", l2.LastSeq())
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, _ := openCollect(t, dir)
	if _, err := l.Append([]byte("intact")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("will-be-torn")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Tear the last record by chopping bytes off the end of the segment.
	seg := finalSegment(t, dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	l2, got := openCollect(t, dir)
	if len(got) != 1 || string(got[0].payload) != "intact" {
		t.Fatalf("replayed %v, want just [intact]", got)
	}
	// The log must now be appendable and the torn record gone for good;
	// its sequence number is reused by the next append.
	if seq, err := l2.Append([]byte("after-recovery")); err != nil || seq != 2 {
		t.Fatalf("Append after recovery: seq %d, %v", seq, err)
	}
	l2.Close()

	l3, got := openCollect(t, dir)
	defer l3.Close()
	if len(got) != 2 || string(got[1].payload) != "after-recovery" || got[1].seq != 2 {
		t.Fatalf("after recovery replayed %q", got)
	}
}

func TestCorruptPayloadTruncated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, _ := openCollect(t, dir)
	if _, err := l.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("bad-payload")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Flip a byte inside the second record's payload.
	seg := finalSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, got := openCollect(t, dir)
	defer l2.Close()
	if len(got) != 1 || string(got[0].payload) != "good" {
		t.Fatalf("replayed %q, want [good]", got)
	}
}

func TestGarbageSegmentReplaysNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte("this is not a wal segment at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, got := openCollect(t, dir)
	defer l.Close()
	if len(got) != 0 {
		t.Fatalf("garbage replayed %d records", len(got))
	}
	if _, err := l.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, _ := openCollect(t, dir)
	defer l.Close()
	big := make([]byte, MaxRecordSize+1)
	if _, err := l.Append(big); err == nil {
		t.Error("oversize append accepted")
	}
}

func TestClosedLog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, _ := openCollect(t, dir)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if _, err := l.Append([]byte("x")); err != ErrClosed {
		t.Errorf("append after close: %v, want ErrClosed", err)
	}
	if _, err := l.TruncateBefore(1); err != ErrClosed {
		t.Errorf("truncate after close: %v, want ErrClosed", err)
	}
}

func TestReplayCallbackError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, _ := openCollect(t, dir)
	l.Append([]byte("x"))
	l.Close()
	_, err := Open(dir, func(uint64, []byte) error { return fmt.Errorf("boom") })
	if err == nil {
		t.Fatal("replay error not propagated")
	}
}

func TestConcurrentAppends(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, _ := openCollect(t, dir)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if _, err := l.Append([]byte(fmt.Sprintf("g%d-%d", n, j))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	l.Close()
	l2, got := openCollect(t, dir)
	defer l2.Close()
	if len(got) != 200 {
		t.Fatalf("replayed %d records, want 200", len(got))
	}
	// Sequence numbers are dense and ordered on disk.
	for i, r := range got {
		if r.seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.seq)
		}
	}
}

// TestGroupCommitDurabilityAndOrder drives many concurrent appenders and
// checks the group-commit invariants: every acknowledged record survives
// replay, each goroutine's records appear in its append order (an append
// returns only after its record is durable), and the log never issued
// more fsyncs than records.
func TestGroupCommitDurabilityAndOrder(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, _ := openCollect(t, dir)
	const goroutines, perG = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				if _, err := l.Append([]byte(fmt.Sprintf("g%d-%d", g, j))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if l.Records() != goroutines*perG {
		t.Errorf("Records = %d, want %d", l.Records(), goroutines*perG)
	}
	if s := l.Syncs(); s < 1 || s > l.Records() {
		t.Errorf("Syncs = %d outside [1, %d]", s, l.Records())
	}
	l.Close()

	l2, got := openCollect(t, dir)
	defer l2.Close()
	if len(got) != goroutines*perG {
		t.Fatalf("replayed %d records, want %d", len(got), goroutines*perG)
	}
	next := make([]int, goroutines)
	for _, r := range got {
		var g, j int
		if _, err := fmt.Sscanf(string(r.payload), "g%d-%d", &g, &j); err != nil {
			t.Fatalf("unparseable record %q", r.payload)
		}
		if j != next[g] {
			t.Fatalf("goroutine %d records out of order: got %d, want %d", g, j, next[g])
		}
		next[g]++
	}
}

func TestCloseDrainsEnqueuedRecords(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, _ := openCollect(t, dir)
	if _, err := l.Enqueue([]byte("parked")); err != nil {
		t.Fatal(err)
	}
	// Close before anyone Commits: the record must still be flushed.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got := openCollect(t, dir)
	defer l2.Close()
	if len(got) != 1 || string(got[0].payload) != "parked" {
		t.Fatalf("replayed %q, want [parked]", got)
	}
}

// TestSegmentRotation appends past the segment threshold and checks the
// log rolls to new segment files while replay still sees one continuous
// record sequence.
func TestSegmentRotation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, _, err := openCollectErr(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if s := l.Segments(); s < 3 {
		t.Fatalf("Segments = %d, want several after %d appends past a 256B threshold", s, n)
	}
	l.Close()
	if files := segFiles(t, dir); len(files) < 3 {
		t.Fatalf("found %d segment files on disk", len(files))
	}

	l2, got, err := openCollectErr(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(got), n)
	}
	for i, r := range got {
		if r.seq != uint64(i+1) || string(r.payload) != fmt.Sprintf("record-%02d", i) {
			t.Fatalf("record %d = seq %d %q", i, r.seq, r.payload)
		}
	}
	// Appends continue the sequence after a cross-segment replay.
	if seq, err := l2.Append([]byte("tail")); err != nil || seq != n+1 {
		t.Fatalf("Append after replay: seq %d, %v", seq, err)
	}
}

// TestTruncateBefore checkpoints away the history: segments wholly below
// the cutoff disappear, replay starts at the tail, and sequence numbers
// keep counting from where they were.
func TestTruncateBefore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, _, err := openCollectErr(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("r%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Segments()
	removed, err := l.TruncateBefore(21)
	if err != nil {
		t.Fatalf("TruncateBefore: %v", err)
	}
	if removed == 0 || l.Segments() >= before {
		t.Fatalf("TruncateBefore removed %d segments (%d -> %d)", removed, before, l.Segments())
	}
	// Records >= 21 must survive.
	l.Close()
	l2, got, err := openCollectErr(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) == 0 || got[0].seq > 21 {
		t.Fatalf("first surviving record has seq %v, want <= 21 intact", got)
	}
	last := got[len(got)-1]
	if last.seq != n || string(last.payload) != fmt.Sprintf("r%02d", n-1) {
		t.Fatalf("last record = seq %d %q", last.seq, last.payload)
	}
	if seq, err := l2.Append([]byte("next")); err != nil || seq != n+1 {
		t.Fatalf("Append after truncate+reopen: seq %d, %v", seq, err)
	}
}

// TestTruncateBeforeSealsIdleActive reclaims everything: an idle active
// segment below the cutoff is sealed and deleted too, so a checkpoint of
// a quiet log shrinks it to one empty segment.
func TestTruncateBeforeSealsIdleActive(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, _ := openCollect(t, dir)
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.TruncateBefore(11); err != nil {
		t.Fatal(err)
	}
	if s := l.Segments(); s != 1 {
		t.Fatalf("Segments after full truncation = %d, want 1", s)
	}
	fi, err := os.Stat(finalSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("active segment holds %d bytes after full truncation", fi.Size())
	}
	l.Close()

	// Sequence numbering survives the truncation across a reopen.
	l2, got := openCollect(t, dir)
	defer l2.Close()
	if len(got) != 0 {
		t.Fatalf("replayed %d records after full truncation", len(got))
	}
	if seq, err := l2.Append([]byte("x")); err != nil || seq != 11 {
		t.Fatalf("Append after full truncation: seq %d, %v", seq, err)
	}
}

// TestCrashInjection is the torn-write sweep: a crash can cut the final
// segment at any byte. For every cut point the log must reopen, replay a
// strict prefix of the appended records, and accept new appends.
func TestCrashInjection(t *testing.T) {
	master := filepath.Join(t.TempDir(), "master")
	l, _ := openCollect(t, master)
	const n = 6
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("crash-record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	seg := finalSegment(t, master)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("cut-%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, got, err := openCollectErr(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		// The replayed records must be a strict prefix: record i intact
		// with seq i+1, nothing out of order, nothing invented.
		for i, r := range got {
			if r.seq != uint64(i+1) || string(r.payload) != fmt.Sprintf("crash-record-%d", i) {
				t.Fatalf("cut %d: record %d = seq %d %q", cut, i, r.seq, r.payload)
			}
		}
		if len(got) > n {
			t.Fatalf("cut %d: replayed %d records from %d appended", cut, len(got), n)
		}
		// And the log is live again: the next append takes the seq right
		// after the surviving prefix.
		seq, err := l2.Append([]byte("post-crash"))
		if err != nil || seq != uint64(len(got)+1) {
			t.Fatalf("cut %d: post-crash append seq %d err %v, want seq %d", cut, seq, err, len(got)+1)
		}
		l2.Close()
	}
}

// TestSealedSegmentCorruptionRefusesBoot: corruption in a non-final
// segment is not a crash artifact; silently truncating there would drop
// every later record, so Open must fail loudly instead.
func TestSealedSegmentCorruptionRefusesBoot(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, _, err := openCollectErr(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("r%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 2 {
		t.Fatal("test needs at least one sealed segment")
	}
	l.Close()

	files := segFiles(t, dir)
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openCollectErr(dir, Options{}); err == nil {
		t.Fatal("Open accepted a corrupt sealed segment mid-log")
	}
}

// TestSegmentGapRefusesBoot: a missing middle segment means lost records;
// Open must fail rather than replay around the hole.
func TestSegmentGapRefusesBoot(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, _, err := openCollectErr(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("r%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 3 {
		t.Fatal("test needs at least three segments")
	}
	l.Close()
	files := segFiles(t, dir)
	if err := os.Remove(files[1]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openCollectErr(dir, Options{}); err == nil {
		t.Fatal("Open accepted a log with a missing middle segment")
	}
}

func BenchmarkAppend1KB(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "wal")
	l, err := Open(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 1024)
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStrayLegacyFileKeepsLog: a file named <dir>.legacy beside a live
// log directory is not the log's business. Open must replay every record
// of the directory and leave the stray file alone.
func TestStrayLegacyFileKeepsLog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "node.wal")
	l, _ := openCollect(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("live-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+".legacy", []byte("stray"), 0o644); err != nil {
		t.Fatal(err)
	}

	l2, got := openCollect(t, dir)
	defer l2.Close()
	if len(got) != 3 {
		t.Fatalf("replayed %d records beside a stray .legacy file, want 3", len(got))
	}
	for i, r := range got {
		if r.seq != uint64(i+1) || string(r.payload) != fmt.Sprintf("live-%d", i) {
			t.Fatalf("record %d = seq %d %q", i, r.seq, r.payload)
		}
	}
	if data, err := os.ReadFile(dir + ".legacy"); err != nil || string(data) != "stray" {
		t.Fatalf("stray file touched: %q, %v", data, err)
	}
}

// TestFailedLogRefusesLaterRounds: once a commit round fails, records
// enqueued during that round must NOT be written after the torn bytes and
// acknowledged — the failure is sticky for every later round.
func TestFailedLogRefusesLaterRounds(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, _ := openCollect(t, dir)
	defer l.Close()
	// A record parked before the failure is injected.
	parked, err := l.Enqueue([]byte("parked-during-failure"))
	if err != nil {
		t.Fatal(err)
	}
	bad := fmt.Errorf("simulated torn write")
	l.mu.Lock()
	l.failed = bad
	l.mu.Unlock()

	if err := l.Err(); err != bad {
		t.Fatalf("Err on a failed log = %v, want the sticky failure", err)
	}
	if err := l.Commit(parked); err != bad {
		t.Fatalf("Commit on a failed log = %v, want the sticky failure", err)
	}
	if _, err := l.Enqueue([]byte("after-failure")); err != bad {
		t.Fatalf("Enqueue on a failed log = %v, want the sticky failure", err)
	}
	// Nothing may have reached the file.
	fi, err := os.Stat(finalSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("failed log wrote %d bytes to the active segment", fi.Size())
	}
}

// TestLastFlushedExcludesEnqueued: LastFlushed tracks only records whose
// fsync round has run, while LastSeq runs ahead with every Enqueue — the
// distinction the store's checkpoint anchor relies on, so a snapshot can
// never claim a sequence number the on-disk log lacks.
func TestLastFlushedExcludesEnqueued(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, _ := openCollect(t, dir)
	if _, err := l.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if l.LastFlushed() != 1 || l.LastSeq() != 1 {
		t.Fatalf("after append: LastFlushed %d, LastSeq %d, want 1, 1", l.LastFlushed(), l.LastSeq())
	}
	tkt, err := l.Enqueue([]byte("pending"))
	if err != nil {
		t.Fatal(err)
	}
	if l.LastSeq() != 2 {
		t.Fatalf("LastSeq after enqueue = %d, want 2", l.LastSeq())
	}
	if l.LastFlushed() != 1 {
		t.Fatalf("LastFlushed counts an unflushed enqueued record: %d, want 1", l.LastFlushed())
	}
	if err := l.Commit(tkt); err != nil {
		t.Fatal(err)
	}
	if l.LastFlushed() != 2 {
		t.Fatalf("LastFlushed after commit = %d, want 2", l.LastFlushed())
	}
	l.Close()

	// Replay restores LastFlushed alongside LastSeq.
	l2, _ := openCollect(t, dir)
	defer l2.Close()
	if l2.LastFlushed() != 2 {
		t.Fatalf("LastFlushed after reopen = %d, want 2", l2.LastFlushed())
	}
}

// TestFlushDrainsEnqueued: Flush makes every enqueued record durable
// without its Commit being called — the store's checkpoint uses this to
// guarantee nothing captured in its shard copies is still queued (and so
// could still fail) when the snapshot is written.
func TestFlushDrainsEnqueued(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, _ := openCollect(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := l.Enqueue([]byte(fmt.Sprintf("queued-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if l.LastFlushed() != 0 {
		t.Fatalf("LastFlushed before Flush = %d", l.LastFlushed())
	}
	if err := l.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if l.LastFlushed() != 3 {
		t.Fatalf("LastFlushed after Flush = %d, want 3", l.LastFlushed())
	}
	if err := l.Flush(); err != nil { // idle log: no-op
		t.Fatalf("Flush on idle log: %v", err)
	}
	l.Close()
	l2, got := openCollect(t, dir)
	defer l2.Close()
	if len(got) != 3 {
		t.Fatalf("replayed %d records after Flush, want 3", len(got))
	}
}
