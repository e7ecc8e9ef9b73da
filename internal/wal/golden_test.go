package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// goldenPayload is the i-th record of the golden logs: lengths 0 to 37,
// contents that differ per record so a swapped frame shows.
func goldenPayload(i int) []byte {
	p := make([]byte, (i*7)%38)
	for j := range p {
		p[j] = byte(i*31 + j)
	}
	return p
}

// goldenLogs write the logs whose segment files testdata/segments pins:
// single Appends, one group-commit round of Enqueues, and Appends that
// rotate through several segments.
var goldenLogs = []struct {
	name     string
	segBytes int64
	write    func(*Log) error
}{
	{"append", 0, func(l *Log) error {
		for i := 0; i < 5; i++ {
			if _, err := l.Append(goldenPayload(i)); err != nil {
				return err
			}
		}
		return nil
	}},
	{"batch", 0, func(l *Log) error {
		var last uint64
		for i := 0; i < 6; i++ {
			seq, err := l.Enqueue(goldenPayload(i))
			if err != nil {
				return err
			}
			last = seq
		}
		return l.Commit(last)
	}},
	{"rotate", 96, func(l *Log) error {
		for i := 0; i < 12; i++ {
			if _, err := l.Append(goldenPayload(i)); err != nil {
				return err
			}
		}
		return nil
	}},
}

// writeGoldenLog writes one golden log into dir and closes it.
func writeGoldenLog(dir string, segBytes int64, write func(*Log) error) error {
	l, err := OpenOptions(dir, Options{SegmentBytes: segBytes}, nil)
	if err != nil {
		return err
	}
	if err := write(l); err != nil {
		l.Close()
		return err
	}
	return l.Close()
}

// TestGoldenSegments: every golden log writes exactly the segment files,
// names and bytes, that earlier releases wrote. A change to the frame
// layout, the sequence numbering or the rotation point fails here.
func TestGoldenSegments(t *testing.T) {
	for _, g := range goldenLogs {
		dir := filepath.Join(t.TempDir(), g.name)
		if err := writeGoldenLog(dir, g.segBytes, g.write); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		want, err := filepath.Glob(filepath.Join("testdata", "segments", g.name, "seg-*.wal"))
		if err != nil {
			t.Fatal(err)
		}
		got := segFiles(t, dir)
		if len(got) != len(want) || len(want) == 0 {
			t.Fatalf("%s: %d segment files, golden has %d", g.name, len(got), len(want))
		}
		for i := range want {
			if filepath.Base(got[i]) != filepath.Base(want[i]) {
				t.Errorf("%s: segment %d named %s, golden %s", g.name, i, filepath.Base(got[i]), filepath.Base(want[i]))
			}
			gb, err := os.ReadFile(got[i])
			if err != nil {
				t.Fatal(err)
			}
			wb, err := os.ReadFile(want[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb, wb) {
				t.Errorf("%s: %s is %x, golden %x", g.name, filepath.Base(want[i]), gb, wb)
			}
		}
	}
}

// TestEnqueueDuringRound: appenders keep enqueuing while commit rounds
// write, some committing their own records and some leaving them to a
// later round. Every record must replay once, in sequence order, with
// the bytes its appender gave it. Run it under -race with -count=20.
func TestEnqueueDuringRound(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, err := OpenOptions(dir, Options{SegmentBytes: 4 << 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 6, 150
	var (
		mu   sync.Mutex
		sent = make(map[uint64][]byte)
		wg   sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				p := []byte(fmt.Sprintf("w%d-r%d-%s", w, i, bytes.Repeat([]byte{'x'}, rng.Intn(300))))
				seq, err := l.Enqueue(p)
				if err != nil {
					t.Error(err)
					return
				}
				p[0] = '!' // the log owns a copy, not the caller's slice
				mu.Lock()
				sent[seq] = append([]byte{'w'}, p[1:]...)
				mu.Unlock()
				if rng.Intn(3) > 0 {
					if err := l.Commit(seq); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got := openCollect(t, dir)
	defer l2.Close()
	if len(got) != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", len(got), writers*perWriter)
	}
	for i, r := range got {
		if r.seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.seq)
		}
		if !bytes.Equal(r.payload, sent[r.seq]) {
			t.Fatalf("seq %d replayed %q, enqueued %q", r.seq, r.payload, sent[r.seq])
		}
	}
}
