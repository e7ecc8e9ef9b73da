package store

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"skute/internal/merkle"
	"skute/internal/snapshot"
	"skute/internal/vclock"
	"skute/internal/wal"
)

// dirs returns fresh wal and snapshot directories for one durable engine.
func dirs(t testing.TB) (walDir, snapDir string) {
	t.Helper()
	base := t.TempDir()
	return filepath.Join(base, "wal"), filepath.Join(base, "snaps")
}

// fingerprint captures everything a restore must reproduce.
func fingerprint(e *Engine) (root merkle.Digest, bytes int64, keys int) {
	return merkle.Build(e.MerkleLeaves(nil)).Root(), e.Bytes(), e.Len()
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	walDir, snapDir := dirs(t)
	opts := Options{WAL: wal.Options{SegmentBytes: 512}}
	e, err := RestoreOptions(walDir, snapDir, opts)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("k%d", i%10) // overwrites: history > live data
		if _, err := e.Put(k, ver(fmt.Sprintf("v%d", i), vclock.VC{"n": uint64(i + 1)})); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Drop("k9"); err != nil {
		t.Fatal(err)
	}
	seq1, err := e.Checkpoint(snapDir)
	if err != nil {
		t.Fatalf("first Checkpoint: %v", err)
	}
	if seq1 == 0 {
		t.Fatal("checkpoint covered seq 0")
	}

	// Tail writes after the first checkpoint, then a second checkpoint,
	// then more tail — the realistic steady state.
	for i := 30; i < 40; i++ {
		e.Put(fmt.Sprintf("k%d", i%10), ver(fmt.Sprintf("v%d", i), vclock.VC{"n": uint64(i + 1)}))
	}
	seq2, err := e.Checkpoint(snapDir)
	if err != nil {
		t.Fatalf("second Checkpoint: %v", err)
	}
	if seq2 <= seq1 {
		t.Fatalf("checkpoint seqs not increasing: %d then %d", seq1, seq2)
	}
	e.Put("tail-key", ver("tail", vclock.VC{"t": 1}))

	root, liveBytes, liveKeys := fingerprint(e)
	d := e.Durability()
	if d.Checkpoints != 2 || d.LastCheckpointSeq != seq2 {
		t.Errorf("Durability = %+v", d)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := RestoreOptions(walDir, snapDir, opts)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer r.Close()
	rRoot, rBytes, rKeys := fingerprint(r)
	if rRoot != root || rBytes != liveBytes || rKeys != liveKeys {
		t.Fatalf("restored (%x, %d bytes, %d keys) != live (%x, %d, %d)",
			rRoot, rBytes, rKeys, root, liveBytes, liveKeys)
	}
	rd := r.Durability()
	if rd.SnapshotSeq != seq2 {
		t.Errorf("restored from snapshot seq %d, want %d", rd.SnapshotSeq, seq2)
	}
	if rd.TailRecords != 1 {
		t.Errorf("replayed %d tail records, want 1 (the post-checkpoint put)", rd.TailRecords)
	}
	// The WAL is retained back to the OLDER snapshot generation, so the
	// records between the two checkpoints are scanned but skipped.
	if rd.TailSkipped == 0 {
		t.Error("expected skipped records (WAL retained to the older snapshot)")
	}
}

func TestRestoreFallsBackToOlderSnapshot(t *testing.T) {
	walDir, snapDir := dirs(t)
	opts := Options{WAL: wal.Options{SegmentBytes: 256}}
	e, err := RestoreOptions(walDir, snapDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		e.Put(fmt.Sprintf("k%d", i), ver("v1", vclock.VC{"n": uint64(i + 1)}))
	}
	if _, err := e.Checkpoint(snapDir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		e.Put(fmt.Sprintf("k%d", i), ver("v2", vclock.VC{"n": uint64(100 + i)}))
	}
	seq2, err := e.Checkpoint(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	e.Put("post", ver("p", vclock.VC{"p": 1}))
	root, liveBytes, liveKeys := fingerprint(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest snapshot: restore must fall back to the older
	// generation and recover the difference from the retained WAL tail.
	newest := filepath.Join(snapDir, fmt.Sprintf("snap-%020d.skt", seq2))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := RestoreOptions(walDir, snapDir, opts)
	if err != nil {
		t.Fatalf("Restore with corrupt newest snapshot: %v", err)
	}
	defer r.Close()
	rRoot, rBytes, rKeys := fingerprint(r)
	if rRoot != root || rBytes != liveBytes || rKeys != liveKeys {
		t.Fatal("fallback restore diverged from pre-crash state")
	}
	if rd := r.Durability(); rd.SnapshotSeq >= seq2 {
		t.Errorf("restored from snapshot seq %d, want the older generation", rd.SnapshotSeq)
	}
}

func TestRestoreRefusesGappedLog(t *testing.T) {
	walDir, snapDir := dirs(t)
	e, err := Restore(walDir, snapDir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		e.Put(fmt.Sprintf("k%d", i), ver("v", vclock.VC{"n": uint64(i + 1)}))
	}
	if _, err := e.Checkpoint(snapDir); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Lose every snapshot: the WAL alone no longer reaches back to seq 1.
	if err := os.RemoveAll(snapDir); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(walDir, snapDir); err == nil {
		t.Fatal("Restore booted from a truncated WAL with no snapshot")
	}
}

// TestRestoreRefusesWALBehindSnapshot: a wiped or mismatched WAL
// directory sits behind the snapshot's sequence number. Booting would
// re-issue sequence numbers the snapshot already covers, and the NEXT
// restart would then skip those acknowledged writes as "already in the
// snapshot" — silent data loss. Restore must refuse instead.
func TestRestoreRefusesWALBehindSnapshot(t *testing.T) {
	walDir, snapDir := dirs(t)
	e, err := Restore(walDir, snapDir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		e.Put(fmt.Sprintf("k%d", i), ver("v", vclock.VC{"n": uint64(i + 1)}))
	}
	if _, err := e.Checkpoint(snapDir); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Lose the WAL volume: the snapshot survives, the log restarts at 1.
	if err := os.RemoveAll(walDir); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(walDir, snapDir); err == nil {
		t.Fatal("Restore booted with a WAL behind the snapshot (seq reuse)")
	}
}

// TestKillAndRestart simulates a crash (no Close): every acknowledged
// write must survive through snapshot + tail replay, checksums verified
// along both paths.
func TestKillAndRestart(t *testing.T) {
	walDir, snapDir := dirs(t)
	opts := Options{WAL: wal.Options{SegmentBytes: 512}}
	e, err := RestoreOptions(walDir, snapDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := e.Put(fmt.Sprintf("k%d", i%8), ver(fmt.Sprintf("v%d", i), vclock.VC{"n": uint64(i + 1)})); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Checkpoint(snapDir); err != nil {
		t.Fatal(err)
	}
	for i := 25; i < 32; i++ {
		if _, err := e.Put(fmt.Sprintf("k%d", i%8), ver(fmt.Sprintf("v%d", i), vclock.VC{"n": uint64(i + 1)})); err != nil {
			t.Fatal(err)
		}
	}
	root, liveBytes, liveKeys := fingerprint(e)
	// Crash: no Close, no final flush. Every Put above was acknowledged,
	// so group commit has already fsynced it.

	r, err := RestoreOptions(walDir, snapDir, opts)
	if err != nil {
		t.Fatalf("Restore after kill: %v", err)
	}
	defer r.Close()
	rRoot, rBytes, rKeys := fingerprint(r)
	if rRoot != root || rBytes != liveBytes || rKeys != liveKeys {
		t.Fatal("state lost across kill-and-restart")
	}
	if rd := r.Durability(); rd.SnapshotSeq == 0 {
		t.Error("restart did not use the snapshot")
	}
}

// TestCheckpointUnderConcurrentWrites is the race test of the
// checkpoint's copy-on-read design: writers keep mutating every shard
// while checkpoints run; afterwards a restore must reproduce the final
// state exactly, and every intermediate snapshot must have been readable
// (a consistent point-in-time view, not a torn one).
func TestCheckpointUnderConcurrentWrites(t *testing.T) {
	walDir, snapDir := dirs(t)
	opts := Options{WAL: wal.Options{SegmentBytes: 4096}}
	e, err := RestoreOptions(walDir, snapDir, opts)
	if err != nil {
		t.Fatal(err)
	}

	const writers, perW = 8, 120
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			node := fmt.Sprintf("n%d", g)
			for j := 1; j <= perW; j++ {
				k := fmt.Sprintf("k%d", j%13)
				if g == 0 && j%11 == 0 {
					if _, err := e.Drop(k); err != nil {
						t.Errorf("Drop: %v", err)
					}
					continue
				}
				if _, err := e.Put(k, ver(fmt.Sprintf("%s-%d", node, j), vclock.VC{node: uint64(j)})); err != nil {
					t.Errorf("Put: %v", err)
				}
			}
		}(g)
	}
	// Checkpoints race the writers.
	ckptDone := make(chan error, 1)
	go func() {
		for i := 0; i < 5; i++ {
			if _, err := e.Checkpoint(snapDir); err != nil {
				ckptDone <- err
				return
			}
			// Each snapshot written mid-storm must validate cleanly.
			if _, _, err := snapshot.Latest(snapDir); err != nil {
				ckptDone <- fmt.Errorf("mid-storm snapshot unreadable: %w", err)
				return
			}
		}
		ckptDone <- nil
	}()
	wg.Wait()
	if err := <-ckptDone; err != nil {
		t.Fatal(err)
	}

	root, liveBytes, liveKeys := fingerprint(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreOptions(walDir, snapDir, opts)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer r.Close()
	rRoot, rBytes, rKeys := fingerprint(r)
	if rRoot != root || rBytes != liveBytes || rKeys != liveKeys {
		t.Fatalf("restored (%d bytes, %d keys) != live (%d, %d) — checkpoint raced writers into an inconsistent view",
			rBytes, rKeys, liveBytes, liveKeys)
	}
}

// TestRecoveryBoundedByLiveData is the tentpole property: after a
// checkpoint, restart replays the post-checkpoint tail only, not the
// whole overwrite history.
func TestRecoveryBoundedByLiveData(t *testing.T) {
	walDir, snapDir := dirs(t)
	opts := Options{WAL: wal.Options{SegmentBytes: 8 << 10}}
	e, err := RestoreOptions(walDir, snapDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const keys, rounds = 50, 80 // 4000 records of history, 50 live keys
	for r := 1; r <= rounds; r++ {
		for k := 0; k < keys; k++ {
			if _, err := e.Put(fmt.Sprintf("k%d", k), ver(fmt.Sprintf("r%d", r), vclock.VC{"n": uint64(r)})); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := e.Checkpoint(snapDir); err != nil {
		t.Fatal(err)
	}
	const tail = 7
	for i := 0; i < tail; i++ {
		e.Put(fmt.Sprintf("k%d", i), ver("tail", vclock.VC{"n": rounds + 1}))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := RestoreOptions(walDir, snapDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	d := r.Durability()
	if d.TailRecords != tail {
		t.Errorf("replayed %d records, want the %d-record tail (history is %d records)",
			d.TailRecords, tail, keys*rounds)
	}
	// First checkpoint retains no older generation, so nothing to skip.
	if d.TailSkipped != 0 {
		t.Errorf("skipped %d records, want 0 after a truncating checkpoint", d.TailSkipped)
	}
	if d.SnapshotSeq == 0 {
		t.Error("restore did not load the snapshot")
	}
	if r.Len() != keys {
		t.Errorf("restored %d keys, want %d", r.Len(), keys)
	}
}

// BenchmarkRecovery measures restart cost after heavy overwrite history:
// 100k overwrites of 1k keys (1 KiB values). full-replay reboots from the
// complete WAL; checkpointed takes one checkpoint first, so the reboot
// reads only the snapshot (≈ live data) plus the empty tail. The
// disk-bytes/op and replayed-records/op metrics expose the O(history) →
// O(live) drop.
func BenchmarkRecovery(b *testing.B) {
	const (
		liveKeys  = 1000
		overwrite = 100 // rounds; total records = liveKeys * overwrite
		valueSize = 1024
	)
	value := make([]byte, valueSize)
	build := func(b *testing.B, walDir, snapDir string, checkpoint bool) {
		b.Helper()
		e, err := Restore(walDir, snapDir)
		if err != nil {
			b.Fatal(err)
		}
		// Parallel writers drive group commit so setup is fsync-bound per
		// batch, not per record. Keys are partitioned per goroutine so
		// each key's clocks ascend.
		const writers = 16
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 1; r <= overwrite; r++ {
					for k := w; k < liveKeys; k += writers {
						if _, err := e.Put(fmt.Sprintf("key-%04d", k), ver(string(value), vclock.VC{"n": uint64(r)})); err != nil {
							b.Error(err)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		if checkpoint {
			if _, err := e.Checkpoint(snapDir); err != nil {
				b.Fatal(err)
			}
		}
		if err := e.Close(); err != nil {
			b.Fatal(err)
		}
	}

	for _, mode := range []string{"full-replay", "checkpointed"} {
		b.Run(mode, func(b *testing.B) {
			walDir, snapDir := dirs(b)
			build(b, walDir, snapDir, mode == "checkpointed")
			diskBytes := float64(treeSize(b, walDir) + treeSize(b, snapDir))
			b.ResetTimer()
			var replayed, skipped int64
			for i := 0; i < b.N; i++ {
				e, err := Restore(walDir, snapDir)
				if err != nil {
					b.Fatal(err)
				}
				d := e.Durability()
				replayed, skipped = d.TailRecords, d.TailSkipped
				if n := e.Len(); n != liveKeys {
					b.Fatalf("recovered %d keys, want %d", n, liveKeys)
				}
				if err := e.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(diskBytes, "disk-bytes/op")
			b.ReportMetric(float64(replayed+skipped), "replayed-records/op")
		})
	}
}

// treeSize sums the file sizes under dir.
func treeSize(tb testing.TB, dir string) int64 {
	tb.Helper()
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0
		}
		tb.Fatal(err)
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err == nil {
			total += fi.Size()
		}
	}
	return total
}

// copyTree copies the regular files of src into a fresh dst directory —
// a point-in-time picture of the on-disk state, i.e. what a crash leaves.
func copyTree(t testing.TB, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointWithPendingRecordSurvivesCrash pins the two halves of the
// checkpoint protocol that make the crash-right-after-checkpoint window
// safe. A record can be sitting in the group-commit queue (enqueued, not
// yet fsynced) when a checkpoint starts: (1) the anchor is the sequence
// number durably flushed BEFORE the shard copies — never the last
// assigned one, which the recovered log might not contain — and (2) the
// checkpoint's Flush drains the queue before the snapshot is written, so
// by the time the snapshot exists the log durably covers everything the
// copies could contain. A crash immediately after the checkpoint must
// then restore cleanly, replaying the drained record from the tail.
func TestCheckpointWithPendingRecordSurvivesCrash(t *testing.T) {
	walDir, snapDir := dirs(t)
	e, err := Restore(walDir, snapDir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := e.Put(fmt.Sprintf("k%d", i), ver(fmt.Sprintf("v%d", i), vclock.VC{"n": uint64(i + 1)})); err != nil {
			t.Fatal(err)
		}
	}
	flushedBefore := e.log.LastFlushed()

	// A write stuck in the group-commit queue: enqueued but its fsync
	// round has not run yet.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(walRecord{Key: "pending", Version: ver("p", vclock.VC{"p": 1})}); err != nil {
		t.Fatal(err)
	}
	tkt, err := e.log.Enqueue(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	seq, err := e.Checkpoint(snapDir)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if seq != flushedBefore {
		t.Fatalf("checkpoint anchored at %d, want the pre-checkpoint flushed seq %d", seq, flushedBefore)
	}
	if seq >= tkt {
		t.Fatalf("checkpoint anchor %d covers record %d that was unflushed at anchor time", seq, tkt)
	}
	// The checkpoint drained the queue: the pending record is durable.
	if flushed := e.log.LastFlushed(); flushed < tkt {
		t.Fatalf("checkpoint left enqueued record %d unflushed (LastFlushed %d)", tkt, flushed)
	}

	// The on-disk state right now is what a crash immediately after the
	// checkpoint leaves behind. Snapshot it and boot from the copy.
	base := t.TempDir()
	crashWal, crashSnap := filepath.Join(base, "wal"), filepath.Join(base, "snaps")
	copyTree(t, walDir, crashWal)
	copyTree(t, snapDir, crashSnap)

	r, err := Restore(crashWal, crashSnap)
	if err != nil {
		t.Fatalf("Restore after crash right after checkpoint: %v", err)
	}
	defer r.Close()
	if r.Len() != 6 {
		t.Fatalf("restored %d keys, want the 5 puts + the drained pending record", r.Len())
	}
	for i := 0; i < 5; i++ {
		if vs := r.Get(fmt.Sprintf("k%d", i)); len(vs) != 1 || string(vs[0].Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("restored k%d = %v", i, vs)
		}
	}
	// The drained record sits past the anchor, so it comes back via tail
	// replay even though the snapshot may not contain it.
	if vs := r.Get("pending"); len(vs) != 1 || string(vs[0].Value) != "p" {
		t.Fatalf("restored pending = %v", vs)
	}

	// The live engine is still healthy: the record's Commit is a no-op
	// (already flushed) and the log continues past the checkpoint.
	if err := e.log.Commit(tkt); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}
