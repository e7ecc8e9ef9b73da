package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"skute/internal/vclock"
)

// TestPutBatchOneCommit: a batch costs one WAL commit however many items
// it carries, logs only the items it accepted, and replays to the state
// it left in memory.
func TestPutBatchOneCommit(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	e, err := Open(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Put("old", ver("newer", vclock.VC{"n": 5})); err != nil {
		t.Fatal(err)
	}
	var items []Item
	for i := 0; i < 8; i++ {
		items = append(items, Item{Key: fmt.Sprintf("k%d", i), Version: ver(fmt.Sprintf("v%d", i), vclock.VC{"n": 1})})
	}
	items = append(items,
		Item{Key: "old", Version: ver("dominated", vclock.VC{"n": 1})},
		Item{Key: "k0", Version: ver("v0-again", vclock.VC{"n": 2})},
	)
	before := e.Durability()
	accepted, err := e.PutBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 9 {
		t.Errorf("accepted %d items, want 9 (the dominated one changes nothing)", accepted)
	}
	after := e.Durability()
	if got := after.WALSyncs - before.WALSyncs; got != 1 {
		t.Errorf("PutBatch of %d items cost %d WAL syncs, want 1", len(items), got)
	}
	if got := after.WALRecords - before.WALRecords; got != int64(accepted) {
		t.Errorf("PutBatch logged %d records, want the %d accepted", got, accepted)
	}
	root, liveBytes, liveKeys := fingerprint(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(walDir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rRoot, rBytes, rKeys := fingerprint(r); rRoot != root || rBytes != liveBytes || rKeys != liveKeys {
		t.Fatalf("replayed (%d bytes, %d keys) != live (%d, %d)", rBytes, rKeys, liveBytes, liveKeys)
	}
	if vs := r.Get("old"); len(vs) != 1 || string(vs[0].Value) != "newer" {
		t.Errorf("old = %+v, want the dominating version only", vs)
	}
	if vs := r.Get("k0"); len(vs) != 1 || string(vs[0].Value) != "v0-again" {
		t.Errorf("k0 = %+v, want the batch's later version", vs)
	}
}

// TestPutBatchCrashPoints is the torn-write sweep for a batch: a crash
// can cut the log anywhere inside the batch's single commit. For every
// cut point the engine must restore, holding exactly a prefix of the
// batch in item order.
func TestPutBatchCrashPoints(t *testing.T) {
	master := filepath.Join(t.TempDir(), "master")
	e, err := Open(master)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Key: fmt.Sprintf("k%d", i), Version: ver(fmt.Sprintf("v%d", i), vclock.VC{"n": 1})}
	}
	if _, err := e.PutBatch(items); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(master, "seg-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v; want one", segs, err)
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("cut-%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0])), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir)
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		prefix := r.Len()
		for i, it := range items {
			vs := r.Get(it.Key)
			if i < prefix && (len(vs) != 1 || string(vs[0].Value) != string(it.Version.Value)) {
				t.Fatalf("cut %d: restored %d keys but %s = %+v", cut, prefix, it.Key, vs)
			}
			if i >= prefix && vs != nil {
				t.Fatalf("cut %d: restored %d keys but also %s, past the prefix", cut, prefix, it.Key)
			}
		}
		if cut == len(full) && prefix != n {
			t.Fatalf("intact log restored %d of %d items", prefix, n)
		}
		r.Close()
	}
}
