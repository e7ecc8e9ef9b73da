package store

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Read-only decoders for the gob encoding that earlier releases wrote
// to the log and into snapshots. Nothing encodes gob any more, and this
// is the one file of the package that imports it: once no log or
// snapshot of an earlier release can be left on disk, it goes.

// decodeLegacyRecord decodes a gob-encoded WAL record.
func decodeLegacyRecord(p []byte) (walRecord, error) {
	var rec walRecord
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&rec); err != nil {
		return walRecord{}, fmt.Errorf("store: decode gob wal record: %w", err)
	}
	return rec, nil
}

// decodeLegacyShard decodes a gob-encoded snapshot shard, a map from
// key to sibling set.
func decodeLegacyShard(p []byte) ([]shardEntry, error) {
	var m map[string][]Version
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&m); err != nil {
		return nil, fmt.Errorf("store: decode gob snapshot shard: %w", err)
	}
	entries := make([]shardEntry, 0, len(m))
	for k, vs := range m {
		entries = append(entries, shardEntry{Key: k, Versions: vs})
	}
	return entries, nil
}
