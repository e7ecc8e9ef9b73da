package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"skute/internal/cluster"
	"skute/internal/ring"
	"skute/internal/store"
	"skute/internal/telemetry"
	"skute/internal/transport"
)

// TestAdminMetricsNames pins the instrument names a WAL- and
// snapshot-backed skuted serves after one Get and one Put. The golden
// lists what the process exported before counters and histograms
// shared one registry — the /counters keys and the /metrics histogram
// names together — so GET /metrics must now serve exactly that set.
func TestAdminMetricsNames(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "admin_names.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(raw))

	dir := t.TempDir()
	walDir, snapDir := filepath.Join(dir, "wal"), filepath.Join(dir, "snaps")
	for _, d := range []string{walDir, snapDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := store.RestoreOptions(walDir, snapDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cfg := cluster.Config{
		Nodes: []cluster.NodeInfo{{
			Name: "n0", Addr: addr, LocPath: "eu/ch/dc0/r0/k0/s0",
			Confidence: 1, MonthlyRent: 100, Capacity: 1 << 34, QueryCapacity: 10000,
		}},
		Rings: []cluster.RingSpec{{App: "app1", Class: "gold", Partitions: 8, Replicas: 1}},
	}
	tr := transport.NewTCP()
	defer tr.Close()
	node, err := cluster.NewNode(cfg, "n0", tr, eng)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(adminHandler(node, tr, eng, new(telemetry.Counter)))
	defer srv.Close()

	ctx := context.Background()
	id := ring.RingID{App: "app1", Class: "gold"}
	_, _ = node.Get(ctx, id, "user:1", cluster.ReadOptions{}) // not found yet; only the latency sample matters
	if err := node.Put(ctx, id, "user:1", []byte("v1"), nil, cluster.WriteOptions{}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Histograms map[string]json.RawMessage `json:"histograms"`
		Counters   map[string]int64           `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	var names []string
	for n := range got.Histograms {
		names = append(names, n)
	}
	for n := range got.Counters {
		names = append(names, n)
	}
	slices.Sort(names)
	if !slices.Equal(names, want) {
		for _, n := range names {
			if !slices.Contains(want, n) {
				t.Errorf("served but not in the golden: %s", n)
			}
		}
		for _, n := range want {
			if !slices.Contains(names, n) {
				t.Errorf("in the golden but not served: %s", n)
			}
		}
	}
	if got.Counters["wal_syncs_total"] == 0 || got.Counters["store_keys"] != 1 {
		t.Errorf("durability gauges not live: wal_syncs_total=%d store_keys=%d",
			got.Counters["wal_syncs_total"], got.Counters["store_keys"])
	}
}
