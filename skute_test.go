package skute

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// ctx is the background context shared by tests that exercise no
// context-specific behavior (those build their own).
var ctx = context.Background()

func testOptions() Options {
	return Options{
		Servers: []Server{
			{Name: "zurich-1", Location: "eu/ch/dc0/r0/k0/s0", MonthlyRent: 100},
			{Name: "zurich-2", Location: "eu/ch/dc0/r0/k1/s1", MonthlyRent: 100},
			{Name: "virginia-1", Location: "us/us-east/dc0/r0/k0/s2", MonthlyRent: 100},
			{Name: "virginia-2", Location: "us/us-east/dc0/r0/k1/s3", MonthlyRent: 100},
			{Name: "tokyo-1", Location: "ap/jp/dc0/r0/k0/s4", MonthlyRent: 125},
			{Name: "tokyo-2", Location: "ap/jp/dc0/r0/k1/s5", MonthlyRent: 125},
		},
		Apps: []App{
			{Name: "photos", SLA: SLA{Class: "standard", Replicas: 2}, Partitions: 8},
			{Name: "billing", SLA: SLA{Class: "critical", Replicas: 3}, Partitions: 8},
		},
	}
}

func newTestCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := NewCluster(testOptions())
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(Options{}); err == nil {
		t.Error("empty options accepted")
	}
	opts := testOptions()
	opts.Apps = nil
	if _, err := NewCluster(opts); err == nil {
		t.Error("no apps accepted")
	}
	opts = testOptions()
	opts.Apps[0].SLA.Replicas = 0
	if _, err := NewCluster(opts); err == nil {
		t.Error("zero-replica SLA accepted")
	}
	opts = testOptions()
	opts.Servers[0].Location = "nonsense"
	if _, err := NewCluster(opts); err == nil {
		t.Error("bad location accepted")
	}
}

func TestPutGetDelete(t *testing.T) {
	c := newTestCluster(t)
	if err := c.Put(ctx, "photos", "cat.jpg", []byte("bytes"), nil, WriteOptions{}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	vals, vctx, err := c.Get(ctx, "photos", "cat.jpg", ReadOptions{})
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if len(vals) != 1 || string(vals[0]) != "bytes" {
		t.Fatalf("Get = %q", vals)
	}
	if err := c.Put(ctx, "photos", "cat.jpg", []byte("v2"), vctx, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	vals, vctx, _ = c.Get(ctx, "photos", "cat.jpg", ReadOptions{})
	if len(vals) != 1 || string(vals[0]) != "v2" {
		t.Fatalf("after update: %q", vals)
	}
	if err := c.Delete(ctx, "photos", "cat.jpg", vctx, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	vals, _, _ = c.Get(ctx, "photos", "cat.jpg", ReadOptions{})
	if len(vals) != 0 {
		t.Fatalf("after delete: %q", vals)
	}
}

func TestAppsIsolated(t *testing.T) {
	c := newTestCluster(t)
	c.Put(ctx, "photos", "k", []byte("photo-value"), nil, WriteOptions{})
	c.Put(ctx, "billing", "k", []byte("billing-value"), nil, WriteOptions{})
	pv, _, _ := c.Get(ctx, "photos", "k", ReadOptions{})
	bv, _, _ := c.Get(ctx, "billing", "k", ReadOptions{})
	if string(pv[0]) == string(bv[0]) {
		t.Error("apps share a namespace")
	}
	if _, _, err := c.Get(ctx, "ghost-app", "k", ReadOptions{}); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestSLAPlacement(t *testing.T) {
	c := newTestCluster(t)
	reps, err := c.Replicas(ctx, "photos", "any-key")
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Errorf("photos replicas = %v, want 2", reps)
	}
	reps, _ = c.Replicas(ctx, "billing", "any-key")
	if len(reps) != 3 {
		t.Errorf("billing replicas = %v, want 3", reps)
	}
	// SLA thresholds are met from the start.
	for _, app := range []string{"photos", "billing"} {
		av, th, err := c.Availability(ctx, app)
		if err != nil {
			t.Fatal(err)
		}
		for part, a := range av {
			if a < th {
				t.Errorf("%s partition %d: availability %.1f < threshold %.1f", app, part, a, th)
			}
		}
	}
}

func TestSLAThresholds(t *testing.T) {
	if (SLA{Replicas: 2}).Threshold() >= (SLA{Replicas: 3}).Threshold() {
		t.Error("thresholds not increasing in replica count")
	}
}

func TestFailureRecoveryThroughEpochs(t *testing.T) {
	c := newTestCluster(t)
	for i := 0; i < 24; i++ {
		if err := c.Put(ctx, "billing", fmt.Sprintf("invoice-%d", i), []byte("x"), nil, WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FailServer("virginia-1"); err != nil {
		t.Fatal(err)
	}
	if err := c.FailServer("no-such"); err == nil {
		t.Error("failing unknown server accepted")
	}
	var ops EpochOps
	for i := 0; i < 3; i++ {
		o, err := c.RunEpoch(ctx)
		if err != nil {
			t.Fatalf("RunEpoch: %v", err)
		}
		ops.Replications += o.Replications
	}
	if ops.Replications == 0 {
		t.Error("no repair replications after failure")
	}
	av, th, _ := c.Availability(ctx, "billing")
	for part, a := range av {
		if a < th {
			t.Errorf("billing partition %d not repaired: %.1f < %.1f", part, a, th)
		}
	}
	// Data survives.
	for i := 0; i < 24; i++ {
		vals, _, err := c.Get(ctx, "billing", fmt.Sprintf("invoice-%d", i), ReadOptions{})
		if err != nil {
			t.Fatalf("Get after failure: %v", err)
		}
		if len(vals) != 1 {
			t.Fatalf("invoice-%d lost", i)
		}
	}
}

func TestVNodesOnAndServers(t *testing.T) {
	c := newTestCluster(t)
	if got := c.Servers(); len(got) != 6 || got[0] != "zurich-1" {
		t.Errorf("Servers = %v", got)
	}
	total := 0
	for _, s := range c.Servers() {
		n, err := c.VNodesOn(s)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	// 8 partitions x 2 replicas + 8 x 3 replicas = 40 vnodes.
	if total != 40 {
		t.Errorf("total vnodes = %d, want 40", total)
	}
	if _, err := c.VNodesOn("ghost"); err == nil {
		t.Error("unknown server accepted")
	}
}

func TestRunExperimentQuick(t *testing.T) {
	res, err := RunExperiment("fig2", false)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "fig2" || res.CSV == "" || res.Rendered == "" || len(res.Notes) == 0 {
		t.Errorf("result incomplete: %+v", res)
	}
	if !strings.HasPrefix(res.CSV, "epoch,") {
		t.Errorf("CSV header: %q", res.CSV[:20])
	}
	if _, err := RunExperiment("nope", false); err == nil {
		t.Error("unknown experiment accepted")
	}
	ids := Experiments()
	if len(ids) != 8 {
		t.Errorf("Experiments = %v", ids)
	}
}

func TestMustRunExperimentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown experiment")
		}
	}()
	MustRunExperiment("does-not-exist", false)
}

func TestMGetMPutRoundTrip(t *testing.T) {
	c := newTestCluster(t)
	entries := make([]Entry, 64)
	keys := make([]string, 64)
	for i := range entries {
		keys[i] = fmt.Sprintf("batch-%d", i)
		entries[i] = Entry{Key: keys[i], Value: []byte(fmt.Sprintf("v%d", i))}
	}
	if err := c.MPut(ctx, "billing", entries, WriteOptions{}); err != nil {
		t.Fatalf("MPut: %v", err)
	}
	res, err := c.MGet(ctx, "billing", append(keys, "never-written"), ReadOptions{})
	if err != nil {
		t.Fatalf("MGet: %v", err)
	}
	for i, k := range keys {
		r := res[k]
		if len(r.Values) != 1 || string(r.Values[0]) != fmt.Sprintf("v%d", i) {
			t.Fatalf("MGet[%s] = %q", k, r.Values)
		}
	}
	if len(res["never-written"].Values) != 0 {
		t.Errorf("missing key returned %q", res["never-written"].Values)
	}
	// Batched read-modify-write: reuse each key's context.
	update := make([]Entry, len(keys))
	for i, k := range keys {
		update[i] = Entry{Key: k, Value: []byte("v2"), Context: res[k].Context}
	}
	if err := c.MPut(ctx, "billing", update, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	res, _ = c.MGet(ctx, "billing", keys, ReadOptions{})
	for _, k := range keys {
		if r := res[k]; len(r.Values) != 1 || string(r.Values[0]) != "v2" {
			t.Fatalf("after batched RMW, MGet[%s] = %q", k, r.Values)
		}
	}
	// Unknown app and invalid options are rejected.
	if _, err := c.MGet(ctx, "ghost-app", keys, ReadOptions{}); err == nil {
		t.Error("unknown app batch accepted")
	}
	if _, err := c.MGet(ctx, "billing", keys, ReadOptions{Consistency: ConsistencyCount(99)}); err == nil {
		t.Error("R=99 accepted on a 3-replica app")
	}
}

func TestRequestOptionsPerRequest(t *testing.T) {
	c := newTestCluster(t)
	// One/Quorum/All all work against a healthy cluster. Reads use All so
	// each assertion is deterministic regardless of the write level: a
	// One-level write acknowledges after a single replica and replicates
	// to the rest asynchronously, and an all-replica read always hears
	// the acknowledged copy.
	for _, level := range []Consistency{One, Quorum, All} {
		key := fmt.Sprintf("opt-%d", level)
		if err := c.Put(ctx, "billing", key, []byte("v"), nil, WriteOptions{Consistency: level}); err != nil {
			t.Fatalf("Put at %v: %v", level, err)
		}
		vals, _, err := c.Get(ctx, "billing", key, ReadOptions{Consistency: All, Timeout: time.Second})
		if err != nil {
			t.Fatalf("Get after Put at %v: %v", level, err)
		}
		if len(vals) != 1 || string(vals[0]) != "v" {
			t.Fatalf("Get after Put at %v = %q", level, vals)
		}
	}
	// And an All-level write is readable at One: every replica holds it.
	if err := c.Put(ctx, "billing", "opt-all-one", []byte("v"), nil, WriteOptions{Consistency: All}); err != nil {
		t.Fatal(err)
	}
	if vals, _, err := c.Get(ctx, "billing", "opt-all-one", ReadOptions{Consistency: One}); err != nil || len(vals) != 1 {
		t.Fatalf("One read after All write: %q, %v", vals, err)
	}
	// With a failed server, All cannot be satisfied on partitions that
	// lost a replica, but One still answers everywhere.
	if err := c.FailServer("virginia-1"); err != nil {
		t.Fatal(err)
	}
	allFailed := false
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("opt-all-%d", i)
		if err := c.Put(ctx, "billing", key, []byte("v"), nil, WriteOptions{Consistency: All}); err != nil {
			allFailed = true
		}
		if err := c.Put(ctx, "billing", key+"-one", []byte("v"), nil, WriteOptions{Consistency: One}); err != nil {
			t.Fatalf("One write failed with one server down: %v", err)
		}
	}
	if !allFailed {
		t.Error("ConsistencyAll writes all succeeded despite a failed replica server")
	}
}

func TestCancelledContextFailsFast(t *testing.T) {
	c := newTestCluster(t)
	if err := c.Put(ctx, "photos", "k", []byte("v"), nil, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Get(cancelled, "photos", "k", ReadOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Get err = %v, want context.Canceled", err)
	}
	if err := c.Put(cancelled, "photos", "k", []byte("v2"), nil, WriteOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Put err = %v, want context.Canceled", err)
	}
	if _, err := c.MGet(cancelled, "photos", []string{"k"}, ReadOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("MGet err = %v, want context.Canceled", err)
	}
	if _, err := c.Replicas(cancelled, "photos", "k"); !errors.Is(err, context.Canceled) {
		t.Errorf("Replicas err = %v, want context.Canceled", err)
	}
	if _, _, err := c.Availability(cancelled, "photos"); !errors.Is(err, context.Canceled) {
		t.Errorf("Availability err = %v, want context.Canceled", err)
	}
	// The value is intact: the cancelled Put never launched.
	vals, _, err := c.Get(ctx, "photos", "k", ReadOptions{})
	if err != nil || len(vals) != 1 || string(vals[0]) != "v" {
		t.Fatalf("after cancelled Put: %q, %v", vals, err)
	}
}

// TestCoordinatorRotation pins the round-robin fix: consecutive requests
// spread over every alive node instead of funneling through the first.
func TestCoordinatorRotation(t *testing.T) {
	c := newTestCluster(t)
	seen := map[string]bool{}
	for i := 0; i < len(c.order)*2; i++ {
		n, err := c.coordinator()
		if err != nil {
			t.Fatal(err)
		}
		seen[n.Name()] = true
	}
	if len(seen) != len(c.order) {
		t.Errorf("coordinator visited %d/%d nodes over two full rounds: %v", len(seen), len(c.order), seen)
	}
	// Failed servers are skipped, the rest keep rotating.
	if err := c.FailServer("zurich-1"); err != nil {
		t.Fatal(err)
	}
	seen = map[string]bool{}
	for i := 0; i < len(c.order)*2; i++ {
		n, err := c.coordinator()
		if err != nil {
			t.Fatal(err)
		}
		seen[n.Name()] = true
	}
	if seen["zurich-1"] {
		t.Error("failed server picked as coordinator")
	}
	if len(seen) != len(c.order)-1 {
		t.Errorf("rotation visited %d/%d alive nodes: %v", len(seen), len(c.order)-1, seen)
	}
}

func TestFailAndReviveServer(t *testing.T) {
	c := newTestCluster(t)
	for i := 0; i < 12; i++ {
		if err := c.Put(ctx, "billing", fmt.Sprintf("churn-%d", i), []byte("x"), nil, WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.ReviveServer("no-such"); err == nil {
		t.Error("reviving unknown server accepted")
	}
	// Two fail/heal cycles — the churn script ReviveServer exists for.
	for cycle := 0; cycle < 2; cycle++ {
		if err := c.FailServer("tokyo-1"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunEpoch(ctx); err != nil {
			t.Fatal(err)
		}
		if err := c.ReviveServer("tokyo-1"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunEpoch(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// The revived server serves as a coordinator again...
	seen := map[string]bool{}
	for i := 0; i < len(c.order); i++ {
		n, err := c.coordinator()
		if err != nil {
			t.Fatal(err)
		}
		seen[n.Name()] = true
	}
	if !seen["tokyo-1"] {
		t.Error("revived server never picked as coordinator")
	}
	// ...and every key survived the churn.
	for i := 0; i < 12; i++ {
		vals, _, err := c.Get(ctx, "billing", fmt.Sprintf("churn-%d", i), ReadOptions{})
		if err != nil {
			t.Fatalf("Get after churn: %v", err)
		}
		if len(vals) != 1 {
			t.Fatalf("churn-%d lost", i)
		}
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClusterAutonomousRepair: in autonomous mode (Start) the cluster
// heals a failed server entirely on its own — jittered heartbeat,
// gossip-reconcile and economic-epoch loops per node, no RunEpoch
// stepping from the outside.
func TestClusterAutonomousRepair(t *testing.T) {
	c := newTestCluster(t)
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("auto-%d", i)
		if err := c.Put(ctx, "billing", key, []byte("x"), nil, WriteOptions{Consistency: All}); err != nil {
			t.Fatal(err)
		}
	}
	rctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.Start(rctx, Runtime{
		Heartbeat: 10 * time.Millisecond, Reconcile: 15 * time.Millisecond,
		AntiEntropy: 40 * time.Millisecond, Epoch: 30 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.Start(rctx, Runtime{}); err == nil {
		t.Error("second Start accepted")
	}

	if err := c.FailServer("virginia-1"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 15*time.Second, func() bool {
		av, th, err := c.Availability(ctx, "billing")
		if err != nil {
			return false
		}
		for _, a := range av {
			if a < th {
				return false
			}
		}
		return true
	}, "autonomous epochs to repair the failed server's partitions")

	// Every key is still served while the server stays down.
	for i := 0; i < 12; i++ {
		vals, _, err := c.Get(ctx, "billing", fmt.Sprintf("auto-%d", i), ReadOptions{})
		if err != nil || len(vals) != 1 {
			t.Fatalf("auto-%d after autonomous repair: %q, %v", i, vals, err)
		}
	}
}

// TestClusterChurnSoak is the CI churn-soak: fail/revive cycles with
// the full autonomous runtime (heartbeats, gossip reconciliation,
// anti-entropy, free-running economic epochs) while client traffic
// flows, all under the race detector. Afterwards the cluster must
// converge: every pre-churn key readable, SLAs repaired.
func TestClusterChurnSoak(t *testing.T) {
	c := newTestCluster(t)
	const keys = 16
	for i := 0; i < keys; i++ {
		if err := c.Put(ctx, "billing", fmt.Sprintf("soak-%d", i), []byte("x"), nil, WriteOptions{Consistency: All}); err != nil {
			t.Fatal(err)
		}
	}
	rctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.Start(rctx, Runtime{
		Heartbeat: 10 * time.Millisecond, Reconcile: 15 * time.Millisecond,
		AntiEntropy: 40 * time.Millisecond, Epoch: 30 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}

	victims := []string{"virginia-1", "tokyo-2", "zurich-2"}
	for cycle := 0; cycle < 3; cycle++ {
		v := victims[cycle%len(victims)]
		if err := c.FailServer(v); err != nil {
			t.Fatal(err)
		}
		// Traffic keeps flowing during the outage; One-level writes must
		// keep succeeding, quorum errors on colder paths are tolerated.
		for i := 0; i < 6; i++ {
			key := fmt.Sprintf("churn-%d-%d", cycle, i)
			if err := c.Put(ctx, "billing", key, []byte("y"), nil, WriteOptions{Consistency: One}); err != nil {
				t.Fatalf("One write during churn: %v", err)
			}
			_, _, _ = c.Get(ctx, "billing", key, ReadOptions{Consistency: One})
		}
		time.Sleep(60 * time.Millisecond)
		if err := c.ReviveServer(v); err != nil {
			t.Fatal(err)
		}
		time.Sleep(60 * time.Millisecond)
	}
	c.Stop()

	// Deterministic convergence check after the storm: step epochs until
	// every billing partition is back above its SLA threshold.
	waitUntil(t, 15*time.Second, func() bool {
		if _, err := c.RunEpoch(ctx); err != nil {
			return false
		}
		av, th, err := c.Availability(ctx, "billing")
		if err != nil {
			return false
		}
		for _, a := range av {
			if a < th {
				return false
			}
		}
		return true
	}, "post-churn epochs to restore the SLA")
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("soak-%d", i)
		vals, _, err := c.Get(ctx, "billing", key, ReadOptions{})
		if err != nil {
			t.Fatalf("Get %s after churn: %v", key, err)
		}
		if len(vals) != 1 || string(vals[0]) != "x" {
			t.Fatalf("%s lost in the churn: %q", key, vals)
		}
	}
}

// TestAddRemoveServer: dynamic membership through the embedded API. A
// cheap server joins through a seed, the economy migrates partitions
// onto it with the data arriving via chunked transfer; a founding
// server then leaves gracefully and is evicted from every replica set,
// with the SLA repaired by the following epochs.
func TestAddRemoveServer(t *testing.T) {
	c := newTestCluster(t)
	const keys = 24
	for i := 0; i < keys; i++ {
		if err := c.Put(ctx, "billing", fmt.Sprintf("inv-%d", i), []byte("x"), nil, WriteOptions{Consistency: All}); err != nil {
			t.Fatal(err)
		}
	}
	joiner := Server{Name: "madrid-1", Location: "eu/es/dc0/r0/k0/s9", MonthlyRent: 30}
	if err := c.AddServer(ctx, joiner, "zurich-1"); err != nil {
		t.Fatalf("AddServer: %v", err)
	}
	if err := c.AddServer(ctx, joiner, "zurich-1"); err == nil {
		t.Error("duplicate join accepted")
	}
	if err := c.AddServer(ctx, Server{Name: "x", Location: joiner.Location, MonthlyRent: 30}, "ghost"); err == nil {
		t.Error("join via unknown seed accepted")
	}
	if got := c.Servers(); got[len(got)-1] != "madrid-1" {
		t.Errorf("Servers after join = %v", got)
	}
	// The joiner is the cheapest server; epochs migrate vnodes onto it.
	waitUntil(t, 15*time.Second, func() bool {
		if _, err := c.RunEpoch(ctx); err != nil {
			return false
		}
		n, err := c.VNodesOn("madrid-1")
		return err == nil && n > 0
	}, "economy to place partitions on the joiner")
	if c.nodes["madrid-1"].Counters().TransferItems.Value() == 0 {
		t.Error("joiner hosts partitions but the chunked-transfer path moved nothing")
	}

	// Graceful leave: evicted everywhere at once, repaired by epochs.
	if err := c.RemoveServer(ctx, "virginia-1"); err != nil {
		t.Fatalf("RemoveServer: %v", err)
	}
	if err := c.RemoveServer(ctx, "no-such"); err == nil {
		t.Error("removing unknown server accepted")
	}
	if n, err := c.VNodesOn("virginia-1"); err != nil || n != 0 {
		t.Errorf("left server still hosts %d vnodes (err %v)", n, err)
	}
	waitUntil(t, 15*time.Second, func() bool {
		if _, err := c.RunEpoch(ctx); err != nil {
			return false
		}
		av, th, err := c.Availability(ctx, "billing")
		if err != nil {
			return false
		}
		for _, a := range av {
			if a < th {
				return false
			}
		}
		return true
	}, "epochs to repair the SLA after the leave")
	for i := 0; i < keys; i++ {
		vals, _, err := c.Get(ctx, "billing", fmt.Sprintf("inv-%d", i), ReadOptions{})
		if err != nil || len(vals) != 1 {
			t.Fatalf("inv-%d after join/leave churn: %q, %v", i, vals, err)
		}
	}
}

// TestJoinLeaveSoak is the CI join/leave soak: 3 founding nodes under
// the full autonomous runtime and live traffic, 2 servers join through
// seeds (one through the other joiner), 1 founder is killed. Afterwards
// the placement must converge — the dead server out of every replica
// set, the joiners holding vnodes — and no acknowledged write may be
// lost.
func TestJoinLeaveSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second membership soak")
	}
	c, err := NewCluster(Options{
		Servers: []Server{
			{Name: "s1", Location: "eu/ch/dc0/r0/k0/s1", MonthlyRent: 100},
			{Name: "s2", Location: "us/us-east/dc0/r0/k0/s2", MonthlyRent: 100},
			{Name: "s3", Location: "ap/jp/dc0/r0/k0/s3", MonthlyRent: 100},
		},
		Apps: []App{{Name: "ledger", SLA: SLA{Class: "std", Replicas: 2}, Partitions: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	var acked []string
	put := func(key string) {
		if err := c.Put(ctx, "ledger", key, []byte("v"), nil, WriteOptions{}); err == nil {
			acked = append(acked, key)
		}
	}
	for i := 0; i < 16; i++ {
		put(fmt.Sprintf("pre-%d", i))
	}
	if len(acked) != 16 {
		t.Fatalf("healthy cluster acknowledged %d/16 writes", len(acked))
	}

	rctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.Start(rctx, Runtime{
		Heartbeat: 10 * time.Millisecond, Reconcile: 15 * time.Millisecond,
		AntiEntropy: 40 * time.Millisecond, Epoch: 30 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}

	// Join 2 under live traffic — the second through the first joiner,
	// proving join-via-any-seed.
	if err := c.AddServer(ctx, Server{Name: "j1", Location: "eu/de/dc0/r0/k0/s4", MonthlyRent: 25}, "s1"); err != nil {
		t.Fatalf("join j1: %v", err)
	}
	for i := 0; i < 12; i++ {
		put(fmt.Sprintf("mid-%d", i))
	}
	if err := c.AddServer(ctx, Server{Name: "j2", Location: "us/us-west/dc0/r0/k0/s5", MonthlyRent: 25}, "j1"); err != nil {
		t.Fatalf("join j2 via j1: %v", err)
	}

	// Kill a founder; quorum writes that fail are simply not acked.
	if err := c.FailServer("s2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		put(fmt.Sprintf("post-%d", i))
	}
	time.Sleep(150 * time.Millisecond)
	c.Stop()

	// Deterministic convergence: explicit membership rounds evict the
	// dead founder, then epochs repair the shrunken partitions.
	for _, name := range []string{"s1", "s3", "j1", "j2"} {
		c.nodes[name].RunMembershipRound(ctx)
	}
	waitUntil(t, 15*time.Second, func() bool {
		if _, err := c.RunEpoch(ctx); err != nil {
			return false
		}
		av, th, err := c.Availability(ctx, "ledger")
		if err != nil {
			return false
		}
		for _, a := range av {
			if a < th {
				return false
			}
		}
		return true
	}, "post-churn epochs to restore the SLA")

	if n, err := c.VNodesOn("s2"); err != nil || n != 0 {
		t.Errorf("dead founder still in replica sets: %d vnodes (err %v)", n, err)
	}
	j1n, _ := c.VNodesOn("j1")
	j2n, _ := c.VNodesOn("j2")
	if j1n+j2n == 0 {
		t.Error("joiners never received a partition")
	}
	for _, key := range acked {
		vals, _, err := c.Get(ctx, "ledger", key, ReadOptions{})
		if err != nil {
			t.Fatalf("acknowledged write %s unreadable after the soak: %v", key, err)
		}
		if len(vals) != 1 || string(vals[0]) != "v" {
			t.Fatalf("acknowledged write %s lost: %q", key, vals)
		}
	}
}

// TestReviveAfterRuntimeContextCancelled: ending autonomous mode by
// cancelling the Start context (instead of calling Stop) must not make
// ReviveServer launch stillborn loops — it finishes the teardown, and
// the cluster can be started again.
func TestReviveAfterRuntimeContextCancelled(t *testing.T) {
	c := newTestCluster(t)
	rctx, cancel := context.WithCancel(context.Background())
	if err := c.Start(rctx, Runtime{Heartbeat: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := c.FailServer("tokyo-1"); err != nil {
		t.Fatal(err)
	}
	if err := c.ReviveServer("tokyo-1"); err != nil {
		t.Fatal(err)
	}
	// The dead runtime was torn down, so a fresh Start succeeds.
	rctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	if err := c.Start(rctx2, Runtime{Heartbeat: 10 * time.Millisecond}); err != nil {
		t.Fatalf("restart after cancelled runtime: %v", err)
	}
	c.Stop()
}

// TestIdleClusterKeepsQuorum: an embedded cluster that was never
// started has no heartbeats, so the clock alone must not age its
// servers into suspicion. Eleven seconds of fake-clock silence (past
// the default 10 s window) leave Put, a quorum Get and MPut working.
func TestIdleClusterKeepsQuorum(t *testing.T) {
	c := newTestCluster(t)
	base := time.Now()
	var offset atomic.Int64
	for _, n := range c.nodes {
		n.Now = func() time.Time { return base.Add(time.Duration(offset.Load())) }
	}
	if err := c.Put(ctx, "billing", "idle", []byte("v1"), nil, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	offset.Store(int64(11 * time.Second))
	if err := c.Put(ctx, "billing", "idle", []byte("v2"), nil, WriteOptions{}); err != nil {
		t.Fatalf("Put after 11 s idle: %v", err)
	}
	// Both blind writes survive as siblings.
	vals, _, err := c.Get(ctx, "billing", "idle", ReadOptions{Consistency: Quorum})
	if err != nil || len(vals) != 2 {
		t.Fatalf("quorum Get after 11 s idle = %q, %v; want v1 and v2", vals, err)
	}
	if err := c.MPut(ctx, "billing", []Entry{{Key: "idle-a", Value: []byte("a")}, {Key: "idle-b", Value: []byte("b")}}, WriteOptions{}); err != nil {
		t.Fatalf("MPut after 11 s idle: %v", err)
	}
}
