package cluster

// Tests for the batched multi-key path: one envelope per replica node,
// per-partition quorum ledgers, the fallback to readPartitionGroup when a
// chosen peer fails or lags, and batched anti-entropy.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"skute/internal/ring"
	"skute/internal/store"
	"skute/internal/transport"
	"skute/internal/vclock"
)

var batchRing = ring.RingID{App: "appC", Class: "batch"}

// batchConfig is the shape the batch envelope bound is stated for: five
// nodes and one ring of 32 partitions with 3 replicas each.
func batchConfig() Config {
	cfg := testConfig()
	cfg.Nodes = cfg.Nodes[:5]
	cfg.Rings = []RingSpec{{App: batchRing.App, Class: batchRing.Class, Partitions: 32, Replicas: 3}}
	return cfg
}

// batchCluster boots batchConfig with a counting transport on nodes[0],
// the coordinator of every request in these tests.
func batchCluster(t *testing.T) (*transport.Memory, []*Node, *countingTransport) {
	t.Helper()
	var ct *countingTransport
	mesh, nodes := bootCluster(t, batchConfig(), func(tr transport.Transport) transport.Transport {
		ct = newCountingTransport(tr)
		return ct
	})
	return mesh, nodes, ct
}

// batchEntries returns n keys and one entry per key whose value carries
// the tag. The keys are spread by a multiplicative hash: short sequential
// keys cluster on a few partitions under the ring's FNV-1a.
func batchEntries(n int, tag string) ([]string, []Entry) {
	keys := make([]string, n)
	entries := make([]Entry, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("batch-%016x", uint64(i+1)*0x9e3779b97f4a7c15)
		entries[i] = Entry{Key: keys[i], Value: []byte(tag + keys[i])}
	}
	return keys, entries
}

// dataCalls counts the replica-level data envelopes sent so far.
func (c *countingTransport) dataCalls() int {
	return c.count(kindMultiGet) + c.count(kindMultiPut)
}

// pinHedge fixes the coordinator's hedge delay, so no histogram refresh
// moves it during the test.
func pinHedge(n *Node, d time.Duration) {
	n.hedge.delayNS.Store(int64(d))
	n.hedge.lastNS.Store(math.MaxInt64)
}

// checkValues fails unless every key reads back exactly its entry value.
func checkValues(t *testing.T, res map[string]GetResult, keys []string, tag string) {
	t.Helper()
	if len(res) != len(keys) {
		t.Fatalf("got %d results, want %d", len(res), len(keys))
	}
	for _, k := range keys {
		if v := res[k].Values; len(v) != 1 || string(v[0]) != tag+k {
			t.Fatalf("%s = %q, want %q", k, v, tag+k)
		}
	}
}

// TestBatchOneEnvelopePerReplicaNode pins the batching contract: on five
// nodes, a 64-key MPut and a 64-key MGet spread over most of 32
// partitions each send at most one data envelope per remote node (4),
// and the batch read returns what per-key Gets return.
func TestBatchOneEnvelopePerReplicaNode(t *testing.T) {
	_, nodes, ct := batchCluster(t)
	pinHedge(nodes[0], time.Minute)
	keys, entries := batchEntries(64, "v-")
	if parts := len(nodes[0].groupByPartition(batchRing, keys)); parts <= 4 {
		t.Fatalf("64 keys fall on %d partitions; the bound below would say nothing", parts)
	}
	// ConsistencyAll returns only once every replica holds the batch, so
	// the read below meets in-sync replicas and sends no repair.
	ct.reset()
	if err := nodes[0].MultiPut(ctx, batchRing, entries, WriteOptions{Consistency: ConsistencyAll}); err != nil {
		t.Fatal(err)
	}
	if got := ct.dataCalls(); got > 4 {
		t.Errorf("MPut(64) sent %d data envelopes, want <= 4 (one per remote node)", got)
	}

	ct.reset()
	res, err := nodes[0].MultiGet(ctx, batchRing, keys, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ct.dataCalls(); got > 4 {
		t.Errorf("MGet(64) sent %d data envelopes, want <= 4 (one per remote node)", got)
	}
	checkValues(t, res, keys, "v-")
	for _, k := range keys {
		one, err := nodes[0].Get(ctx, batchRing, k, ReadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(one.Values, res[k].Values, func(a, b []byte) bool { return string(a) == string(b) }) ||
			one.Context.Compare(res[k].Context) != vclock.Equal {
			t.Errorf("%s: MGet %q %v, Get %q %v", k, res[k].Values, res[k].Context, one.Values, one.Context)
		}
	}
}

// TestBatchSurvivesKilledPeer: a peer that dies while every member table
// still lists it alive fails its sub-calls. MGet re-reads the affected
// partitions from the standbys and returns every key; MPut meets the
// default quorum on the remaining replicas; and a partition that cannot
// meet its quorum fails the batch with its name in the error.
func TestBatchSurvivesKilledPeer(t *testing.T) {
	mesh, nodes, _ := batchCluster(t)
	pinHedge(nodes[0], time.Minute)
	keys, entries := batchEntries(64, "v1-")
	if err := nodes[0].MultiPut(ctx, batchRing, entries, WriteOptions{Consistency: ConsistencyAll}); err != nil {
		t.Fatal(err)
	}
	victim := nodes[2]
	mesh.SetDown(victim.self.Addr, true)

	res, err := nodes[0].MultiGet(ctx, batchRing, keys, ReadOptions{})
	if err != nil {
		t.Fatalf("MGet with a dead peer: %v", err)
	}
	checkValues(t, res, keys, "v1-")

	_, entries = batchEntries(64, "v2-")
	if err := nodes[0].MultiPut(ctx, batchRing, entries, WriteOptions{}); err != nil {
		t.Fatalf("MPut with a dead peer: %v", err)
	}
	if res, err = nodes[0].MultiGet(ctx, batchRing, keys, ReadOptions{}); err != nil {
		t.Fatal(err)
	}
	checkValues(t, res, keys, "v2-")

	err = nodes[0].MultiPut(ctx, batchRing, entries, WriteOptions{Consistency: ConsistencyAll})
	m := regexp.MustCompile(`partition (\d+)`).FindStringSubmatch(fmt.Sprint(err))
	if m == nil {
		t.Fatalf("ConsistencyAll MPut with a dead replica: err = %v, want a quorum shortfall naming the partition", err)
	}
	part, _ := strconv.Atoi(m[1])
	e, ok := nodes[0].PlacementEntry(batchRing, part)
	if !ok || !slices.Contains(e.Replicas, victim.Name()) {
		t.Errorf("error names partition %d (replicas %v), which %s does not replicate", part, e.Replicas, victim.Name())
	}
}

// TestBatchHedgesSlowPeer: a chosen peer that has not answered when the
// hedge delay fires no longer sets the batch's latency — its partitions
// are re-read from the other replicas.
func TestBatchHedgesSlowPeer(t *testing.T) {
	mesh, nodes, _ := batchCluster(t)
	keys, entries := batchEntries(64, "v-")
	if err := nodes[0].MultiPut(ctx, batchRing, entries, WriteOptions{Consistency: ConsistencyAll}); err != nil {
		t.Fatal(err)
	}
	pinHedge(nodes[0], time.Millisecond)
	mesh.SetDelay(nodes[1].self.Addr, 5*time.Second)

	start := time.Now()
	res, err := nodes[0].MultiGet(ctx, batchRing, keys, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("MGet waited %v on a slow peer; the hedge should have routed around it", elapsed)
	}
	checkValues(t, res, keys, "v-")
	if nodes[0].counters.ReadsHedged.Value() == 0 {
		t.Error("no hedge wave fired")
	}
}

// failKindTransport fails every outgoing call of one envelope kind.
type failKindTransport struct {
	transport.Transport
	kind string
}

func (f *failKindTransport) Call(ctx context.Context, addr string, req transport.Envelope) (transport.Envelope, error) {
	if req.Kind == f.kind {
		return transport.Envelope{}, errors.New("injected failure")
	}
	return f.Transport.Call(ctx, addr, req)
}

// TestSyncPartitionCountsOnlyAckedPushes: a round whose push back to the
// peer fails reports the failure and repairs nothing, so the pre-drop
// handoff drain cannot mistake it for success. The failed round's pull
// did land, so the next round has only the pushed key left to repair.
func TestSyncPartitionCountsOnlyAckedPushes(t *testing.T) {
	ft := &failKindTransport{kind: kindMultiPut}
	_, nodes := bootCluster(t, batchConfig(), func(tr transport.Transport) transport.Transport {
		ft.Transport = tr
		return ft
	})
	// A partition nodes[0] replicates, and one of its peers.
	var part int
	var peer *Node
	for p := 0; peer == nil; p++ {
		e, ok := nodes[0].PlacementEntry(batchRing, p)
		if !ok {
			t.Fatal("nodes[0] replicates no partition")
		}
		if !slices.Contains(e.Replicas, nodes[0].Name()) {
			continue
		}
		part = p
		for _, n := range nodes[1:] {
			if slices.Contains(e.Replicas, n.Name()) {
				peer = n
				break
			}
		}
	}
	// Diverge both ways: one key only the peer holds, one only nodes[0].
	var mine, theirs string
	for i := 0; mine == "" || theirs == ""; i++ {
		k := fmt.Sprintf("ae-%d", i)
		if nodes[0].rings.Ring(batchRing).Lookup(ring.HashKey(k)).ID != part {
			continue
		}
		v := store.Version{Value: []byte(k), Clock: vclock.VC{"direct": 1}}
		switch {
		case theirs == "":
			theirs = k
			_, _ = peer.Engine().Put(storageKey(batchRing, k), v)
		default:
			mine = k
			_, _ = nodes[0].Engine().Put(storageKey(batchRing, k), v)
		}
	}

	repaired, err := nodes[0].SyncPartition(ctx, batchRing, part, peer.Name())
	if err == nil || repaired != 0 {
		t.Fatalf("SyncPartition with a failing push = %d, %v; want 0 and an error", repaired, err)
	}
	ft.kind = ""
	if repaired, err = nodes[0].SyncPartition(ctx, batchRing, part, peer.Name()); err != nil || repaired != 1 {
		t.Fatalf("SyncPartition = %d, %v; want 1 key repaired", repaired, err)
	}
	for _, n := range []*Node{nodes[0], peer} {
		for _, k := range []string{mine, theirs} {
			if vs := n.Engine().Get(storageKey(batchRing, k)); len(vs) != 1 {
				t.Errorf("%s holds %d versions of %s after the sync, want 1", n.Name(), len(vs), k)
			}
		}
	}
}

// singleKey finds a key whose replica set includes (hosted) or excludes
// the coordinator, and returns it with its replicas and partition.
func singleKey(t *testing.T, coord *Node, hosted bool) (string, []string, int) {
	t.Helper()
	for i := 0; i < 4096; i++ {
		key := fmt.Sprintf("single-%d", i)
		reps, err := coord.Replicas(batchRing, key)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(reps, coord.Name()) == hosted {
			return key, reps, coord.rings.Ring(batchRing).Lookup(ring.HashKey(key)).ID
		}
	}
	t.Fatalf("no key with hosted=%v", hosted)
	return "", nil, 0
}

// TestSingleKeyWriteEnvelopes: a Put is a one-item batch, so it sends
// one multi-put per remote replica and no other data envelope — 2 from
// a coordinator that hosts the key, 3 from one that does not.
func TestSingleKeyWriteEnvelopes(t *testing.T) {
	_, nodes, ct := batchCluster(t)
	byName := make(map[string]*Node, len(nodes))
	for _, n := range nodes {
		byName[n.Name()] = n
	}
	for _, tc := range []struct {
		name   string
		hosted bool
		want   int
	}{{"hosting coordinator", true, 2}, {"non-hosting coordinator", false, 3}} {
		t.Run(tc.name, func(t *testing.T) {
			key, reps, _ := singleKey(t, nodes[0], tc.hosted)
			ct.reset()
			if err := nodes[0].Put(ctx, batchRing, key, []byte("v"), nil, WriteOptions{}); err != nil {
				t.Fatal(err)
			}
			// Put returns at W=2 of 3; the last send completes detached.
			waitFor(t, 5*time.Second, func() bool {
				for _, r := range reps {
					if len(byName[r].Engine().Get(storageKey(batchRing, key))) != 1 {
						return false
					}
				}
				return true
			}, "every replica to store the write")
			if got := ct.count(kindMultiPut); got != tc.want {
				t.Errorf("Put sent %d multi-put envelopes, want %d", got, tc.want)
			}
			if got := ct.dataCalls(); got != tc.want {
				t.Errorf("Put sent %d data envelopes, want only its %d multi-puts", got, tc.want)
			}
		})
	}
}

// TestSingleKeyDeleteReadsNotFound: a Delete's tombstone supersedes the
// Put it read, so a quorum Get finds nothing.
func TestSingleKeyDeleteReadsNotFound(t *testing.T) {
	_, nodes, _ := batchCluster(t)
	for _, hosted := range []bool{true, false} {
		key, _, _ := singleKey(t, nodes[0], hosted)
		if err := nodes[0].Put(ctx, batchRing, key, []byte("v"), nil, WriteOptions{}); err != nil {
			t.Fatal(err)
		}
		res, err := nodes[0].Get(ctx, batchRing, key, ReadOptions{Consistency: ConsistencyQuorum})
		if err != nil || len(res.Values) != 1 {
			t.Fatalf("Get after Put: %q, %v", res.Values, err)
		}
		if err := nodes[0].Delete(ctx, batchRing, key, res.Context, WriteOptions{}); err != nil {
			t.Fatal(err)
		}
		if res, err = nodes[0].Get(ctx, batchRing, key, ReadOptions{Consistency: ConsistencyQuorum}); err != nil || len(res.Values) != 0 {
			t.Errorf("Get after Delete (hosted=%v): %q, %v; want not found", hosted, res.Values, err)
		}
	}
}

// TestSingleKeyWriteQuorum: with every ack remote, a Put still meets
// W=2 of 3 with one replica dead, and with two dead it fails with an
// error naming the key's partition.
func TestSingleKeyWriteQuorum(t *testing.T) {
	mesh, nodes, _ := batchCluster(t)
	key, reps, part := singleKey(t, nodes[0], false)
	addr := func(name string) string {
		info, _ := nodes[0].info(name)
		return info.Addr
	}
	mesh.SetDown(addr(reps[0]), true)
	if err := nodes[0].Put(ctx, batchRing, key, []byte("v1"), nil, WriteOptions{}); err != nil {
		t.Fatalf("Put with one replica dead: %v", err)
	}
	mesh.SetDown(addr(reps[1]), true)
	err := nodes[0].Put(ctx, batchRing, key, []byte("v2"), nil, WriteOptions{})
	if want := fmt.Sprintf("partition %d:", part); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Put with two replicas dead: err = %v, want a quorum shortfall naming %q", err, want)
	}
}
