package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"skute/internal/cluster"
	"skute/internal/experiments"
	"skute/internal/transport"
)

// TestMain loads the contract the way main does: every test reports
// under BENCHMARK.json's names.
func TestMain(m *testing.M) {
	if err := loadContract("../BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(m.Run())
}

// TestContract keeps BENCHMARK.json inside the driver's limits and the
// predictions in step with its per-layer names. (That it names the
// program's workloads is loadContract's check; that the program reports
// exactly its metrics is TestSmoke's.)
func TestContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) < 2 || len(c.Workloads) > 8 || len(c.EndToEnd) < 1 || len(c.EndToEnd) > 16 || len(c.PerLayer) < 1 || len(c.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer: outside 2-8 / 1-16 / 1-128", len(c.Workloads), len(c.EndToEnd), len(c.PerLayer))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range c.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range c.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range append(append([]metricDef(nil), c.EndToEnd...), c.PerLayer...) {
		check(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range c.PerLayer {
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
		if _, ok := predictions[d.Name]; !ok {
			t.Errorf("%s: no prediction (moves / on) recorded in layers.go", d.Name)
		}
	}
	if len(predictions) != len(c.PerLayer) {
		t.Errorf("%d predictions for %d per-layer metrics", len(predictions), len(c.PerLayer))
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1-60", c.RunSeconds)
	}
	if !reflect.DeepEqual(c.Paths, []string{"benchmark"}) || !reflect.DeepEqual(c.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command %v, paths %v", c.Command, c.Paths)
	}
}

// appendTo serialises the request so that two generated
// sequences can be compared byte for byte.
func (r *request) appendTo(b []byte) []byte {
	flag := byte(0)
	if r.rmw {
		flag = 1
	}
	b = append(b, flag)
	b = binary.BigEndian.AppendUint32(b, uint32(r.pad))
	b = binary.BigEndian.AppendUint64(b, uint64(r.gap))
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.keys)))
	for _, k := range r.keys {
		b = binary.BigEndian.AppendUint32(b, uint32(k))
	}
	return b
}

// TestGeneratorDeterministic: one seed, one request sequence, byte for
// byte; another seed, another sequence.
func TestGeneratorDeterministic(t *testing.T) {
	encode := func(sp *spec, seed int64) []byte {
		d := newDataset(sp, seed)
		var b []byte
		for client := 0; client < 2; client++ {
			g := newGenerator(d, client, sp.openRate/2)
			for i := 0; i < 500; i++ {
				r := g.next()
				b = r.appendTo(b)
				if r.rmw {
					b = append(b, d.value(r.keys[0], uint64(i), r.pad)...)
				}
			}
		}
		for _, k := range d.keys[:100] {
			b = append(b, k...)
		}
		return b
	}
	for i := range specs {
		sp := &specs[i]
		if sp.economy {
			continue
		}
		a, b, c := encode(sp, 7), encode(sp, 7), encode(sp, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different request sequences", sp.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same request sequence", sp.name)
		}
	}
}

// smokeEnv is the benchmark shrunk to run in about a second per pass:
// three nodes over loopback TCP, memory engines, one-second windows.
func smokeEnv(t *testing.T) env {
	return env{
		shape:      shape{nodes: 3, replicas: 3, memory: true},
		workdir:    t.TempDir(),
		clients:    2,
		setups:     1,
		warmup:     200 * time.Millisecond,
		seconds:    time.Second,
		verifyKeys: 100,
		simScale:   experiments.Quick,
	}
}

// checkNames fails unless the run reported exactly the declared metrics
// of its pass.
func checkNames(t *testing.T, r *result) {
	t.Helper()
	var want, got []string
	for _, d := range defsOf(r.Trace) {
		want = append(want, d.Name)
	}
	for name := range r.Metrics {
		got = append(got, name)
	}
	sort.Strings(want)
	sort.Strings(got)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s trace %d reported %v, declared %v", r.Workload, r.Trace, got, want)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s trace %d: correct %v, %d of %d failed; notes %v", r.Workload, r.Trace, r.Correct, r.Failed, r.Attempted, r.Notes)
	}
	if r.Trace == 0 {
		for name, m := range r.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v", r.Workload, name, m.Value)
			}
		}
	}
}

// TestSmoke runs both passes of an open-loop, a batched and the economy
// workload on the shrunken set-up and checks that every declared metric,
// and nothing else, is reported.
func TestSmoke(t *testing.T) {
	e := smokeEnv(t)
	small := func(name string) *spec {
		sp := *specByName(name)
		sp.hotKeys, sp.coldKeys = 1000, min(sp.coldKeys, 2000)
		sp.openRate, sp.ladder = sp.openRate/4, []float64{sp.openRate / 2}
		return &sp
	}
	for _, run := range []struct {
		name  string
		trace int
	}{{"quorum-read-mostly-open", 0}, {"quorum-read-mostly-open", 1}, {"batch-mget", 0}, {"one-read-hot", 0}} {
		r, err := runKV(small(run.name), 1, run.trace, e)
		if err != nil {
			t.Fatalf("%s trace %d: %v", run.name, run.trace, err)
		}
		checkNames(t, r)
	}
	for trace := 0; trace <= 1; trace++ {
		r, err := runEconomy(specByName("economy-epochs"), 1, trace, e)
		if err != nil {
			t.Fatalf("economy-epochs trace %d: %v", trace, err)
		}
		checkNames(t, r)
	}
}

// TestLinkSynthetic feeds link a hand-built operation whose budget is
// known exactly.
func TestLinkSynthetic(t *testing.T) {
	spans := []span{
		{Name: spanOp, Kind: "read", Who: "c0", Start: 0, End: 100},
		{Name: spanCall, Kind: "client-get", Who: "c0", Peer: "n0", Start: 5, End: 95},
		{Name: spanHandle, Kind: "client-get", Who: "n0", Start: 15, End: 85},
		{Name: spanCall, Kind: "multi-get", Who: "n0", Peer: "n1", Start: 20, End: 60},
		{Name: spanHandle, Kind: "multi-get", Who: "n1", Start: 30, End: 50},
		{Name: spanCall, Kind: "multi-get", Who: "n0", Peer: "n2", Start: 25, End: 70},
		{Name: spanHandle, Kind: "multi-get", Who: "n2", Start: 40, End: 55},
		// A heartbeat in the middle belongs to no budget.
		{Name: spanCall, Kind: "heartbeat", Who: "n3", Peer: "n0", Start: 30, End: 45},
		// A repair the coordinator started after answering, ending after
		// the client had its reply.
		{Name: spanCall, Kind: "multi-put", Who: "n0", Peer: "n1", Start: 90, End: 130},
		{Name: spanHandle, Kind: "multi-put", Who: "n1", Start: 96, End: 120},
	}
	budgets := link(spans)
	if len(budgets) != 1 {
		t.Fatalf("got %d budgets, want 1", len(budgets))
	}
	want := opBudget{
		kind: "read", op: 100,
		clientSelf:    10, // 100 - 90
		wireClient:    20, // 90 - 70
		coordSelf:     20, // 70 - union [20,70]
		fanoutWait:    50,
		wireReplica:   45 - 15, // the call to n2 ended last
		replicaHandle: 15,
		fanout:        2,
		afterAck:      40, // the repair call, wholly outside the handle
	}
	if budgets[0] != want {
		t.Errorf("budget %+v, want %+v", budgets[0], want)
	}
	for _, s := range spans {
		if s.Kind == "heartbeat" && s.Parent != -1 {
			t.Errorf("heartbeat has parent %d", s.Parent)
		}
		if s.Name == spanHandle && s.Kind == "multi-get" && (s.Parent < 0 || spans[s.Parent].Name != spanCall || spans[s.Parent].Peer != s.Who) {
			t.Errorf("replica handle on %s has parent %d", s.Who, s.Parent)
		}
	}
}

// TestTraceReconciles traces a toy cluster over the in-memory transport,
// every hop slowed by a fixed delay so that the hops dominate, and checks
// that the self-times sum to the operation.
func TestTraceReconciles(t *testing.T) {
	rec := newRecorder()
	sh := shape{nodes: 3, replicas: 3}
	nodes, mesh, err := memoryCluster(sh, rec.wrap)
	if err != nil {
		t.Fatal(err)
	}
	var coords []*cluster.Client
	for i := range nodes {
		addr := memAddr(i)
		rec.nodeOf[addr] = nodes[i].Name()
		mesh.SetDelay(addr, time.Millisecond)
		coords = append(coords, cluster.NewClient(rec.wrap("c0", transport.Transport(mesh)), addr))
	}
	hook := rec.opHook("c0")
	rec.on.Store(true)
	value := make([]byte, 256)
	for i := 0; i < 100; i++ {
		c := coords[i%len(coords)]
		key := "toy-" + string(rune('a'+i%7))
		start := time.Now()
		_, vc, err := c.Get(bgCtx, benchRing, key, cluster.ReadOptions{Consistency: cluster.ConsistencyQuorum})
		hook(opRead, start, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		start = time.Now()
		err = c.Put(bgCtx, benchRing, key, value, vc, cluster.WriteOptions{Consistency: cluster.ConsistencyQuorum})
		hook(opWrite, start, time.Now())
		if err != nil {
			t.Fatal(err)
		}
	}
	rec.on.Store(false)
	time.Sleep(10 * time.Millisecond) // tail replication finishes recording
	rec.mu.Lock()
	spans := rec.spans
	rec.mu.Unlock()
	budgets := link(spans)
	if len(budgets) != 200 {
		t.Fatalf("%d budgets from 200 operations", len(budgets))
	}
	for _, kind := range []string{"read", "write"} {
		s := summarize(budgets, kind)
		if s.n != 100 || s.fanout < 1 || s.wireReplica <= 0 || s.wireClient <= 0 {
			t.Errorf("%s: %+v", kind, s)
		}
		if s.unaccounted >= 0.10 {
			t.Errorf("%s: parts do not sum to the operation: %+v", kind, s)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	runs := func(throughput ...float64) []*result {
		var out []*result
		for _, v := range throughput {
			out = append(out, &result{Workload: "w", Attempted: 1000, Metrics: map[string]metric{
				"throughput_ops_s": {Value: v, Unit: "1/s"},
			}})
		}
		return out
	}
	verdict := func(a, b []*result) (string, bool) {
		rows, bad := compareRuns(a, b)
		for _, r := range rows {
			if r.metric == "throughput_ops_s" {
				return r.verdict, bad
			}
		}
		t.Fatal("no throughput row")
		return "", false
	}
	base := runs(1000, 1005, 995, 1002, 998)
	if v, bad := verdict(base, runs(990, 1000, 985, 995, 992)); v != "same" || bad {
		t.Errorf("1%% lower: %s, bad %v", v, bad)
	}
	if v, bad := verdict(base, runs(700, 705, 695, 702, 698)); v != "worse" || !bad {
		t.Errorf("30%% lower: %s, bad %v", v, bad)
	}
	if v, bad := verdict(base, runs(500, 1500, 700, 1300, 1000)); v != "unresolved" || bad {
		t.Errorf("wide spread: %s, bad %v", v, bad)
	}
	short := runs(1000, 1000)
	short[1].Seconds = 5
	if err := sameWindow(base, short); err == nil {
		t.Error("runs of 0s and 5s windows were accepted side by side")
	}
	if err := sameWindow(base, runs(1000)); err != nil {
		t.Errorf("equal windows refused: %v", err)
	}
	failing := runs(1000, 1000)
	failing[0].Failed = 100
	if _, bad := compareRuns(base, failing); !bad {
		t.Error("a higher failed share passed")
	}
}
