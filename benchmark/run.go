package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"

	"skute/internal/cluster"
	"skute/internal/experiments"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one run of one workload: the contract's four
// fields plus what identifies the run.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	// Seconds is the measured window the run was asked for; `compare`
	// refuses to set runs of different windows side by side.
	Seconds   float64           `json:"seconds"`
	WallS     float64           `json:"wall_s"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes are the run's human-readable remarks (sample counts, the
	// window p99 fell back to, failed checks).
	Notes []string `json:"notes,omitempty"`
}

func newResult(sp *spec, seed int64, trace int, e env) *result {
	return &result{Workload: sp.name, Seed: seed, Trace: trace, Seconds: e.seconds.Seconds(), Metrics: map[string]metric{}}
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// env is how a run is scaled: main builds the benchmark's own; the
// smoke test shrinks everything.
type env struct {
	shape   shape
	workdir string
	// clients is the number of load goroutines: nproc.
	clients int
	// setups is how many times set-up runs (its median is reported).
	setups  int
	warmup  time.Duration
	seconds time.Duration
	// verifyKeys is how many seeded keys the end-of-run check reads.
	verifyKeys int
	// simScale is the size of the economy job's experiments.
	simScale experiments.Scale
	traceOut string
}

// usage is a reading of the process's resource counters.
type usage struct {
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNS  uint64
	wal        int64
}

func takeUsage(tc *testCluster) usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := usage{
		cpu:        cpuTime(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		gcPauseNS:  ms.PauseTotalNs,
	}
	if tc != nil {
		u.wal = tc.walBytes()
	}
	return u
}

// rssPeakMB is the process's peak resident set so far.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail: valid who, valid pointer
	return float64(ru.Maxrss) / 1024            // Linux reports KiB
}

// setupKV boots a cluster and preloads the workload's keys; the time it
// takes is the KV workloads' set-up time.
func setupKV(sp *spec, d *dataset, e env, wrap wrapFunc) (*testCluster, *kvRun, time.Duration, error) {
	start := time.Now()
	dir, err := os.MkdirTemp(e.workdir, sp.name+"-")
	if err != nil {
		return nil, nil, 0, err
	}
	tc, err := bootCluster(e.shape, dir, wrap)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, 0, err
	}
	run := newKVRun(sp, d, tc, e.clients, wrap)
	if err := run.preload(); err != nil {
		run.close()
		tc.close()
		return nil, nil, 0, err
	}
	return tc, run, time.Since(start), nil
}

// warm runs the discarded warm-up and fails fast: one error here would
// become an error storm in the measured window.
func warm(run *kvRun, e env) error {
	st := run.phase(e.warmup, run.clients, run.sp.openRate)
	if st.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d operations failed, first: %v", st.failed, st.attempted, st.firstErr)
	}
	return run.tc.healthy()
}

// verify reads n seeded keys at quorum and checks that no acknowledged
// write was lost: the highest sequence number read must be at least the
// highest acknowledged for the key. It returns the lost count and the
// mean sibling count per key (which must stay about 1).
func (r *kvRun) verify(n int) (lost int, siblings float64, err error) {
	rng := rand.New(rand.NewSource(r.d.seed ^ 0x5eed))
	if n > len(r.d.keys) {
		n = len(r.d.keys)
	}
	c := r.clients[0]
	values := 0
	for _, ki := range rng.Perm(len(r.d.keys))[:n] {
		k := int32(ki)
		vals, _, err := c.coord().Get(bgCtx, benchRing, r.d.keys[k], cluster.ReadOptions{
			Consistency: cluster.ConsistencyQuorum, Timeout: opTimeout,
		})
		if err != nil {
			return 0, 0, fmt.Errorf("verify read of %s: %w", r.d.keys[k], err)
		}
		var high uint64
		for _, v := range vals {
			seq, ok := r.d.check(k, v)
			if !ok {
				return 0, 0, fmt.Errorf("verify read of %s: value fails the check", r.d.keys[k])
			}
			high = max(high, seq)
		}
		if high < r.acked[k].Load() {
			lost++
		}
		values += len(vals)
	}
	return lost, float64(values) / float64(n), nil
}

// runKV runs one KV workload once. trace 0 yields the end-to-end
// metrics, trace 1 the per-layer ones.
func runKV(sp *spec, seed int64, trace int, e env) (*result, error) {
	began := time.Now()
	res := newResult(sp, seed, trace, e)
	d := newDataset(sp, seed)
	if trace == 1 {
		if err := runKVLayers(sp, d, e, res); err != nil {
			return nil, err
		}
		res.WallS = time.Since(began).Seconds()
		return res, nil
	}

	// Set-up runs several times; the last cluster is the one measured.
	var tc *testCluster
	var run *kvRun
	var setups []float64
	for i := 0; i < e.setups; i++ {
		if run != nil {
			run.close()
			tc.close()
		}
		var took time.Duration
		var err error
		if tc, run, took, err = setupKV(sp, d, e, nil); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer tc.close()
	defer run.close()
	if err := warm(run, e); err != nil {
		return nil, err
	}

	before := takeUsage(tc)
	st := run.phase(e.seconds, run.clients, sp.openRate)
	after := takeUsage(tc)
	if err := tc.healthy(); err != nil {
		return nil, err
	}
	lost, siblings, err := run.verify(e.verifyKeys)
	if err != nil {
		return nil, err
	}

	res.Attempted, res.Failed = st.attempted, st.failed
	res.Correct = st.wrong == 0 && lost == 0
	if st.firstErr != nil {
		res.notef("first failure: %v", st.firstErr)
	}
	if lost > 0 {
		res.notef("%d acknowledged writes lost among %d keys read back", lost, e.verifyKeys)
	}
	ops := float64(st.attempted)
	sd := st.steady()
	res.set(endToEnd, "setup_s", median(setups))
	res.set(endToEnd, "throughput_ops_s", sd.throughput)
	res.set(endToEnd, "read_p50_us", sd.p50us[opRead])
	res.set(endToEnd, "write_p50_us", sd.p50us[opWrite])
	res.set(endToEnd, "cpu_us_per_op", sd.cpuPerOpUS)
	res.notef("whole window: %.1f ops/s, read p50 %.1f us, write p50 %.1f us, %.1f us CPU per op",
		ops/st.dur.Seconds(), p50us(st.samples[opRead]), p50us(st.samples[opWrite]), float64((after.cpu-before.cpu).Microseconds())/ops)
	for kind, name := range []string{opRead: "read", opWrite: "write"} {
		p99, window := tailP99us(st.samples[kind], st.dur)
		res.notef("%s: %d samples, p99 %.1f us (median of per-%v p99s)", name, len(st.samples[kind]), p99, window.Round(time.Second))
	}
	if len(st.late) > 0 {
		slices.Sort(st.late)
		res.notef("open loop: sends ran late by p50 %.1f us, p99 %.1f us", us(quantile(st.late, 0.5)), us(quantile(st.late, 0.99)))
	}
	res.notef("siblings per key %.3f, disk bytes per user byte %.2f", siblings,
		float64(after.wal-before.wal)/float64(max(st.userBytes, 1)))
	res.WallS = time.Since(began).Seconds()
	return res, nil
}

// walFilesystem names the filesystem type behind dir, for the report
// header: fsync cost is this filesystem's, not a device's.
func walFilesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("type 0x%X", st.Type)
}

// traceSlices is how many untraced/traced pairs the traced pass makes.
const traceSlices = 5

// rungLimitUS is the read p99 (from the scheduled send) a rate must stay
// under to count as sustained. The issue proposed 5 ms; measured, the
// five nodes' shared heap makes every garbage collection's mark phase
// (about 25 ms, every 0.6 s at 4000/s) draft each allocating goroutine
// into assisting, so the per-second p99 is 8-30 ms at every rate the
// store keeps up with (2000-8000/s here) and climbs from there once a
// backlog forms. 50 ms tells the two apart; 5 ms would read 0 on every
// rung.
const rungLimitUS = 50000

// runKVLayers is the traced run of a KV workload: a load window that
// the public counters and histograms are read around, a one-client
// closed-loop pass with tracing off and then on (so that every span
// between an operation's start and end belongs to it), the open loop's
// rate ladder, and the layer probes.
func runKVLayers(sp *spec, d *dataset, e env, res *result) error {
	rec := newRecorder()
	tc, run, _, err := setupKV(sp, d, e, rec.wrap)
	if err != nil {
		return err
	}
	defer tc.close()
	defer run.close()
	for i, addr := range tc.addrs {
		rec.nodeOf[addr] = tc.nodes[i].Name()
	}
	if err := warm(run, e); err != nil {
		return err
	}
	for _, m := range perLayer {
		res.set(perLayer, m.Name, 0)
	}
	set := func(name string, v float64) { res.set(perLayer, name, v) }

	// The load window: the workload's own loop and client count.
	lb, ub := takeLayers(tc, rec), takeUsage(tc)
	st := run.phase(e.seconds/2, run.clients, sp.openRate)
	la, ua := takeLayers(tc, rec), takeUsage(tc)
	// Every phase of the run counts toward attempted, failed and correct.
	var wrong int64
	count := func(p *phaseStats) {
		res.Attempted += p.attempted
		res.Failed += p.failed
		wrong += p.wrong
	}
	count(st)
	setLayerDeltas(res, sp, lb, la, ub, ua, st, tc)
	setProcessDeltas(res, ub, ua, float64(st.attempted))
	set("process.goroutines", float64(runtime.NumGoroutine()))
	readP99, _ := tailP99us(st.samples[opRead], st.dur)
	writeP99, _ := tailP99us(st.samples[opWrite], st.dur)
	set("client.read_p99_us", readP99)
	set("client.write_p99_us", writeP99)
	set("client.failed_frac", ratio(float64(st.failed), float64(st.attempted)))

	// The open loop: how late the generator ran, what it achieved, and
	// the highest rung of the ladder that kept the read p99 under the
	// limit without failures, shedding or a growing backlog (sends that
	// fall behind their schedule run out of window, so achieved < offered).
	if sp.openRate > 0 {
		slices.Sort(st.late)
		set("loadgen.late_p99_us", us(quantile(st.late, 0.99)))
		set("loadgen.achieved_qps", float64(len(st.late))/st.dur.Seconds())
		sustained := 0.0
		rungs := append([]float64{sp.openRate}, sp.ladder...)
		for i, rate := range rungs {
			rung, shed := st, la.shed-lb.shed
			if i > 0 {
				before := takeLayers(tc, rec).shed
				rung = run.phase(e.seconds/4, run.clients, rate)
				shed = takeLayers(tc, rec).shed - before
				count(rung)
			}
			p99, _ := tailP99us(rung.samples[opRead], rung.dur)
			achieved := float64(len(rung.late)) / rung.dur.Seconds()
			res.notef("rate ladder: offered %.0f/s, sent %.0f/s, read p99 %.0f us, %d failed, %d shed", rate, achieved, p99, rung.failed, shed)
			if p99 <= rungLimitUS && rung.failed == 0 && shed == 0 && achieved >= 0.95*rate {
				sustained = max(sustained, rate)
			}
		}
		set("loadgen.max_rate_qps", sustained)
	}

	// The traced pass: one closed-loop client, tracing off and on in
	// alternating slices so that a drift of the machine hits both alike
	// (the overhead is the difference of two medians). Two fifths of the
	// time go to the untraced slices, three fifths to the traced ones.
	one := run.clients[:1]
	untraced, traced := &phaseStats{}, &phaseStats{}
	for slice := 0; slice < traceSlices; slice++ {
		untraced.add(run.phase(e.seconds/5/traceSlices, one, 0))
		one[0].onOp = rec.opHook("c0")
		rec.on.Store(true)
		traced.add(run.phase(e.seconds*3/10/traceSlices, one, 0))
		rec.on.Store(false)
		one[0].onOp = nil
	}
	count(untraced)
	count(traced)
	// Handlers still running (tail replication) finish recording.
	time.Sleep(50 * time.Millisecond)
	rec.mu.Lock()
	spans := rec.spans
	rec.spans = nil
	rec.mu.Unlock()
	budgets := link(spans)
	for kind, name := range []string{opRead: "read", opWrite: "write"} {
		s := summarize(budgets, name)
		setBudget(res, name, s, p50us(untraced.samples[kind]), p50us(traced.samples[kind]))
		res.notef("traced %s: %d operations, %d spans in all", name, s.n, len(spans))
	}
	if e.traceOut != "" {
		if err := writeSpans(e.traceOut, spans); err != nil {
			return err
		}
	}

	if err := tc.healthy(); err != nil {
		return err
	}
	lost, siblings, err := run.verify(e.verifyKeys)
	if err != nil {
		return err
	}
	set("cluster.siblings_per_key", siblings)
	res.Correct = wrong == 0 && lost == 0
	if lost > 0 {
		res.notef("%d acknowledged writes lost among %d keys read back", lost, e.verifyKeys)
	}
	return runProbes(res, e.workdir)
}
