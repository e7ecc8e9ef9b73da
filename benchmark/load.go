package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"skute/internal/cluster"
	"skute/internal/transport"
	"skute/internal/vclock"
)

// opKind classifies a client operation for the latency tables.
type opKind int

const (
	opRead  opKind = iota // the workload's read: Get or MGet(readBatch)
	opWrite               // the workload's write: Put or MPut(writeBatch)
	opAux                 // an RMW read leg that is not the workload's read
	numKinds
)

var bgCtx = context.Background()

// opTimeout bounds every client operation, as a real client would.
const opTimeout = 2 * time.Second

// failLatency is the latency charged to a failed, refused or
// wrong-valued operation: it misses any limit.
const failLatency = int64(time.Hour)

// sample is one completed operation: when it completed (ns since the
// phase started) and how long it took (ns; from the scheduled send time
// in an open loop).
type sample struct{ at, lat int64 }

// phaseStats is what one phase of load produced.
type phaseStats struct {
	dur       time.Duration
	samples   [numKinds][]sample
	attempted int64
	failed    int64
	// wrong counts operations that returned but with a value failing the
	// inline check; they are included in failed.
	wrong int64
	// userBytes is the value bytes of acknowledged writes.
	userBytes int64
	// late is how far behind schedule each open-loop send went out (ns).
	late     []int64
	firstErr error
	// ticks are readings of the process's CPU time taken about once a
	// second through the phase, the first at its start and the last at
	// its end; they cut the phase into the intervals summarize takes
	// medians over.
	ticks []tick
}

// tick is one reading: ns since the phase started, and the CPU time
// (user + system) the process had used by then.
type tick struct{ at, cpu int64 }

// kvRun is the shared state of one KV workload run.
type kvRun struct {
	sp *spec
	d  *dataset
	tc *testCluster
	// seq numbers every written value; a causally later write always
	// carries a higher number (it is drawn after the read it depends on).
	seq atomic.Uint64
	// acked[k] is the highest sequence number acknowledged for key k.
	acked   []atomic.Uint64
	clients []*client
}

// client is one load goroutine's endpoint: its own transport (so its own
// connection per coordinator) and one cluster.Client per coordinator,
// used round-robin.
type client struct {
	id     int
	r      *kvRun
	tcp    *transport.TCP
	coords []*cluster.Client
	turn   int
	gen    *generator
	st     *phaseStats
	start  time.Time
	// onOp, when set, is told about every operation (the traced pass
	// records client.op spans through it).
	onOp func(kind opKind, start, end time.Time)
}

func newKVRun(sp *spec, d *dataset, tc *testCluster, nclients int, wrap wrapFunc) *kvRun {
	r := &kvRun{sp: sp, d: d, tc: tc, acked: make([]atomic.Uint64, len(d.keys))}
	for i := 0; i < nclients; i++ {
		c := &client{id: i, r: r, tcp: transport.NewTCP(), gen: newGenerator(d, i, 0)}
		var tr transport.Transport = c.tcp
		if wrap != nil {
			tr = wrap(fmt.Sprintf("c%d", i), tr)
		}
		for _, addr := range tc.addrs {
			c.coords = append(c.coords, cluster.NewClient(tr, addr))
		}
		// Clients start on different coordinators.
		c.turn = i
		r.clients = append(r.clients, c)
	}
	return r
}

func (r *kvRun) close() {
	for _, c := range r.clients {
		c.tcp.Close()
	}
}

func (c *client) coord() *cluster.Client {
	cl := c.coords[c.turn%len(c.coords)]
	c.turn++
	return cl
}

func (c *client) record(kind opKind, base, start time.Time, err error, wrong bool) {
	end := time.Now()
	c.st.attempted++
	lat := end.Sub(base).Nanoseconds()
	if err != nil || wrong {
		c.st.failed++
		if wrong {
			c.st.wrong++
			err = fmt.Errorf("client %d: value failed the inline check", c.id)
		}
		if c.st.firstErr == nil {
			c.st.firstErr = err
		}
		lat = failLatency
	}
	c.st.samples[kind] = append(c.st.samples[kind], sample{at: end.Sub(c.start).Nanoseconds(), lat: lat})
	if c.onOp != nil {
		c.onOp(kind, start, end)
	}
}

// read performs the workload's read of keys at level and checks every
// returned value. It returns the causal context per key.
func (c *client) read(keys []int32, level cluster.Consistency) (ctxs []vclock.VC, wrong bool, err error) {
	d := c.r.d
	opts := cluster.ReadOptions{Consistency: level, Timeout: opTimeout}
	ctxs = make([]vclock.VC, len(keys))
	if len(keys) == 1 {
		vals, vc, err := c.coord().Get(bgCtx, benchRing, d.keys[keys[0]], opts)
		if err != nil {
			return nil, false, err
		}
		ctxs[0] = vc
		return ctxs, !c.checkValues(keys[0], vals), nil
	}
	names := make([]string, len(keys))
	for i, k := range keys {
		names[i] = d.keys[k]
	}
	res, err := c.coord().MGet(bgCtx, benchRing, names, opts)
	if err != nil {
		return nil, false, err
	}
	for i, k := range keys {
		item := res[names[i]]
		ctxs[i] = item.Context
		if !c.checkValues(k, item.Values) {
			wrong = true
		}
	}
	return ctxs, wrong, nil
}

// checkValues validates the sibling values read for key k: every key is
// preloaded, so at least one value must come back and each must carry
// the key's hash and the workload's size.
func (c *client) checkValues(k int32, vals [][]byte) bool {
	if len(vals) == 0 {
		return false
	}
	for _, v := range vals {
		if _, ok := c.r.d.check(k, v); !ok {
			return false
		}
	}
	return true
}

// write stores fresh values for keys under the given contexts (nil for
// the blind preload) and remembers the acknowledged sequence numbers.
func (c *client) write(keys []int32, ctxs []vclock.VC, pad int32) error {
	r := c.r
	opts := cluster.WriteOptions{Consistency: cluster.ConsistencyQuorum, Timeout: opTimeout}
	seqs := make([]uint64, len(keys))
	var err error
	if len(keys) == 1 {
		seqs[0] = r.seq.Add(1)
		var vc vclock.VC
		if ctxs != nil {
			vc = ctxs[0]
		}
		err = c.coord().Put(bgCtx, benchRing, r.d.keys[keys[0]], r.d.value(keys[0], seqs[0], pad), vc, opts)
	} else {
		entries := make([]cluster.Entry, len(keys))
		for i, k := range keys {
			seqs[i] = r.seq.Add(1)
			entries[i] = cluster.Entry{Key: r.d.keys[k], Value: r.d.value(k, seqs[i], pad)}
			if ctxs != nil {
				entries[i].Context = ctxs[i]
			}
		}
		err = c.coord().MPut(bgCtx, benchRing, entries, opts)
	}
	if err != nil {
		return err
	}
	for i, k := range keys {
		for {
			cur := r.acked[k].Load()
			if seqs[i] <= cur || r.acked[k].CompareAndSwap(cur, seqs[i]) {
				break
			}
		}
	}
	c.st.userBytes += int64(len(keys) * r.sp.valueBytes)
	return nil
}

// do executes one generated request. base is the time latency counts
// from: the scheduled send in an open loop, now in a closed one.
func (c *client) do(req request, base time.Time) {
	sp := c.r.sp
	start := time.Now()
	if !req.rmw {
		_, wrong, err := c.read(req.keys, sp.readLevel)
		c.record(opRead, base, start, err, wrong)
		return
	}
	kind := opAux
	if sp.rmwReadIsRead() {
		kind = opRead
	}
	ctxs, wrong, err := c.read(req.keys, cluster.ConsistencyQuorum)
	c.record(kind, base, start, err, wrong)
	if err != nil {
		return
	}
	start = time.Now()
	err = c.write(req.keys, ctxs, req.pad)
	c.record(opWrite, start, start, err, false)
}

// phase offers load for d: a closed loop per client when rate is 0, an
// open loop at rate arrivals per second (split evenly over the clients as
// senders, Poisson gaps) otherwise.
func (r *kvRun) phase(d time.Duration, clients []*client, rate float64) *phaseStats {
	start := time.Now()
	deadline := start.Add(d)
	total := &phaseStats{}
	readTick := func() { total.ticks = append(total.ticks, tick{time.Since(start).Nanoseconds(), int64(cpuTime())}) }
	readTick()
	stopTicks, ticksDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ticksDone)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				readTick()
			case <-stopTicks:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for _, c := range clients {
		c.st = &phaseStats{}
		c.start = start
		c.gen.rate = rate / float64(len(clients))
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			if rate == 0 {
				for time.Now().Before(deadline) {
					c.do(c.gen.next(), time.Now())
				}
				return
			}
			c.sendOpen(start, deadline)
		}(c)
	}
	wg.Wait()
	close(stopTicks)
	<-ticksDone
	readTick()
	total.dur = time.Since(start)
	for _, c := range clients {
		total.add(c.st)
	}
	return total
}

// add pools another phase's (or one client's) samples and counts into p.
func (p *phaseStats) add(o *phaseStats) {
	for k := range p.samples {
		p.samples[k] = append(p.samples[k], o.samples[k]...)
	}
	p.attempted += o.attempted
	p.failed += o.failed
	p.wrong += o.wrong
	p.userBytes += o.userBytes
	p.late = append(p.late, o.late...)
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
}

// openInflight bounds the operations one open-loop sender has in flight.
// It is deliberately below a node's admission bound (256): a run must
// not fail operations, so past saturation the senders fall behind their
// schedule (loadgen.late_p99_us, loadgen.achieved_qps) instead of
// pushing the store into shedding. Below saturation it never binds: at
// 8000/s and the 25 ms a garbage collection stalls everything, a sender
// has 100 arrivals due, and only those see the bound.
const openInflight = 32

// sendOpen is one open-loop sender. It draws Poisson arrivals, sleeps to
// each scheduled time and hands the request to one of its openInflight
// workers, so a slow operation delays none of the arrivals behind it;
// only when every worker is busy does the hand-off block and later sends
// go out late. The workers share the sender's transport and coordinators
// (connections per peer stay the transport's own choice) and pool their
// samples into the sender's at the end. A pacing error fails the phase.
func (c *client) sendOpen(start, deadline time.Time) {
	type arrival struct {
		req   request
		sched time.Time
	}
	arrivals := make(chan arrival)
	workers := make([]*client, openInflight)
	var wg sync.WaitGroup
	for i := range workers {
		w := *c
		w.st = &phaseStats{}
		w.turn = c.turn + i
		workers[i] = &w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range arrivals {
				w.do(a.req, a.sched)
			}
		}()
	}
	pace, err := newPacer()
	sched := start
	for err == nil {
		req := c.gen.next()
		sched = sched.Add(req.gap)
		if sched.After(deadline) {
			break
		}
		if err = pace.sleep(time.Until(sched)); err != nil {
			break
		}
		c.st.late = append(c.st.late, time.Since(sched).Nanoseconds())
		arrivals <- arrival{req, sched}
	}
	if pace != nil {
		pace.f.Close()
	}
	close(arrivals)
	wg.Wait()
	for _, w := range workers {
		c.st.add(w.st)
	}
	if err != nil {
		// A sender that cannot pace offered nothing: the phase has failed.
		c.st.attempted++
		c.st.failed++
		c.st.firstErr = fmt.Errorf("open-loop sender %d: %w", c.id, err)
	}
}

// cpuTime is the user + system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail: valid who, valid pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pacer wakes a sender at its scheduled times through a timerfd that the
// runtime's network poller watches, so an arrival reaches the process the
// way a request from outside does: as a readable descriptor. Neither of
// the obvious sleeps does for an open loop, whose latency counts from the
// scheduled send. time.Sleep parks on the runtime's timers, which an idle
// runtime serves from epoll_wait with a timeout rounded up to a
// millisecond: senders woke a median 0.5 ms late and that read as service
// time. A raw nanosleep(2) keeps the sender's processor (P) in a syscall
// until the monitor thread takes it back, which stalls whatever the
// sender had just made runnable.
type pacer struct {
	fd  uintptr
	f   *os.File
	buf [8]byte
}

func newPacer() (*pacer, error) {
	const tfdNonblock, tfdCloexec = 0x800, 0x80000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks the calling goroutine for d.
func (p *pacer) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	// struct itimerspec: no interval, one expiry d from now.
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := p.f.Read(p.buf[:])
	return err
}

// preload writes every key once with blind MPut(64) batches, split over
// the clients.
func (r *kvRun) preload() error {
	const batch = 64
	n := len(r.d.keys)
	var wg sync.WaitGroup
	errs := make([]error, len(r.clients))
	for ci, c := range r.clients {
		c.st = &phaseStats{}
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for lo := ci * batch; lo < n; lo += batch * len(r.clients) {
				keys := make([]int32, 0, batch)
				for k := lo; k < lo+batch && k < n; k++ {
					keys = append(keys, int32(k))
				}
				if err := c.write(keys, nil, int32(lo%padSpan)); err != nil {
					errs[ci] = fmt.Errorf("preload: %w", err)
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// lats extracts the latencies of samples, sorted ascending.
func lats(ss []sample) []int64 {
	out := make([]int64, len(ss))
	for i, s := range ss {
		out[i] = s.lat
	}
	slices.Sort(out)
	return out
}

// quantile is the exact q-quantile of sorted values (nearest rank), 0
// when there are none.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(int(math.Ceil(q*float64(len(sorted))))-1, 0)]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// us converts nanoseconds to microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// p50us is the median latency in microseconds.
func p50us(ss []sample) float64 { return us(quantile(lats(ss), 0.50)) }

// minMedianSamples is how many samples an interval needs for its median
// latency to count.
const minMedianSamples = 50

// steady is the run's steady-state summary: each number is the median
// over the phase's one-second intervals of that interval's value, so a
// second disturbed from outside (this is a shared two-core sandbox)
// moves a metric far less than it would move the whole window's mean.
type steady struct {
	throughput float64 // operations per second
	cpuPerOpUS float64 // process CPU per operation
	p50us      [numKinds]float64
}

func (p *phaseStats) steady() steady {
	n := len(p.ticks) - 1
	ops := make([]float64, n)
	byKind := [numKinds][][]int64{}
	for k := range byKind {
		byKind[k] = make([][]int64, n)
	}
	for k, ss := range p.samples {
		for _, s := range ss {
			// The interval whose end is the first tick after the sample.
			i := sort.Search(n, func(i int) bool { return p.ticks[i+1].at > s.at })
			if i == n {
				i = n - 1
			}
			ops[i]++
			byKind[k][i] = append(byKind[k][i], s.lat)
		}
	}
	var out steady
	var rates, cpus []float64
	for i := 0; i < n; i++ {
		span := p.ticks[i+1].at - p.ticks[i].at
		// The last interval is whatever was left of the phase; a sliver
		// says nothing about a rate.
		if span < int64(time.Second)/2 && n > 1 {
			continue
		}
		rates = append(rates, ops[i]/(float64(span)/1e9))
		if ops[i] > 0 {
			cpus = append(cpus, float64(p.ticks[i+1].cpu-p.ticks[i].cpu)/1e3/ops[i])
		}
	}
	out.throughput, out.cpuPerOpUS = median(rates), median(cpus)
	for k := range byKind {
		var meds []float64
		for _, l := range byKind[k] {
			if len(l) >= minMedianSamples {
				slices.Sort(l)
				meds = append(meds, us(quantile(l, 0.50)))
			}
		}
		if len(meds) >= 3 {
			out.p50us[k] = median(meds)
		} else {
			out.p50us[k] = p50us(p.samples[k])
		}
	}
	return out
}

// minTailSamples is how many samples a window needs for its p99 to have
// ten samples beyond it.
const minTailSamples = 1000

// tailP99us is the p99 reported for a window of dur: the median of the
// p99s of consecutive sub-windows, each holding at least minTailSamples
// samples. Sub-windows are 1s, widened to 2s and then to the whole
// window when samples are too sparse. It returns the value and the
// sub-window length used.
func tailP99us(ss []sample, dur time.Duration) (p99 float64, window time.Duration) {
	for _, w := range []time.Duration{time.Second, 2 * time.Second} {
		slots := int(dur / w)
		if slots < 3 {
			break
		}
		buckets := make([][]int64, slots)
		for _, s := range ss {
			if i := int(s.at / int64(w)); i >= 0 && i < slots {
				buckets[i] = append(buckets[i], s.lat)
			}
		}
		var tails []float64
		for _, b := range buckets {
			if len(b) < minTailSamples {
				continue
			}
			slices.Sort(b)
			tails = append(tails, us(quantile(b, 0.99)))
		}
		if len(tails) >= 3 && len(tails) >= slots/2 {
			return median(tails), w
		}
	}
	return us(quantile(lats(ss), 0.99)), dur
}
