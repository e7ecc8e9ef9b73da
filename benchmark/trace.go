package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skute/internal/transport"
)

// Spans are recorded by the benchmark itself, around the calls into
// each layer: the program has no spans of its own yet. Three boundaries
// are visible from outside:
//
//	client.op       one client operation, start to end
//	transport.call  one Transport.Call, seen by the caller
//	node.handle     one request handled by a node, seen by the server
//
// The traced pass runs a single closed-loop client, so every span that
// starts between an operation's start and end belongs to that operation,
// and the span that caused another is found by time containment.

const (
	spanOp     = "client.op"
	spanCall   = "transport.call"
	spanHandle = "node.handle"
)

// span is one recorded interval. Times are nanoseconds since the
// recorder was made.
type span struct {
	Name string `json:"name"`
	// Kind is the operation kind of a client.op ("read", "write", "aux")
	// and the envelope kind of the other two.
	Kind string `json:"kind"`
	// Who recorded it: a client ("c0") or a node ("n2").
	Who string `json:"who"`
	// Peer is the node a transport.call went to.
	Peer  string `json:"peer,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Op is the index of the client operation the span belongs to and
	// Parent the index of the span that caused it; -1 when there is none
	// (a heartbeat, say). Both are filled in by link.
	Op     int `json:"op"`
	Parent int `json:"parent"`
	// Out and In are payload bytes sent and received.
	Out int `json:"bytes_out"`
	In  int `json:"bytes_in"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder collects spans in memory while on is set and counts every
// transport call regardless.
type recorder struct {
	on    atomic.Bool
	calls atomic.Int64
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// nodeOf maps a node's address to its name.
	nodeOf map[string]string
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), nodeOf: map[string]string{}}
}

func (r *recorder) add(s span, start, end time.Time) {
	s.Start, s.End = start.Sub(r.epoch).Nanoseconds(), end.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// opHook is the client's per-operation callback.
func (r *recorder) opHook(who string) func(opKind, time.Time, time.Time) {
	names := [numKinds]string{opRead: "read", opWrite: "write", opAux: "aux"}
	return func(kind opKind, start, end time.Time) {
		if r.on.Load() {
			r.add(span{Name: spanOp, Kind: names[kind], Who: who}, start, end)
		}
	}
}

// wrap is the wrapFunc that puts the recorder between an owner and its
// transport.
func (r *recorder) wrap(who string, tr transport.Transport) transport.Transport {
	return &tracedTransport{inner: tr, who: who, rec: r}
}

type tracedTransport struct {
	inner transport.Transport
	who   string
	rec   *recorder
}

func (t *tracedTransport) Serve(addr string, h transport.Handler) error {
	return t.inner.Serve(addr, func(ctx context.Context, req transport.Envelope) (transport.Envelope, error) {
		if !t.rec.on.Load() {
			return h(ctx, req)
		}
		in := len(req.Payload)
		start := time.Now()
		resp, err := h(ctx, req)
		t.rec.add(span{Name: spanHandle, Kind: req.Kind, Who: t.who, In: in, Out: len(resp.Payload)}, start, time.Now())
		return resp, err
	})
}

func (t *tracedTransport) Call(ctx context.Context, addr string, req transport.Envelope) (transport.Envelope, error) {
	t.rec.calls.Add(1)
	if !t.rec.on.Load() {
		return t.inner.Call(ctx, addr, req)
	}
	out := len(req.Payload)
	start := time.Now()
	resp, err := t.inner.Call(ctx, addr, req)
	t.rec.add(span{Name: spanCall, Kind: req.Kind, Who: t.who, Peer: t.rec.nodeOf[addr], Out: out, In: len(resp.Payload)}, start, time.Now())
	return resp, err
}

func (t *tracedTransport) Close() error { return t.inner.Close() }

// isDataKind reports whether an envelope kind is a replica-level data
// operation, the sub-calls a coordinator fans out.
func isDataKind(kind string) bool {
	switch kind {
	case "get", "put", "multi-get", "multi-put":
		return true
	}
	return false
}

// opBudget is the decomposition of one client operation, in ns.
type opBudget struct {
	kind          string
	op            int64
	clientSelf    int64 // op minus its client call: cluster.Client encode/decode
	wireClient    int64 // client call minus coordinator handle: frame codec and syscalls both ways
	coordSelf     int64 // coordinator handle minus the union of its sub-calls
	fanoutWait    int64 // that union: the time the coordinator waited on replicas
	wireReplica   int64 // the gating sub-call minus its replica handle
	replicaHandle int64 // the gating sub-call's replica handle: store op, WAL fsync, payload codec
	fanout        int   // sub-calls the coordinator made
	afterAck      int64 // handler and sub-call time that ran after the client was answered
}

// link assigns every span its operation and its parent, and returns the
// budget of every operation that has the expected shape: one client call
// holding one coordinator handle. spans is sorted by start time in
// place.
func link(spans []span) []opBudget {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var ops []int
	for i := range spans {
		spans[i].Op, spans[i].Parent = -1, -1
		if spans[i].Name == spanOp {
			ops = append(ops, i)
		}
	}
	// Operations of the single traced client never overlap, so the
	// operation of a span is the last one that started before it, if the
	// span starts before that operation ends.
	for i := range spans {
		s := &spans[i]
		if s.Name == spanOp {
			continue
		}
		j := sort.Search(len(ops), func(j int) bool { return spans[ops[j]].Start > s.Start }) - 1
		if j >= 0 && s.Start <= spans[ops[j]].End {
			s.Op = j
		}
	}
	byOp := make([][]int, len(ops))
	for i := range spans {
		if spans[i].Name != spanOp && spans[i].Op >= 0 {
			byOp[spans[i].Op] = append(byOp[spans[i].Op], i)
		}
	}
	within := func(inner, outer *span) bool { return outer.Start <= inner.Start && inner.End <= outer.End }

	var budgets []opBudget
	for oi, members := range byOp {
		op := &spans[ops[oi]]
		op.Op = oi
		call, handle := -1, -1
		for _, i := range members {
			s := &spans[i]
			if call < 0 && s.Name == spanCall && s.Who == op.Who && strings.HasPrefix(s.Kind, "client-") {
				call = i
				s.Parent = ops[oi]
			}
		}
		if call < 0 {
			continue
		}
		for _, i := range members {
			s := &spans[i]
			if s.Name == spanHandle && s.Kind == spans[call].Kind && s.Who == spans[call].Peer && within(s, &spans[call]) {
				handle = i
				s.Parent = call
				break
			}
		}
		if handle < 0 {
			continue
		}
		c, h := &spans[call], &spans[handle]
		b := opBudget{kind: op.Kind, op: op.dur(), clientSelf: op.dur() - c.dur(), wireClient: c.dur() - h.dur()}

		// Sub-calls: data calls the coordinator started while handling.
		// Everything else that started during the operation but outside
		// the coordinator's handle (an asynchronous read repair, a tail
		// replication started late) is work after the acknowledgement.
		var subs []int
		for _, i := range members {
			s := &spans[i]
			if s.Name != spanCall || !isDataKind(s.Kind) {
				continue
			}
			if s.Who == h.Who && h.Start <= s.Start && s.Start <= h.End {
				s.Parent = handle
				subs = append(subs, i)
			} else {
				b.afterAck += s.dur()
			}
		}
		b.fanout = len(subs)
		// Replica handles, matched to their sub-call by peer, kind and
		// containment.
		served := map[int]int{}
		for _, i := range members {
			s := &spans[i]
			if s.Name != spanHandle || !isDataKind(s.Kind) {
				continue
			}
			for _, ci := range subs {
				if _, taken := served[ci]; !taken && spans[ci].Peer == s.Who && spans[ci].Kind == s.Kind && within(s, &spans[ci]) {
					served[ci] = i
					s.Parent = ci
					break
				}
			}
			// Handler time past the moment the client had its answer.
			if late := s.End - max(s.Start, c.End); late > 0 && s.Parent >= 0 {
				b.afterAck += late
			}
		}
		// The union of the sub-calls, clipped to the coordinator's handle,
		// is the time the coordinator spent waiting on replicas; the rest
		// of its handle is its own. The sub-call that ended last inside
		// the handle is the one the answer waited for.
		var covered, reach int64 = 0, h.Start
		gate := -1
		for _, ci := range subs {
			s := &spans[ci]
			lo, hi := max(s.Start, reach), min(s.End, h.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
			// A sub-call no replica handle answered inside (a hedge or a
			// straggler abandoned when the quorum was met) did not gate
			// anything, however late it ended.
			if _, answered := served[ci]; answered && s.End <= h.End && (gate < 0 || s.End > spans[gate].End) {
				gate = ci
			}
		}
		b.coordSelf, b.fanoutWait = h.dur()-covered, covered
		if gate >= 0 {
			b.replicaHandle = spans[served[gate]].dur()
			b.wireReplica = spans[gate].dur() - b.replicaHandle
		}
		budgets = append(budgets, b)
	}
	return budgets
}

// budgetSummary is the per-kind medians of the operation budgets, in us.
type budgetSummary struct {
	n                                                 int
	op, clientSelf, wireClient, coordSelf, fanoutWait float64
	wireReplica, replicaH                             float64
	fanout, afterAck, unaccounted                     float64
}

func summarize(budgets []opBudget, kind string) budgetSummary {
	var op, cs, wc, co, fw, wr, rh, fo, aa []float64
	for _, b := range budgets {
		if b.kind != kind {
			continue
		}
		op = append(op, us(b.op))
		cs = append(cs, us(b.clientSelf))
		wc = append(wc, us(b.wireClient))
		co = append(co, us(b.coordSelf))
		fw = append(fw, us(b.fanoutWait))
		wr = append(wr, us(b.wireReplica))
		rh = append(rh, us(b.replicaHandle))
		fo = append(fo, float64(b.fanout))
		aa = append(aa, us(b.afterAck))
	}
	s := budgetSummary{
		n: len(op), op: median(op), clientSelf: median(cs), wireClient: median(wc), coordSelf: median(co),
		fanoutWait: median(fw), wireReplica: median(wr), replicaH: median(rh), afterAck: median(aa),
	}
	// The fan-out width is a small integer: its mean says more than its
	// median ("about 0" on one-read-hot means a few cache misses).
	for _, f := range fo {
		s.fanout += f / float64(len(fo))
	}
	// Do the parts sum to the whole? The four parts tile every single
	// operation exactly, but medians are not additive: this is far from 0
	// when the operations are a mix of populations (one-read-hot's local
	// reads, cache hits and misses) and near 0 when they are alike.
	if s.op > 0 {
		s.unaccounted = math.Abs(s.op-(s.clientSelf+s.wireClient+s.coordSelf+s.fanoutWait)) / s.op
	}
	return s
}

// setBudget reports one kind's budget and the tracing overhead: the
// one-client median with tracing on against the same with tracing off.
func setBudget(res *result, kind string, s budgetSummary, untracedP50, tracedP50 float64) {
	set := func(name string, v float64) { res.set(perLayer, "trace."+kind+"."+name, v) }
	set("op_us", s.op)
	set("client_self_us", s.clientSelf)
	set("wire_client_us", s.wireClient)
	set("coord_self_us", s.coordSelf)
	set("fanout_wait_us", s.fanoutWait)
	set("wire_replica_us", s.wireReplica)
	set("replica_handle_us", s.replicaH)
	set("fanout_width", s.fanout)
	set("after_ack_us", s.afterAck)
	set("unaccounted_frac", s.unaccounted)
	set("overhead_frac", ratio(tracedP50-untracedP50, untracedP50))
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
