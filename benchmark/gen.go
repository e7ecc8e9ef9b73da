package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"skute/internal/workload"
)

// request is one generated arrival. The cluster sees only what the
// client makes of it; nothing here depends on the cluster's answers, so
// one seed always yields one request sequence.
type request struct {
	// rmw makes the request a read-modify-write pair over keys;
	// otherwise it is a plain read of keys.
	rmw  bool
	keys []int32
	// pad is where the written values' padding starts in the seeded pad
	// buffer.
	pad int32
	// gap is the Poisson gap before this arrival (open loop only).
	gap time.Duration
}

// padSpan is how many distinct padding offsets writes draw from.
const padSpan = 64 << 10

// dataset is everything a run derives from (workload, seed) before any
// request is sent: key names, their hashes, the popularity table and the
// value padding.
type dataset struct {
	sp     *spec
	seed   int64
	keys   []string
	hashes []uint64
	// cum is the cumulative Pareto popularity of the hot keys.
	cum []float64
	pad []byte
}

func newDataset(sp *spec, seed int64) *dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &dataset{sp: sp, seed: seed}
	n := sp.totalKeys()
	d.keys = make([]string, n)
	d.hashes = make([]uint64, n)
	for i := range d.keys {
		d.keys[i] = fmt.Sprintf("s%d-key-%06d", seed, i)
		h := fnv.New64a()
		h.Write([]byte(d.keys[i]))
		d.hashes[i] = h.Sum64()
	}
	// The paper's popularity, Pareto(1,50) clamped at 1000x the scale as
	// the simulator's rings are. The weights are the distribution's
	// quantiles, not draws from it: with shape 1 a handful of draws near
	// the clamp carry a tenth of the traffic, and how many there are
	// would change the workload from seed to seed. The seed decides only
	// which key gets which weight.
	pop := workload.PaperPopularity()
	weights := make([]float64, sp.hotKeys)
	for i := range weights {
		u := (float64(i) + 0.5) / float64(sp.hotKeys)
		weights[i] = math.Min(pop.Scale/math.Pow(u, 1/pop.Shape), 1000*pop.Scale)
	}
	rng.Shuffle(len(weights), func(i, j int) { weights[i], weights[j] = weights[j], weights[i] })
	d.cum = make([]float64, len(weights))
	var sum, run float64
	for _, w := range weights {
		sum += w
	}
	for i, w := range weights {
		run += w / sum
		d.cum[i] = run
	}
	d.cum[len(d.cum)-1] = 1
	d.pad = make([]byte, padSpan+sp.valueBytes)
	rng.Read(d.pad)
	return d
}

// value builds the stored value of key k: 8-byte sequence number, 8-byte
// key hash, seeded padding. Every read can be checked against it.
func (d *dataset) value(k int32, seq uint64, pad int32) []byte {
	v := make([]byte, d.sp.valueBytes)
	binary.BigEndian.PutUint64(v[0:8], seq)
	binary.BigEndian.PutUint64(v[8:16], d.hashes[k])
	copy(v[16:], d.pad[pad:])
	return v
}

// check validates a value read for key k and returns its sequence number.
func (d *dataset) check(k int32, v []byte) (uint64, bool) {
	if len(v) != d.sp.valueBytes || binary.BigEndian.Uint64(v[8:16]) != d.hashes[k] {
		return 0, false
	}
	return binary.BigEndian.Uint64(v[0:8]), true
}

// generator yields the request stream of one client. Streams of
// different clients are independent; each is a pure function of
// (workload, seed, client).
type generator struct {
	d    *dataset
	rng  *rand.Rand
	rate float64 // arrivals per second of this stream; 0 in a closed loop
	seen map[int32]struct{}
}

func newGenerator(d *dataset, client int, rate float64) *generator {
	return &generator{
		d:    d,
		rng:  rand.New(rand.NewSource(d.seed*1000003 + int64(client)*7919 + 1)),
		rate: rate,
		seen: make(map[int32]struct{}),
	}
}

func (g *generator) pickKey() int32 {
	sp := g.d.sp
	if sp.coldKeys > 0 && g.rng.Float64() < sp.coldFrac {
		return int32(sp.hotKeys + g.rng.Intn(sp.coldKeys))
	}
	i := sort.SearchFloat64s(g.d.cum, g.rng.Float64())
	if i >= len(g.d.cum) {
		i = len(g.d.cum) - 1
	}
	return int32(i)
}

func (g *generator) next() request {
	sp := g.d.sp
	var r request
	if g.rate > 0 {
		r.gap = workload.Interarrival(g.rng, g.rate)
	}
	r.rmw = g.rng.Float64() < sp.rmwFrac
	n := sp.readBatch
	if r.rmw {
		n = sp.writeBatch
		r.pad = int32(g.rng.Intn(padSpan))
	}
	// A batch names distinct keys, so its result has exactly n entries.
	clear(g.seen)
	r.keys = make([]int32, 0, n)
	for len(r.keys) < n {
		k := g.pickKey()
		if _, dup := g.seen[k]; dup {
			continue
		}
		g.seen[k] = struct{}{}
		r.keys = append(r.keys, k)
	}
	return r
}
