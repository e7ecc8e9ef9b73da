package main

import (
	"skute/internal/cluster"
)

// spec is one named workload: the traffic the generator offers and how
// it is offered. Every KV workload runs against the same cluster shape
// (see bootCluster); only the traffic differs.
type spec struct {
	name string

	// economy marks the simulator job: no cluster, no client traffic.
	economy bool

	// openRate > 0 selects an open loop at that many arrivals per
	// second (Poisson, split over nproc senders that each hand their
	// arrivals to a bounded pool of workers, see sendOpen); 0 selects a
	// closed loop of nproc clients.
	openRate float64
	// ladder lists the offered rates the traced run tries besides
	// openRate (open loop only).
	ladder []float64

	// hotKeys are read by the paper's Pareto(1,50) popularity; coldKeys
	// (if any) are read uniformly by coldFrac of the requests.
	hotKeys  int
	coldKeys int
	coldFrac float64

	valueBytes int
	// readLevel is the consistency of the workload's reads; writes are
	// always quorum.
	readLevel cluster.Consistency
	// rmwFrac of the requests are read-modify-write pairs: a quorum read
	// of the keys, then a write carrying that read's context. Both legs
	// count as operations. Blind writes are never sent after preload:
	// through rotating coordinators they pile up one sibling per
	// coordinator and make read latency depend on run length.
	rmwFrac float64
	// readBatch / writeBatch are the keys per read and per RMW pair;
	// 1 means Get/Put, more means MGet/MPut.
	readBatch  int
	writeBatch int
}

func (s *spec) totalKeys() int { return s.hotKeys + s.coldKeys }

// rmwReadIsRead reports whether the read leg of an RMW pair is the same
// operation as the workload's plain read (same batch, same level). If it
// is not, its latency is kept out of the read percentiles.
func (s *spec) rmwReadIsRead() bool {
	return s.writeBatch == s.readBatch &&
		(s.readLevel == cluster.ConsistencyQuorum || s.readLevel == cluster.ConsistencyDefault)
}

// specs is the fixed workload list. BENCHMARK.json names the same six in
// the same order and says why each exists; loadContract refuses anything
// else.
var specs = []spec{
	{
		name:    "quorum-read-mostly",
		hotKeys: 10000, valueBytes: 256, readLevel: cluster.ConsistencyQuorum,
		rmwFrac: 0.05, readBatch: 1, writeBatch: 1,
	},
	{
		name:     "quorum-read-mostly-open",
		openRate: 4000, ladder: []float64{2000, 8000, 12000},
		hotKeys: 10000, valueBytes: 256, readLevel: cluster.ConsistencyQuorum,
		rmwFrac: 0.05, readBatch: 1, writeBatch: 1,
	},
	{
		name:    "quorum-write-heavy",
		hotKeys: 10000, valueBytes: 1024, readLevel: cluster.ConsistencyQuorum,
		rmwFrac: 1, readBatch: 1, writeBatch: 1,
	},
	{
		name:    "one-read-hot",
		hotKeys: 2000, coldKeys: 20000, coldFrac: 0.10,
		valueBytes: 256, readLevel: cluster.ConsistencyOne,
		rmwFrac: 0.02, readBatch: 1, writeBatch: 1,
	},
	{
		name:    "batch-mget",
		hotKeys: 10000, valueBytes: 256, readLevel: cluster.ConsistencyQuorum,
		rmwFrac: 0.10, readBatch: 64, writeBatch: 16,
	},
	{
		name:    "economy-epochs",
		economy: true,
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}
