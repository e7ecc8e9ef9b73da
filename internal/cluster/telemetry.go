package cluster

import (
	"sync/atomic"

	"skute/internal/telemetry"
)

// Coordinator latency histograms are named cluster_<op>_<class>_ns where
// op is the client-facing operation and class the requested consistency
// level. Positive Count(n) overrides share one "count" class so the
// metric namespace stays bounded regardless of replica targets.
const (
	opGet = iota
	opPut
	opDel
	opMGet
	opMPut
	numOps
)

var opNames = [numOps]string{"get", "put", "del", "mget", "mput"}

var consistencyClasses = []string{"default", "one", "quorum", "all", "count"}

// classIndex buckets a consistency level for the histogram table. An
// invalid level lands in the default bucket; the operation itself fails
// resolution before doing any work, so the sample just records how fast
// it was rejected.
func classIndex(c Consistency) int {
	switch {
	case c == ConsistencyOne:
		return 1
	case c == ConsistencyQuorum:
		return 2
	case c == ConsistencyAll:
		return 3
	case c > 0:
		return 4
	default:
		return 0
	}
}

// opHists caches the coordinator histograms so the request path loads an
// atomic pointer instead of taking the registry lock. Cells fill lazily
// on first use — only op×consistency combinations the workload actually
// exercises appear on GET /metrics. Racing fillers are harmless: the
// registry hands every caller of a name the same histogram.
type opHists struct {
	reg *telemetry.Registry
	tab [numOps][5]atomic.Pointer[telemetry.Histogram]
}

func (t *opHists) hist(op int, c Consistency) *telemetry.Histogram {
	if t == nil {
		return nil // bare test-constructed Node; Record on nil is a no-op
	}
	ci := classIndex(c)
	if h := t.tab[op][ci].Load(); h != nil {
		return h
	}
	h := t.reg.Histogram("cluster_" + opNames[op] + "_" + consistencyClasses[ci] + "_ns")
	t.tab[op][ci].Store(h)
	return h
}

// Telemetry exposes the node's one instrument registry: the coordinator
// per-op histograms record here and the control counters are registered
// here, and cmd/skuted adds the transport's and the store's instruments
// before serving the whole set on GET /metrics.
func (n *Node) Telemetry() *telemetry.Registry { return n.tel }
