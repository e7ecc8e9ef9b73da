// Command skuted runs one Skute prototype store node over TCP: quorum
// reads/writes with read repair, Merkle anti-entropy, heartbeat failure
// detection and economy-driven replica management. Peer and client
// traffic rides persistent, pooled, multiplexed connections (see
// DESIGN.md, "The wire"); the transport's pool counters appear on the
// admin endpoint's GET /metrics, and shutdown closes pooled and
// established sockets, not just the listeners. State is durable and
// recovery is bounded: the node recovers from its newest snapshot plus
// the write-ahead-log tail on restart, checkpoints itself periodically
// and on SIGTERM, and truncates the log segments each checkpoint covers,
// so neither the disk footprint nor the restart time grows with write
// history (see DESIGN.md, "Durability").
//
// All nodes boot from the same JSON descriptor:
//
//	{
//	  "Nodes": [
//	    {"Name":"n0","Addr":"127.0.0.1:7000","LocPath":"eu/ch/dc0/r0/k0/s0",
//	     "Confidence":1,"MonthlyRent":100,"Capacity":17179869184,"QueryCapacity":10000},
//	    ...
//	  ],
//	  "Rings": [{"App":"app1","Class":"gold","Partitions":32,"Replicas":2}]
//	}
//
// Usage:
//
//	skuted -config cluster.json -name n0 -wal /var/lib/skute/n0.wal \
//	       -snapshot-dir /var/lib/skute/n0.snaps -checkpoint 5m \
//	       -heartbeat 2s -epoch 30s -admin 127.0.0.1:7070
//
// A node can also join a running cluster without any descriptor file:
//
//	skuted -name n6 -listen 127.0.0.1:7006 -join 127.0.0.1:7000 \
//	       -locpath eu/ch/dc1/r0/k0/s6 -rent 100 -capacity 17179869184
//
// The seed answers with the member list, ring layout and placement map;
// the joiner starts empty and receives partitions via throttled chunked
// transfer as the economy places replicas on it. The tuning flags
// (-transfer-chunk, -transfer-rate, -read-cache, -max-inflight, the
// breaker and trace knobs) apply to the node the same way in both boot
// modes.
//
// With -admin, the node serves /healthz, /stats, /trace and /metrics;
// /metrics carries every instrument of the process — latency
// histograms and counters alike (see internal/httpadmin).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"skute/internal/agent"
	"skute/internal/cluster"
	"skute/internal/economy"
	"skute/internal/httpadmin"
	"skute/internal/store"
	"skute/internal/telemetry"
	"skute/internal/transport"
	"skute/internal/wal"
)

func main() {
	var (
		configPath = flag.String("config", "", "path to the shared cluster descriptor (JSON)")
		name       = flag.String("name", "", "this node's name in the descriptor")
		walPath    = flag.String("wal", "", "write-ahead log directory (empty = volatile in-memory engine)")
		snapDir    = flag.String("snapshot-dir", "", "snapshot directory for bounded recovery (empty disables checkpoints; requires -wal)")
		ckptEvery  = flag.Duration("checkpoint", 5*time.Minute, "periodic checkpoint interval (0 disables the ticker; SIGTERM still checkpoints)")
		heartbeat  = flag.Duration("heartbeat", 2*time.Second, "heartbeat interval (placement digests piggyback on each beat)")
		reconcile  = flag.Duration("reconcile", 5*time.Second, "gossip-reconcile interval: pull placement deltas from one random peer (0 disables)")
		epoch      = flag.Duration("epoch", 30*time.Second, "economic epoch length (0 disables the economy)")
		antiEnt    = flag.Duration("anti-entropy", time.Minute, "anti-entropy round interval (0 disables)")
		jitter     = flag.Float64("jitter", 0.1, "loop interval jitter fraction in [0,1); negative disables jitter")
		admin      = flag.String("admin", "", "admin HTTP address for /healthz, /stats, /trace and /metrics (empty disables)")

		joinAddr  = flag.String("join", "", "join a running cluster through this seed node address (descriptor-free boot)")
		listen    = flag.String("listen", "", "this node's own address when joining (required with -join)")
		locPath   = flag.String("locpath", "", "topology path country/region/dc/room/rack/server when joining")
		conf      = flag.Float64("confidence", 1, "node availability confidence in (0,1] when joining")
		rent      = flag.Float64("rent", 100, "monthly rent this node charges when joining")
		capacity  = flag.Int64("capacity", 16<<30, "storage capacity in bytes when joining")
		queryCap  = flag.Float64("query-capacity", 10000, "per-epoch query capacity when joining")
		xferChunk = flag.Int("transfer-chunk", 0, "partition-transfer chunk size in items (0 = default 128)")
		xferRate  = flag.Int64("transfer-rate", 0, "partition-transfer donor bandwidth cap in bytes/sec (0 = unlimited)")

		rcEntries = flag.Int("read-cache", 0, "coordinator hot-key read-cache entries serving ConsistencyOne reads (0 = default 4096)")
		rcTTL     = flag.Duration("read-cache-ttl", 0, "read-cache staleness bound when no placement delta invalidates first (0 = default 500ms)")

		maxInflight  = flag.Int("max-inflight", 0, "admission gate: concurrent requests accepted before shedding with the overloaded error (0 = default 256)")
		shed         = flag.Bool("shed", true, "enable overload shedding; false disables the admission gate and requests queue until their deadline")
		brkFailures  = flag.Int("breaker-failures", 0, "consecutive failures that open a peer's circuit breaker (0 = default 5)")
		brkOpenFor   = flag.Duration("breaker-open-for", 0, "how long an opened breaker refuses a peer before half-open probing (0 = default 2s)")
		brkSlowAfter = flag.Duration("breaker-slow-after", 0, "count successful calls slower than this as breaker failures, routing traffic around up-but-sick peers (0 disables latency tripping)")

		bindAddr    = flag.String("bind", "", "listen address override: peers still dial this node's descriptor Addr (scenario harnesses front nodes with fault proxies this way; empty = listen on the advertised address)")
		walSegBytes = flag.Int64("wal-segment-bytes", 0, "WAL segment rotation threshold in bytes (0 = default 4 MiB; tests shrink it to exercise rotation and disk faults quickly)")
		traceEvents = flag.Int("trace-events", 0, "decision-trace ring capacity served on GET /trace (0 = default 1024)")
	)
	flag.Parse()
	if *name == "" {
		fmt.Fprintln(os.Stderr, "skuted: -name is required")
		os.Exit(2)
	}
	if *configPath == "" && *joinAddr == "" {
		fmt.Fprintln(os.Stderr, "skuted: either -config or -join is required")
		os.Exit(2)
	}
	if *joinAddr != "" && *listen == "" {
		fmt.Fprintln(os.Stderr, "skuted: -join requires -listen")
		os.Exit(2)
	}
	if *snapDir != "" && *walPath == "" {
		fmt.Fprintln(os.Stderr, "skuted: -snapshot-dir requires -wal")
		os.Exit(2)
	}

	eng := store.NewMemory()
	var err error
	if *walPath != "" {
		eng, err = store.RestoreOptions(*walPath, *snapDir, store.Options{
			WAL: wal.Options{SegmentBytes: *walSegBytes},
		})
		if err != nil {
			log.Fatalf("skuted: restore: %v", err)
		}
		defer eng.Close()
	}

	// One Config for both boot modes: the descriptor, or the joiner's own
	// entry (the seed supplies the rings, quorums and timeouts).
	var cfg cluster.Config
	if *joinAddr != "" {
		cfg.Nodes = []cluster.NodeInfo{{
			Name: *name, Addr: *listen, LocPath: *locPath,
			Confidence: *conf, MonthlyRent: *rent,
			Capacity: *capacity, QueryCapacity: *queryCap,
		}}
	} else {
		raw, rerr := os.ReadFile(*configPath)
		if rerr != nil {
			log.Fatalf("skuted: %v", rerr)
		}
		if err := json.Unmarshal(raw, &cfg); err != nil {
			log.Fatalf("skuted: parse %s: %v", *configPath, err)
		}
	}
	if *xferChunk > 0 {
		cfg.TransferChunkItems = *xferChunk
	}
	if *xferRate > 0 {
		cfg.TransferBytesPerSec = *xferRate
	}
	if *traceEvents > 0 {
		cfg.TraceEvents = *traceEvents
	}
	if *rcEntries > 0 {
		cfg.ReadCacheEntries = *rcEntries
	}
	if *rcTTL > 0 {
		cfg.ReadCacheTTL = *rcTTL
	}
	if *maxInflight > 0 {
		cfg.MaxInflight = *maxInflight
	}
	if !*shed {
		cfg.DisableAdmission = true
	}
	if *brkFailures > 0 {
		cfg.BreakerFailures = *brkFailures
	}
	if *brkOpenFor > 0 {
		cfg.BreakerOpenFor = *brkOpenFor
	}
	if *brkSlowAfter > 0 {
		cfg.BreakerSlowAfter = *brkSlowAfter
	}
	if *bindAddr != "" {
		// Bind is node-local: it only makes sense on this node's own
		// entry, never on peers'.
		for i := range cfg.Nodes {
			if cfg.Nodes[i].Name == *name {
				cfg.Nodes[i].Bind = *bindAddr
			}
		}
	}

	tr := transport.NewTCP()
	defer tr.Close()
	var node *cluster.Node
	if *joinAddr != "" {
		node, err = cluster.JoinNode(context.Background(), cfg, *joinAddr, tr, eng)
		if err != nil {
			log.Fatalf("skuted: join via %s: %v", *joinAddr, err)
		}
		log.Printf("skuted: node %s joined cluster via %s", *name, *joinAddr)
	} else {
		node, err = cluster.NewNode(cfg, *name, tr, eng)
		if err != nil {
			log.Fatalf("skuted: %v", err)
		}
	}
	if d := eng.Durability(); d.SnapshotSeq > 0 || d.TailRecords > 0 {
		log.Printf("skuted: node %s recovered %d keys (snapshot seq %d + %d wal records, %d bytes replayed)",
			*name, eng.Len(), d.SnapshotSeq, d.TailRecords, d.TailBytes)
	} else {
		log.Printf("skuted: node %s serving (keys recovered: %d)", *name, eng.Len())
	}

	// checkpoint runs one checkpoint and keeps the counters honest; it is
	// called from the ticker and from the SIGTERM path.
	ckptErrors := new(telemetry.Counter)
	checkpoint := func(reason string) {
		if *snapDir == "" {
			return
		}
		start := time.Now()
		seq, err := eng.Checkpoint(*snapDir)
		if err != nil {
			ckptErrors.Inc()
			log.Printf("skuted: checkpoint (%s): %v", reason, err)
			return
		}
		d := eng.Durability()
		log.Printf("skuted: checkpoint (%s) covered seq %d in %v (%d bytes, %d wal segments live)",
			reason, seq, time.Since(start).Round(time.Millisecond), d.LastCheckpointBytes, d.WALSegments)
	}

	if *admin != "" {
		adminErrs := make(chan error, 1)
		srv := httpadmin.Serve(*admin, adminHandler(node, tr, eng, ckptErrors), adminErrs)
		defer srv.Close()
		go func() {
			if err := <-adminErrs; err != nil {
				log.Printf("skuted: admin endpoint: %v", err)
			}
		}()
		log.Printf("skuted: admin endpoint on %s", *admin)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	// The node runs its own heartbeat, gossip-reconcile, anti-entropy
	// and economic-epoch loops (with jitter) — main only keeps the
	// storage checkpoint ticker and the signal handler.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := node.Start(ctx, cluster.RuntimeConfig{
		Heartbeat:   *heartbeat,
		Reconcile:   *reconcile,
		AntiEntropy: *antiEnt,
		Epoch:       *epoch,
		Jitter:      *jitter,
		Agent:       agent.DefaultParams(),
		Rent:        economy.DefaultRentParams(),
		Logf:        log.Printf,
	}); err != nil {
		log.Fatalf("skuted: %v", err)
	}
	defer node.Stop()

	var ckptC <-chan time.Time
	if *snapDir != "" && *ckptEvery > 0 {
		t := time.NewTicker(*ckptEvery)
		defer t.Stop()
		ckptC = t.C
	}

	for {
		select {
		case <-ckptC:
			checkpoint("periodic")
		case <-stop:
			node.Stop()
			// A final checkpoint makes the next boot read only the
			// snapshot, no tail at all.
			checkpoint("shutdown")
			log.Printf("skuted: shutting down")
			return
		}
	}
}

// adminHandler registers the transport's and the store's instruments on
// the node's registry — wire counters and RTT, durability gauges, WAL
// fsync latency — next to the node's own, and returns the admin mux
// that serves them all on GET /metrics.
func adminHandler(node *cluster.Node, tr *transport.TCP, eng *store.Engine, ckptErrors *telemetry.Counter) http.Handler {
	reg := node.Telemetry()
	tr.Register(reg)
	durGauge := func(pick func(store.DurabilityStats) int64) func() int64 {
		return func() int64 { return pick(eng.Durability()) }
	}
	reg.Gauge("wal_records_total", durGauge(func(d store.DurabilityStats) int64 { return d.WALRecords }))
	reg.Gauge("wal_syncs_total", durGauge(func(d store.DurabilityStats) int64 { return d.WALSyncs }))
	reg.Gauge("wal_segments", durGauge(func(d store.DurabilityStats) int64 { return int64(d.WALSegments) }))
	reg.Gauge("checkpoints_total", durGauge(func(d store.DurabilityStats) int64 { return d.Checkpoints }))
	reg.Gauge("checkpoint_last_seq", durGauge(func(d store.DurabilityStats) int64 { return int64(d.LastCheckpointSeq) }))
	reg.Gauge("checkpoint_last_bytes", durGauge(func(d store.DurabilityStats) int64 { return d.LastCheckpointBytes }))
	reg.Gauge("wal_segments_reclaimed_total", durGauge(func(d store.DurabilityStats) int64 { return d.SegmentsReclaimed }))
	reg.Gauge("recovery_snapshot_seq", durGauge(func(d store.DurabilityStats) int64 { return int64(d.SnapshotSeq) }))
	reg.Gauge("recovery_tail_records", durGauge(func(d store.DurabilityStats) int64 { return d.TailRecords }))
	reg.Gauge("recovery_tail_bytes", durGauge(func(d store.DurabilityStats) int64 { return d.TailBytes }))
	reg.Gauge("checkpoint_errors_total", ckptErrors.Value)
	reg.Gauge("store_bytes", eng.Bytes)
	reg.Gauge("store_keys", func() int64 { return int64(eng.Len()) })
	if fsync := eng.FsyncLatency(); fsync != nil {
		reg.Register("wal_fsync_ns", fsync)
	}
	return httpadmin.Handler(func() any { return node.Stats() }, func() any { return node.Trace().Events() }, reg)
}
