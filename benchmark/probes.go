package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"skute/internal/agent"
	"skute/internal/availability"
	"skute/internal/cluster"
	"skute/internal/economy"
	"skute/internal/merkle"
	"skute/internal/resilience"
	"skute/internal/ring"
	"skute/internal/store"
	"skute/internal/topology"
	"skute/internal/transport"
	"skute/internal/vclock"
	"skute/internal/wal"
)

// Probes time direct calls into one layer's public functions. They do
// not depend on the workload; every traced run repeats them so that a
// layer's own cost sits next to the counters it explains.

// probeBatches is how many timed batches a probe takes the median of.
const probeBatches = 7

// probeNS times fn: it grows a batch until it lasts about 3 ms, then
// reports the median time per call over probeBatches batches, in ns.
func probeNS(fn func()) float64 {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(start) >= 3*time.Millisecond || n >= 1<<20 {
			break
		}
		n *= 2
	}
	per := make([]float64, probeBatches)
	for b := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

func runProbes(res *result, workdir string) error {
	set := func(name string, v float64) { res.set(perLayer, "probe."+name, v) }
	dir, err := os.MkdirTemp(workdir, "probes-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// transport: bare Serve + Call echo over loopback.
	for _, p := range []struct {
		name string
		size int
	}{{"transport_echo_256B_us", 256}, {"transport_echo_16KiB_us", 16 << 10}} {
		ns, err := probeEcho(p.size)
		if err != nil {
			return err
		}
		set(p.name, ns/1e3)
	}

	// resilience: one admission and release on an idle gate.
	gate := resilience.NewGate(256, time.Now)
	set("gate_enter_ns", probeNS(func() {
		release, err := gate.Enter(bgCtx, resilience.Read)
		if err == nil {
			release()
		}
	}))

	// store / vclock / merkle, on a memory engine of 4096 keys.
	eng := store.NewMemory()
	keys := make([]string, 4096)
	value := make([]byte, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench/std/probe-%05d", i)
		if _, err := eng.Put(keys[i], store.Version{Value: value, Clock: vclock.VC{"n0": 1}}); err != nil {
			return err
		}
	}
	i := 0
	set("store_get_ns", probeNS(func() { sink = eng.Get(keys[i%len(keys)]); i++ }))
	tick := uint64(1)
	set("store_put_mem_ns", probeNS(func() {
		tick++
		_, _ = eng.Put(keys[i%len(keys)], store.Version{Value: value, Clock: vclock.VC{"n0": tick}}) // a memory engine has no log to fail
		i++
	}))
	siblings := []store.Version{
		{Value: value, Clock: vclock.VC{"n0": 3, "n1": 1}},
		{Value: value, Clock: vclock.VC{"n0": 2, "n1": 2}},
		{Value: value, Clock: vclock.VC{"n0": 3, "n1": 1}},
	}
	set("store_merge_siblings_ns", probeNS(func() { sink = store.MergeSiblings(append([]store.Version(nil), siblings...)) }))
	a, b := vclock.VC{"n0": 3, "n1": 1, "n2": 7}, vclock.VC{"n0": 2, "n1": 2, "n3": 1}
	set("vclock_merge_ns", probeNS(func() { sink = vclock.Merge(a, b) }))
	tree := merkle.NewIncremental()
	for _, k := range keys[:1024] {
		tree.Update(k, merkle.HashValue([]byte(k)))
	}
	digests := []merkle.Digest{merkle.HashValue([]byte("a")), merkle.HashValue([]byte("b"))}
	set("merkle_update_ns", probeNS(func() { tree.Update(keys[i%1024], digests[i%2]); i++ }))

	// wal: one appender, then eight at once (group commit).
	log, err := wal.Open(filepath.Join(dir, "probe.wal"), nil)
	if err != nil {
		return err
	}
	defer log.Close()
	record := make([]byte, 1024)
	var appendErr error
	set("wal_append_1KiB_us", probeNS(func() {
		if _, err := log.Append(record); err != nil {
			appendErr = err
		}
	})/1e3)
	set("wal_append_8way_us", probeNS(func() {
		var wg sync.WaitGroup
		var mu sync.Mutex
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := log.Append(record); err != nil {
					mu.Lock()
					appendErr = err
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	})/1e3)
	if appendErr != nil {
		return fmt.Errorf("wal probe: %w", appendErr)
	}

	// ring / placement, agent and the cluster's own economic epoch, on an
	// idle five-node cluster over the memory transport.
	r, err := ring.New("probe", 32)
	if err != nil {
		return err
	}
	set("ring_lookup_ns", probeNS(func() { sink = r.LookupKey(keys[i%len(keys)]); i++ }))
	nodes, _, err := memoryCluster(fullShape, nil)
	if err != nil {
		return err
	}
	set("placement_replicas_ns", probeNS(func() { sink, _ = nodes[0].Replicas(benchRing, keys[i%len(keys)]); i++ }))
	rent := economy.DefaultRentParams()
	for _, n := range nodes {
		if _, _, err := n.AnnounceRent(bgCtx, rent); err != nil {
			return err
		}
	}
	var epochErr error
	set("cluster_epoch_ms", probeNS(func() {
		if _, err := nodes[0].RunEconomicEpoch(bgCtx, agent.DefaultParams(), rent); err != nil {
			epochErr = err
		}
	})/1e6)
	if epochErr != nil {
		return fmt.Errorf("cluster epoch probe: %w", epochErr)
	}
	set("agent_decide_ns", probeAgent())
	return nil
}

// probeEcho times a bare echo of size bytes over loopback TCP.
func probeEcho(size int) (float64, error) {
	addr, err := reservePort()
	if err != nil {
		return 0, err
	}
	server, client := transport.NewTCP(), transport.NewTCP()
	defer server.Close()
	defer client.Close()
	err = server.Serve(addr, func(_ context.Context, req transport.Envelope) (transport.Envelope, error) {
		return transport.Envelope{Kind: "ok", Payload: append([]byte(nil), req.Payload...)}, nil
	})
	if err != nil {
		return 0, err
	}
	payload := make([]byte, size)
	var callErr error
	ns := probeNS(func() {
		resp, err := client.Call(bgCtx, addr, transport.Envelope{Kind: "echo", Payload: payload})
		if err != nil || len(resp.Payload) != size {
			callErr = fmt.Errorf("echo probe: %d bytes back, %v", len(resp.Payload), err)
		}
		transport.RecyclePayload(resp.Payload)
	})
	return ns, callErr
}

// memAddr is the address of node i on the in-memory transport.
func memAddr(i int) string { return fmt.Sprintf("mem-%d", i) }

// memoryCluster boots idle nodes over the in-memory transport with
// memory engines: no sockets, no WAL, no runtime loops.
func memoryCluster(sh shape, wrap wrapFunc) ([]*cluster.Node, *transport.Memory, error) {
	addrs := make([]string, sh.nodes)
	for i := range addrs {
		addrs[i] = memAddr(i)
	}
	cfg := clusterConfig(sh, addrs)
	mesh := transport.NewMemory()
	nodes := make([]*cluster.Node, sh.nodes)
	for i := range nodes {
		var tr transport.Transport = mesh
		if wrap != nil {
			tr = wrap(cfg.Nodes[i].Name, tr)
		}
		n, err := cluster.NewNode(cfg, cfg.Nodes[i].Name, tr, store.NewMemory())
		if err != nil {
			return nil, nil, err
		}
		nodes[i] = n
	}
	for _, n := range nodes {
		n.ConfirmPeers()
	}
	return nodes, mesh, nil
}

// probeAgent times one Section II-C decision of a replica on a
// three-host partition with five candidate servers.
func probeAgent() float64 {
	loc := func(i int) topology.Location {
		l, _ := topology.ParsePath(fmt.Sprintf("%s/c%d/dc0/r0/k0/s%d", continents[i%len(continents)], i, i)) // constant, valid paths
		return l
	}
	in := agent.Inputs{Threshold: availability.ThresholdForReplicas(3), Queries: 120, G: 1, Rent: 1.1, MinRent: 1, ConsistencyCost: 0.5}
	for i := 0; i < 3; i++ {
		in.Hosts = append(in.Hosts, availability.Host{ID: ring.ServerID(i), Loc: loc(i), Conf: 1})
	}
	for i := 3; i < 8; i++ {
		in.Candidates = append(in.Candidates, availability.Candidate{
			Host: availability.Host{ID: ring.ServerID(i), Loc: loc(i), Conf: 1}, Rent: 1 + float64(i)/10, G: 1,
		})
	}
	v := &agent.VNode{Ring: benchRing, Partition: 1, Server: 0, Size: 1 << 20}
	params := agent.DefaultParams()
	return probeNS(func() { sink = v.Decide(params, in) })
}
