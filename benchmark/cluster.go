package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"skute/internal/cluster"
	"skute/internal/ring"
	"skute/internal/store"
	"skute/internal/transport"
)

// benchRing is the one ring every KV workload uses: 32 partitions,
// 3 replicas, majority quorums.
var benchRing = ring.RingID{App: "bench", Class: "std"}

// shape is the cluster the benchmark boots. The benchmark proper always
// uses fullShape; the smoke test shrinks it.
type shape struct {
	nodes    int
	replicas int
	// memory swaps the WAL engines for in-memory ones (smoke test only).
	memory bool
}

var fullShape = shape{nodes: 5, replicas: 3}

// wrapFunc decorates the transport handed to a node or a client; the
// traced run installs the span recorder through it. who names the owner
// ("n0".."n4", "c0"..).
type wrapFunc func(who string, tr transport.Transport) transport.Transport

// testCluster is a cluster booted in this process over loopback TCP the
// way cmd/skuted boots one node: cluster.NewNode over transport.NewTCP
// and a WAL-backed store engine, then Node.Start with skuted's default
// loop intervals (economy loop off).
type testCluster struct {
	nodes []*cluster.Node
	tcps  []*transport.TCP
	engs  []*store.Engine
	addrs []string
	dir   string
	stop  context.CancelFunc
}

// continents spreads the nodes over three continents, two per continent
// while they last, so the bootstrap placement has diversity to work with.
var continents = []string{"eu", "eu", "us", "us", "ap", "ap"}

// errPortTaken marks a boot attempt that lost a reserved port to another
// process between reserving and binding it; bootCluster retries those.
var errPortTaken = errors.New("reserved port taken before bind")

// bootCluster boots the cluster under dir, retrying with fresh ports
// when a reserved one is taken before NewNode binds it.
func bootCluster(sh shape, dir string, wrap wrapFunc) (*testCluster, error) {
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		var tc *testCluster
		tc, err = bootOnce(sh, dir, wrap)
		if err == nil {
			return tc, nil
		}
		if !errors.Is(err, errPortTaken) {
			return nil, err
		}
	}
	return nil, err
}

// reservePort asks the kernel for a free loopback port and releases it.
func reservePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserve port: %w", err)
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// clusterConfig is the descriptor every node boots from: one node per
// address, the one bench ring.
func clusterConfig(sh shape, addrs []string) cluster.Config {
	cfg := cluster.Config{
		Rings: []cluster.RingSpec{{App: benchRing.App, Class: benchRing.Class, Partitions: 32, Replicas: sh.replicas}},
	}
	for i, addr := range addrs {
		cfg.Nodes = append(cfg.Nodes, cluster.NodeInfo{
			Name:          fmt.Sprintf("n%d", i),
			Addr:          addr,
			LocPath:       fmt.Sprintf("%s/c%d/dc0/r0/k0/s%d", continents[i%len(continents)], i, i),
			Confidence:    1,
			MonthlyRent:   100,
			Capacity:      16 << 30,
			QueryCapacity: 10000,
		})
	}
	return cfg
}

func bootOnce(sh shape, dir string, wrap wrapFunc) (*testCluster, error) {
	tc := &testCluster{dir: dir}
	booted := false
	defer func() {
		if !booted {
			tc.close()
		}
	}()
	for i := 0; i < sh.nodes; i++ {
		addr, err := reservePort()
		if err != nil {
			return nil, err
		}
		tc.addrs = append(tc.addrs, addr)
	}
	cfg := clusterConfig(sh, tc.addrs)
	for i, info := range cfg.Nodes {
		eng := store.NewMemory()
		if !sh.memory {
			var err error
			if eng, err = store.Open(filepath.Join(dir, info.Name+".wal")); err != nil {
				return nil, fmt.Errorf("open wal engine: %w", err)
			}
		}
		tc.engs = append(tc.engs, eng)
		tcp := transport.NewTCP()
		tc.tcps = append(tc.tcps, tcp)
		var tr transport.Transport = tcp
		if wrap != nil {
			tr = wrap(info.Name, tr)
		}
		node, err := cluster.NewNode(cfg, info.Name, tr, eng)
		if err != nil {
			if errors.Is(err, syscall.EADDRINUSE) {
				return nil, fmt.Errorf("%w: %s (%v)", errPortTaken, tc.addrs[i], err)
			}
			return nil, fmt.Errorf("boot %s: %w", info.Name, err)
		}
		tc.nodes = append(tc.nodes, node)
	}
	// The runtime loops must run: nodes that are only ConfirmPeers-ed
	// age their peers into suspicion after SuspectAfter (10s) and lose
	// read quorum mid-run.
	ctx, cancel := context.WithCancel(context.Background())
	tc.stop = cancel
	for _, n := range tc.nodes {
		if err := n.Start(ctx, cluster.RuntimeConfig{
			Heartbeat:   2 * time.Second,
			Reconcile:   5 * time.Second,
			AntiEntropy: time.Minute,
		}); err != nil {
			return nil, fmt.Errorf("start %s: %w", n.Name(), err)
		}
	}
	// Descriptor peers stay in probation until a heartbeat is answered;
	// send the first round now instead of waiting 2s for the loop's.
	for _, n := range tc.nodes {
		n.SendHeartbeats(ctx)
	}
	if err := tc.healthy(); err != nil {
		return nil, err
	}
	booted = true
	return tc, nil
}

// healthy fails unless every node sees every node alive and no node
// ever suspected a peer: a suspicion voids the run's numbers.
func (tc *testCluster) healthy() error {
	now := time.Now()
	for _, n := range tc.nodes {
		for _, peer := range tc.nodes {
			if !n.Membership().Alive(peer.Name(), now) {
				return fmt.Errorf("node %s does not see %s alive", n.Name(), peer.Name())
			}
		}
		if s := n.Counters().MembersSuspected.Value(); s != 0 {
			return fmt.Errorf("node %s suspected %d peers", n.Name(), s)
		}
	}
	return nil
}

// close stops the runtime loops, closes sockets and engines and removes
// the WAL directories. It is safe on a partly booted cluster.
func (tc *testCluster) close() {
	if tc.stop != nil {
		tc.stop()
	}
	for _, n := range tc.nodes {
		n.Stop()
	}
	for _, t := range tc.tcps {
		t.Close()
	}
	for _, e := range tc.engs {
		e.Close()
	}
	if tc.dir != "" {
		os.RemoveAll(tc.dir)
	}
}

// walBytes is the size of everything under the cluster's directory: the
// WAL segments of all nodes.
func (tc *testCluster) walBytes() int64 {
	var total int64
	// A segment the WAL deletes mid-walk is skipped, not an error.
	filepath.Walk(tc.dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}
