// Quickstart: boot an embedded 6-server Skute cluster spanning three
// continents, store and read data under a 2-replica availability SLA —
// with per-request consistency and deadlines — and inspect where the
// economy placed the replicas.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"skute"
)

func main() {
	cluster, err := skute.NewCluster(skute.Options{
		Servers: []skute.Server{
			{Name: "zurich-1", Location: "eu/ch/zrh-dc1/room1/rack1/srv1", MonthlyRent: 100},
			{Name: "zurich-2", Location: "eu/ch/zrh-dc1/room1/rack2/srv2", MonthlyRent: 100},
			{Name: "virginia-1", Location: "us/us-east/iad-dc1/room1/rack1/srv3", MonthlyRent: 100},
			{Name: "virginia-2", Location: "us/us-east/iad-dc1/room1/rack2/srv4", MonthlyRent: 100},
			{Name: "tokyo-1", Location: "ap/jp/nrt-dc1/room1/rack1/srv5", MonthlyRent: 125},
			{Name: "tokyo-2", Location: "ap/jp/nrt-dc1/room1/rack2/srv6", MonthlyRent: 125},
		},
		Apps: []skute.App{
			{Name: "photos", SLA: skute.SLA{Class: "standard", Replicas: 2}, Partitions: 16},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// Every request takes a context; cancellation and deadlines stop the
	// quorum fan-out early instead of waiting out transport timeouts.
	ctx := context.Background()

	// Write: nil context = fresh key; the zero options use the cluster's
	// default quorums.
	if err := cluster.Put(ctx, "photos", "user:42/cat.jpg", []byte("...image bytes..."), nil, skute.WriteOptions{}); err != nil {
		log.Fatal(err)
	}

	// Read: values plus the causal context for read-modify-write.
	values, vctx, err := cluster.Get(ctx, "photos", "user:42/cat.jpg", skute.ReadOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read %q (%d sibling(s))\n", values[0], len(values))

	// Update through the context: supersedes what we read. Per-request
	// options trade consistency for latency — this write settles for one
	// replica acknowledgement and bounds the whole request to 500ms.
	opts := skute.WriteOptions{Consistency: skute.One, Timeout: 500 * time.Millisecond}
	if err := cluster.Put(ctx, "photos", "user:42/cat.jpg", []byte("...new bytes..."), vctx, opts); err != nil {
		log.Fatal(err)
	}
	values, vctx, _ = cluster.Get(ctx, "photos", "user:42/cat.jpg", skute.ReadOptions{Consistency: skute.All})
	fmt.Printf("after update: %q\n", values[0])

	// Batched multi-key writes and reads group keys by partition and send
	// at most one envelope per replica node — far cheaper than a quorum
	// round per key.
	var entries []skute.Entry
	for i := 0; i < 8; i++ {
		entries = append(entries, skute.Entry{
			Key:   fmt.Sprintf("user:42/thumb-%d.jpg", i),
			Value: []byte("...thumbnail..."),
		})
	}
	if err := cluster.MPut(ctx, "photos", entries, skute.WriteOptions{}); err != nil {
		log.Fatal(err)
	}
	keys := make([]string, len(entries))
	for i := range entries {
		keys[i] = entries[i].Key
	}
	batch, err := cluster.MGet(ctx, "photos", keys, skute.ReadOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batched read returned %d/%d thumbnails\n", len(batch), len(keys))

	// Where did the replicas land? Diversity-aware placement puts the two
	// copies on different continents.
	replicas, _ := cluster.Replicas(ctx, "photos", "user:42/cat.jpg")
	fmt.Printf("replicas: %v\n", replicas)

	// The availability estimate (Eq. 2 of the paper) vs the SLA threshold.
	avail, threshold, _ := cluster.Availability(ctx, "photos")
	min := -1.0
	for _, a := range avail {
		if min < 0 || a < min {
			min = a
		}
	}
	fmt.Printf("availability: min %.1f across %d partitions (SLA threshold %.1f)\n",
		min, len(avail), threshold)

	// Clean up.
	if err := cluster.Delete(ctx, "photos", "user:42/cat.jpg", vctx, skute.WriteOptions{}); err != nil {
		log.Fatal(err)
	}
	values, _, _ = cluster.Get(ctx, "photos", "user:42/cat.jpg", skute.ReadOptions{})
	fmt.Printf("after delete: %d value(s)\n", len(values))
}
