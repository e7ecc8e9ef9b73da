// Multitenant: three applications share one 12-server cloud with
// differentiated availability SLAs (2, 3 and 4 replicas — the setup of
// Fig. 1 of the paper), a server fails and later comes back, and the
// economy repairs every ring back above its threshold without
// coordination. Data moves through the batched multi-key API.
package main

import (
	"context"
	"fmt"
	"log"

	"skute"
)

func main() {
	// 12 servers over 4 continents; the "west" half is cheaper.
	var servers []skute.Server
	continents := []string{"eu", "us", "ap", "sa"}
	for i := 0; i < 12; i++ {
		ct := continents[i%4]
		rent := 100.0
		if i >= 6 {
			rent = 125
		}
		servers = append(servers, skute.Server{
			Name:        fmt.Sprintf("%s-%d", ct, i),
			Location:    fmt.Sprintf("%s/country%d/dc%d/room0/rack%d/srv%d", ct, i%4, i/4, i%2, i),
			MonthlyRent: rent,
		})
	}

	cluster, err := skute.NewCluster(skute.Options{
		Servers: servers,
		Apps: []skute.App{
			{Name: "blog", SLA: skute.SLA{Class: "bronze", Replicas: 2}, Partitions: 12},
			{Name: "shop", SLA: skute.SLA{Class: "silver", Replicas: 3}, Partitions: 12},
			{Name: "bank", SLA: skute.SLA{Class: "gold", Replicas: 4}, Partitions: 12},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()

	// Seed every app with one batched MPut: 30 keys grouped by partition
	// cost one envelope per replica node, not 30 quorum rounds.
	for _, app := range []string{"blog", "shop", "bank"} {
		entries := make([]skute.Entry, 30)
		for i := range entries {
			entries[i] = skute.Entry{Key: fmt.Sprintf("%s-key-%d", app, i), Value: []byte("payload")}
		}
		if err := cluster.MPut(ctx, app, entries, skute.WriteOptions{}); err != nil {
			log.Fatal(err)
		}
	}

	report := func(when string) {
		fmt.Printf("--- %s ---\n", when)
		for _, app := range []string{"blog", "shop", "bank"} {
			avail, th, _ := cluster.Availability(ctx, app)
			viol, min := 0, -1.0
			for _, a := range avail {
				if a < th {
					viol++
				}
				if min < 0 || a < min {
					min = a
				}
			}
			reps, _ := cluster.Replicas(ctx, app, app+"-key-0")
			fmt.Printf("%-5s SLA=%d replicas  threshold=%6.1f  min-avail=%6.1f  violations=%d  e.g. %v\n",
				app, len(reps), th, min, viol, reps)
		}
	}
	report("initial placement (diversity-aware)")

	// A server dies; the paper's scenario of Section III-C.
	victim := servers[1].Name
	if err := cluster.FailServer(victim); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n!! server %s failed\n\n", victim)
	report("right after the failure")

	// Run economic epochs: every surviving virtual node decides on its
	// own; under-replicated partitions repair themselves.
	totalOps := skute.EpochOps{}
	for epoch := 0; epoch < 4; epoch++ {
		ops, err := cluster.RunEpoch(ctx)
		if err != nil {
			log.Fatal(err)
		}
		totalOps.Replications += ops.Replications
		totalOps.Migrations += ops.Migrations
		totalOps.Suicides += ops.Suicides
	}
	fmt.Printf("\nafter 4 economic epochs: %d replications, %d migrations, %d suicides\n\n",
		totalOps.Replications, totalOps.Migrations, totalOps.Suicides)
	report("after self-repair")

	// The server comes back (empty of fresh writes but alive): the
	// fail/heal churn cycle the economy absorbs without operator help.
	if err := cluster.ReviveServer(victim); err != nil {
		log.Fatal(err)
	}
	if _, err := cluster.RunEpoch(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserver %s revived\n\n", victim)
	report("after revival + one epoch")

	// All data is still there — checked with one batched MGet per app.
	lost := 0
	for _, app := range []string{"blog", "shop", "bank"} {
		keys := make([]string, 30)
		for i := range keys {
			keys[i] = fmt.Sprintf("%s-key-%d", app, i)
		}
		res, err := cluster.MGet(ctx, app, keys, skute.ReadOptions{})
		if err != nil {
			lost += len(keys)
			continue
		}
		for _, k := range keys {
			if len(res[k].Values) == 0 {
				lost++
			}
		}
	}
	fmt.Printf("\ndata check: %d/90 keys lost\n", lost)
}
