// Command skutectl is the client CLI of the Skute prototype store: it
// connects to any node of a cmd/skuted deployment and issues quorum
// reads, writes and deletes — singly or batched — with per-request
// consistency and deadline control.
//
// Usage:
//
//	skutectl -addr 127.0.0.1:7000 -app app1 -class gold get user:42
//	skutectl -addr 127.0.0.1:7000 -app app1 -class gold put user:42 '{"name":"x"}'
//	skutectl -addr 127.0.0.1:7000 -app app1 -class gold del user:42
//	skutectl -addr 127.0.0.1:7000 -app app1 -class gold mget user:1 user:2 user:3
//	skutectl -addr 127.0.0.1:7000 -app app1 -class gold mput user:1 v1 user:2 v2
//	skutectl -addr 127.0.0.1:7000 -consistency one -timeout 500ms get user:42
//	skutectl -addr 127.0.0.1:7000 members
//
// The -consistency flag picks the per-request replica acknowledgement
// level (one, quorum, all, or an explicit count like 2); -timeout bounds
// the whole request, client network time included — the budget travels
// to the coordinating node, which stops its replica fan-out when it
// expires. mget and mput group keys by partition on the coordinator, so
// a large batch costs at most one envelope per replica node instead of
// one quorum round per key.
//
// Writes read the current causal context first, so a plain put behaves as
// a read-modify-write and never creates gratuitous siblings.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"text/tabwriter"
	"time"

	"skute/internal/cluster"
	"skute/internal/ring"
	"skute/internal/transport"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7000", "address of any cluster node")
		app         = flag.String("app", "app1", "application name")
		class       = flag.String("class", "gold", "availability class")
		timeout     = flag.Duration("timeout", 0, "per-request deadline, 0 = transport defaults (e.g. 500ms)")
		consistency = flag.String("consistency", "default", "replica acknowledgements per request: default, one, quorum, all, or a count")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 || (args[0] != "members" && len(args) < 2) {
		fmt.Fprintln(os.Stderr, "usage: skutectl [flags] get|put|del|mget|mput <key> [value|key...] | members")
		os.Exit(2)
	}
	level, err := parseConsistency(*consistency)
	if err != nil {
		fail(err)
	}
	ropts := cluster.ReadOptions{Consistency: level, Timeout: *timeout}
	wopts := cluster.WriteOptions{Consistency: level, Timeout: *timeout}
	op := args[0]
	id := ring.RingID{App: *app, Class: *class}
	client := cluster.NewClient(transport.NewTCP(), *addr)
	ctx := context.Background()

	switch op {
	case "get":
		values, _, err := client.Get(ctx, id, args[1], ropts)
		if err != nil {
			fail(err)
		}
		if len(values) == 0 {
			fmt.Println("(not found)")
			os.Exit(1)
		}
		printValues("", values)
	case "put":
		if len(args) < 3 {
			fmt.Fprintln(os.Stderr, "skutectl: put needs a value")
			os.Exit(2)
		}
		key := args[1]
		_, vctx, err := client.Get(ctx, id, key, ropts) // read-modify-write context
		if err != nil {
			fail(err)
		}
		if err := client.Put(ctx, id, key, []byte(args[2]), vctx, wopts); err != nil {
			fail(err)
		}
		fmt.Println("ok")
	case "del":
		key := args[1]
		_, vctx, err := client.Get(ctx, id, key, ropts)
		if err != nil {
			fail(err)
		}
		if err := client.Delete(ctx, id, key, vctx, wopts); err != nil {
			fail(err)
		}
		fmt.Println("ok")
	case "mget":
		keys := args[1:]
		res, err := client.MGet(ctx, id, keys, ropts)
		if err != nil {
			fail(err)
		}
		sorted := append([]string(nil), keys...)
		sort.Strings(sorted)
		missing := 0
		for _, k := range sorted {
			r := res[k]
			if len(r.Values) == 0 {
				fmt.Printf("%s: (not found)\n", k)
				missing++
				continue
			}
			printValues(k+": ", r.Values)
		}
		if missing == len(keys) {
			os.Exit(1)
		}
	case "mput":
		kvs := args[1:]
		if len(kvs) == 0 || len(kvs)%2 != 0 {
			fmt.Fprintln(os.Stderr, "skutectl: mput needs key value pairs")
			os.Exit(2)
		}
		// One batched context read, then one batched write: the whole
		// round trip is two exchanges regardless of the batch size.
		keys := make([]string, 0, len(kvs)/2)
		for i := 0; i < len(kvs); i += 2 {
			keys = append(keys, kvs[i])
		}
		res, err := client.MGet(ctx, id, keys, ropts)
		if err != nil {
			fail(err)
		}
		entries := make([]cluster.Entry, 0, len(keys))
		for i := 0; i < len(kvs); i += 2 {
			entries = append(entries, cluster.Entry{
				Key:     kvs[i],
				Value:   []byte(kvs[i+1]),
				Context: res[kvs[i]].Context,
			})
		}
		if err := client.MPut(ctx, id, entries, wopts); err != nil {
			fail(err)
		}
		fmt.Printf("ok (%d keys)\n", len(entries))
	case "members":
		members, err := client.Members(ctx)
		if err != nil {
			fail(err)
		}
		sort.Slice(members, func(i, j int) bool { return members[i].Name < members[j].Name })
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "NAME\tADDR\tSTATE\tINCARNATION\tLAST HEARD")
		for _, m := range members {
			age := "-"
			if m.AgeMillis > 0 {
				age = (time.Duration(m.AgeMillis) * time.Millisecond).Round(time.Millisecond).String() + " ago"
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%s\n", m.Name, m.Addr, m.State, m.Incarnation, age)
		}
		w.Flush()
	default:
		fmt.Fprintf(os.Stderr, "skutectl: unknown op %q\n", op)
		os.Exit(2)
	}
}

// parseConsistency maps the -consistency flag to a cluster level.
func parseConsistency(s string) (cluster.Consistency, error) {
	switch s {
	case "", "default":
		return cluster.ConsistencyDefault, nil
	case "one":
		return cluster.ConsistencyOne, nil
	case "quorum":
		return cluster.ConsistencyQuorum, nil
	case "all":
		return cluster.ConsistencyAll, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("bad -consistency %q (want default, one, quorum, all, or a count)", s)
	}
	return cluster.ConsistencyCount(n), nil
}

// printValues prints one key's sibling values.
func printValues(prefix string, values [][]byte) {
	for i, v := range values {
		if len(values) > 1 {
			fmt.Printf("%ssibling %d: %s\n", prefix, i, v)
			continue
		}
		fmt.Printf("%s%s\n", prefix, v)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "skutectl: %v\n", err)
	os.Exit(1)
}
