package main

import (
	"fmt"
	"time"

	"skute/internal/experiments"
	"skute/internal/sim"
)

// figure is one of the paper's simulator experiments the economy job
// runs through experiments.Run, the way `skute-sim -experiment` does.
type figure struct {
	id string
	// inserts marks the storage-saturation run: its epochs also carry the
	// insert stream, so its epoch time is the workload's "write".
	inserts bool
	// checks are the facts of the experiment's result that must be 0.
	checks []string
}

// figures is the fixed job. Its seed is the experiments' own (1), not the
// benchmark's: Fig. 3 fails 20 servers at once, and under other seeds
// that hits every replica of some partition, which the output check
// would rightly call a lost partition.
var figures = []figure{
	{id: "fig2", checks: []string{"final_violations"}},
	{id: "fig3", checks: []string{"final_violations", "lost_partitions"}},
	{id: "fig5", inserts: true},
}

// economySetups is how many times the job's set-up (building the
// 200-server cloud) is timed; one build takes a fraction of a
// millisecond, so many are cheap and their median is steady.
const economySetups = 301

// runEconomy runs the figures once, at the scale e names. Neither the seed nor the
// window changes the job; both are recorded so that runs can be told
// apart.
func runEconomy(sp *spec, seed int64, trace int, e env) (*result, error) {
	began := time.Now()
	res := newResult(sp, seed, trace, e)
	var setups []float64
	for i := 0; i < economySetups; i++ {
		start := time.Now()
		if _, err := sim.New(sim.PaperConfig()); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	figS := map[string]float64{}
	facts := map[string]float64{}
	// Wall time and epochs of the query-only figures and of the one with
	// the insert stream.
	var readS, writeS float64
	var readEpochs, writeEpochs int
	before := takeUsage(nil)
	start := time.Now()
	for _, f := range figures {
		figStart := time.Now()
		r, err := experiments.Run(f.id, e.simScale)
		if err != nil {
			return nil, err
		}
		took := time.Since(figStart).Seconds()
		figS[f.id] = took
		if f.inserts {
			writeS, writeEpochs = writeS+took, writeEpochs+r.Table.Rows()
		} else {
			readS, readEpochs = readS+took, readEpochs+r.Table.Rows()
		}
		for _, name := range f.checks {
			v, ok := r.Facts[name]
			if !ok {
				return nil, fmt.Errorf("experiment %s no longer reports %s", f.id, name)
			}
			facts[name] += v
		}
	}
	wall := time.Since(start)
	after := takeUsage(nil)

	epochs := readEpochs + writeEpochs
	if readEpochs == 0 || writeEpochs == 0 {
		return nil, fmt.Errorf("experiments ran %d query-only and %d insert epochs", readEpochs, writeEpochs)
	}
	res.Attempted = int64(epochs)
	res.Correct = facts["final_violations"] == 0 && facts["lost_partitions"] == 0
	if !res.Correct {
		res.notef("%.0f partitions below their availability threshold at the end, %.0f partitions lost",
			facts["final_violations"], facts["lost_partitions"])
	}
	ops := float64(epochs)
	if trace == 0 {
		res.set(endToEnd, "setup_s", median(setups))
		res.set(endToEnd, "throughput_ops_s", ops/wall.Seconds())
		res.set(endToEnd, "read_p50_us", readS*1e6/float64(readEpochs))
		res.set(endToEnd, "write_p50_us", writeS*1e6/float64(writeEpochs))
		res.set(endToEnd, "cpu_us_per_op", float64((after.cpu-before.cpu).Microseconds())/ops)
		res.notef("%d epochs: %d query-only (their mean epoch time is the read), %d with the insert stream (the write)",
			epochs, readEpochs, writeEpochs)
	} else {
		for _, d := range perLayer {
			res.set(perLayer, d.Name, 0)
		}
		set := func(name string, v float64) { res.set(perLayer, name, v) }
		for id, s := range figS {
			set("sim."+id+"_s", s)
		}
		set("sim.epochs_per_s", ops/wall.Seconds())
		set("sim.final_violations", facts["final_violations"])
		set("sim.lost_partitions", facts["lost_partitions"])
		setProcessDeltas(res, before, after, ops)
		if err := runProbes(res, e.workdir); err != nil {
			return nil, err
		}
	}
	res.WallS = time.Since(began).Seconds()
	return res, nil
}
