package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is set on
// end-to-end metrics only: the share of the baseline median by which the
// metric may get worse before `compare` calls it a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// contract is BENCHMARK.json, the one place that names the workloads and
// the metrics with their units, directions and bounds. The program keeps
// no second copy: it reports under these names or refuses to run.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// The loaded contract's metric lists and measured window; loadContract
// fills them once, before anything runs.
var (
	endToEnd   []metricDef
	perLayer   []metricDef
	runSeconds int
	// whyOf is each workload's one-line reason for existing.
	whyOf = map[string]string{}
)

// loadContract reads BENCHMARK.json and checks that it names exactly the
// workloads this program can run, in the program's order.
func loadContract(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var c contract
	if err := dec.Decode(&c); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(c.Workloads) != len(specs) {
		return fmt.Errorf("%s names %d workloads, the program has %d", path, len(c.Workloads), len(specs))
	}
	for i, w := range c.Workloads {
		if w.Name != specs[i].name {
			return fmt.Errorf("%s: workload %d is %q, the program's is %q", path, i, w.Name, specs[i].name)
		}
		whyOf[w.Name] = w.Why
	}
	if c.RunSeconds < 1 || len(c.EndToEnd) == 0 || len(c.PerLayer) == 0 {
		return fmt.Errorf("%s: run_seconds, end_to_end and per_layer must all be set", path)
	}
	endToEnd, perLayer, runSeconds = c.EndToEnd, c.PerLayer, c.RunSeconds
	return nil
}
