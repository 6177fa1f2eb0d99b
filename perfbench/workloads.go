package main

import (
	"fmt"
	"maps"
	"runtime"
	"strings"
)

// workload is one named input set: a registered scenario at a fixed size,
// fed to the engine by a fixed number of closed-loop producers. The seed is
// not part of the workload: it is a benchmark argument, from which params
// derives the scenario's "seed" parameter for each of the run's inputs.
type workload struct {
	Name     string
	Scenario string
	Params   map[string]float64
	// Producers is the number of concurrent closed-loop producers; 0 means
	// one per CPU (runtime.NumCPU), the fan-in case.
	Producers int
	// DPWorkers is the engine's wavefront DP width; 0 means cmd/routed's
	// default, one per CPU.
	DPWorkers int
	// WAL journals every decision to a write-ahead log under the work
	// directory, at the engine's default fsync batch.
	WAL bool
	// Tiny shrinks the workload to test size (same code path, same layers).
	Tiny map[string]float64
}

// workloads is the benchmark's catalog. BENCHMARK.json lists the same names
// with the reason each was chosen; README.md says which layer each one
// stresses or bypasses.
var workloads = []workload{
	{
		Name:      "line4096-uniform",
		Scenario:  "uniform",
		Params:    map[string]float64{"n": 4096, "d": 1, "reqs": 2500},
		Producers: 1,
		// Serial DP: with a band per CPU, the pipelined bands wait on each
		// other chunk by chunk, so on a small VM whose host steals 5-15% of
		// the CPU time the admit rate swung 1.5x and the p99 3x with the
		// steal level, which no bound can absorb.
		DPWorkers: 1,
		Tiny:      map[string]float64{"n": 256, "reqs": 120},
	},
	{
		Name:      "grid64-transpose",
		Scenario:  "transpose",
		Params:    map[string]float64{"n": 64, "waves": 256},
		Producers: 1,
		Tiny:      map[string]float64{"n": 8, "waves": 4},
	},
	{
		Name:     "line64-zipf-wal",
		Scenario: "zipf-hotspot",
		Params:   map[string]float64{"n": 64, "d": 1, "reqs": 20000, "maxt": 8192},
		WAL:      true,
		Tiny:     map[string]float64{"reqs": 300, "maxt": 256},
	},
}

func lookupWorkload(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// instances is the number of inputs a run draws from its seed. Passes cycle
// through them, so that a run's medians do not hang on one draw of the
// scenario's randomness.
const instances = 5

// params returns the scenario overrides for one input of a run: the
// workload's size, shrunk when tiny, and the scenario seed of the run's
// instance'th input, seed·instances + instance.
func (w workload) params(seed int64, instance int, tiny bool) map[string]float64 {
	p := maps.Clone(w.Params)
	if tiny {
		maps.Copy(p, w.Tiny)
	}
	p["seed"] = float64(seed*instances + int64(instance))
	return p
}

func (w workload) producers() int {
	if w.Producers > 0 {
		return w.Producers
	}
	return runtime.NumCPU()
}

func (w workload) dpWorkers() int {
	if w.DPWorkers > 0 {
		return w.DPWorkers
	}
	return runtime.NumCPU()
}
