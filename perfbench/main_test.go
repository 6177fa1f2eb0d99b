package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gridroute/internal/engine"
	"gridroute/internal/spacetime"
)

// benchmarkJSON is the part of ../BENCHMARK.json the benchmark must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestMain lets the test binary serve as the pass process the benchmark
// starts for each pass.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "pass" {
		os.Exit(runPass(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runCLI runs the command at test size and returns its exit code, its
// output lines and the parsed result line (nil when there is none).
func runCLI(t *testing.T, args ...string) (int, []string, *resultLine) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(append(args, "--workdir", t.TempDir()), &out, &errb)
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return code, lines, nil
	}
	if code != 0 {
		t.Logf("stderr: %s", errb.String())
	}
	return code, lines, &res
}

func TestBenchmarkJSONMatchesMetricTable(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" {
			t.Errorf("workload %s has no reason", w.Name)
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.Name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, want)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, benchmark has %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, benchmark has %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
}

// Every workload runs through the same code at test size, in both modes,
// and prints every named metric with its unit — in the table and in the
// result line.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			t.Run(w.Name+"/trace="+strconv.Itoa(trace), func(t *testing.T) {
				code, lines, res := runCLI(t, "--workload", w.Name, "--seed", "7", "--seconds", "0", "--trace", strconv.Itoa(trace), "--tiny")
				if code != 0 || res == nil {
					t.Fatalf("exit %d, result %v\n%s", code, res, strings.Join(lines, "\n"))
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics in the result line, want %d", len(res.Metrics), len(defs))
				}
				table := strings.Join(lines, "\n")
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if math.IsNaN(m.Value) || m.Value < 0 && d.name != "trace.overhead_frac" {
						t.Errorf("metric %s = %v", d.name, m.Value)
					}
					if !strings.Contains(table, "  "+d.name+" ") || !strings.Contains(table, " "+d.unit+"\n") {
						t.Errorf("metric %s is missing from the table", d.name)
					}
				}
			})
		}
	}
}

func TestUsageErrorsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "grid64-transpose", "--trace", "2"},
		{"--workload", "grid64-transpose", "--bogus-flag"},
	} {
		code, _, res := runCLI(t, args...)
		if code != 2 || res != nil {
			t.Errorf("%v: exit %d, result %v; want exit 2 and no result", args, code, res)
		}
	}
}

func tinyPass(t *testing.T, name string) (*config, *iteration) {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &config{w: w, seed: 3, tiny: true, workdir: t.TempDir()}
	it, err := runPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(it.failures) > 0 {
		t.Fatalf("clean pass failed the gate: %v", it.failures)
	}
	return cfg, it
}

// The gate must trip when the replay sees a corrupted schedule set: one
// delivered schedule replayed again, c more times, overloads its first link.
func TestGateTripsOnReplayedSchedule(t *testing.T) {
	_, it := tinyPass(t, "line4096-uniform")
	res := it.res
	j := slices.IndexFunc(res.Schedules, func(s *spacetime.Schedule) bool { return s != nil && len(s.Moves) > 0 })
	if j < 0 {
		t.Fatal("no delivered schedule to corrupt")
	}
	admitted, schedules := slices.Clone(res.Admitted), slices.Clone(res.Schedules)
	for range res.Grid.C {
		admitted = append(admitted, res.Admitted[j])
		schedules = append(schedules, res.Schedules[j])
	}
	violations, onTime := replay(res.Grid, admitted, schedules, nil, -1)
	if len(violations) == 0 {
		t.Fatal("replaying a schedule c+1 times reported no violation")
	}
	if fail := gate(it.inst, res, violations, onTime); len(fail) == 0 {
		t.Fatal("gate passed a corrupted schedule set")
	}
}

// Each certificate the gate checks trips it on its own.
func TestGateTripsOnEachCheck(t *testing.T) {
	_, it := tinyPass(t, "line4096-uniform")
	for name, corrupt := range map[string]func(r *engine.Result){
		"accounting":   func(r *engine.Result) { r.Stats.Accepted++ },
		"load bound":   func(r *engine.Result) { r.MaxLoad = r.LoadBound * 1.01 },
		"primal":       func(r *engine.Result) { r.PrimalValue = 2*float64(r.Stats.Accepted) + 1 },
		"throughput":   func(r *engine.Result) { r.Throughput++ },
		"anomalies":    func(r *engine.Result) { r.RouteStats.Anomalies = 1 },
		"decision log": func(r *engine.Result) { r.Decisions = r.Decisions[1:] },
	} {
		r := *it.res
		corrupt(&r)
		if fail := gate(it.inst, &r, it.violations, it.onTime); len(fail) == 0 {
			t.Errorf("%s: gate passed a corrupted result", name)
		}
	}
}

// The traced run reproduces the engine's decisions and outcomes exactly on
// every workload, and the differential check notices any difference.
func TestTracedRunMatchesEngine(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg, it := tinyPass(t, w.Name)
			walPath, cleanup, err := walFile(cfg.w, cfg.workdir)
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup()
			m, err := runTraced(cfg.w, it.inst, walPath)
			if err != nil {
				t.Fatal(err)
			}
			want := engineSummary(it.res)
			if diff := m.summary().differences(want); len(diff) > 0 || len(m.violations) > 0 {
				t.Fatalf("traced run differs from the engine: %v, %d violations", diff, len(m.violations))
			}
			if w.WAL && m.walBytes == 0 {
				t.Fatal("WAL workload wrote no log")
			}

			d := &m.decisions[len(m.decisions)/2]
			d.Cost = math.Nextafter(d.Cost, math.Inf(1))
			if diff := m.summary().differences(want); len(diff) == 0 {
				t.Fatal("differential missed a one-ulp cost difference")
			}
			d.Cost = math.Nextafter(d.Cost, math.Inf(-1))
			m.outcomes[0].Path.Axes[0] ^= 1
			if diff := m.summary().differences(want); len(diff) == 0 {
				t.Fatal("differential missed a changed routing path")
			}
		})
	}
}

func TestFailedRunReportsIncorrect(t *testing.T) {
	rep := &report{attempted: 1, values: map[string]float64{}, failures: []string{"boom"}}
	for _, d := range endToEnd {
		rep.values[d.name] = 1
	}
	var out bytes.Buffer
	if err := writeReport(&out, rep, endToEnd); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Correct {
		t.Fatalf("result line %q: err %v, correct %v", lines[len(lines)-1], err, res.Correct)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	r := &recorder{spans: []span{
		{start: 0, end: 100, parent: -1},
		{start: 10, end: 40, parent: 0},
		{start: 50, end: 60, parent: 0},
		{start: 12, end: 20, parent: 1},
	}}
	if got, want := r.selfTimes(), []int64{60, 22, 10, 8}; !slices.Equal(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}
