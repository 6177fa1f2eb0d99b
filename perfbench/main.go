// Command perfbench is the repository benchmark. It runs one named workload
// through the streaming admission engine exactly as cmd/routed does and
// prints the end-to-end metrics (--trace 0), or also drives the same input
// through each layer's public functions with a span around every call and
// prints the per-layer metrics (--trace 1). Every run checks that the
// outputs are correct and exits 1 when they are not.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench --workload line4096-uniform --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the metric table and how to read the
// traced run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "pass" {
		os.Exit(runPass(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark run.
type config struct {
	name string
	w    workload
	seed int64
	// instance selects one of the run's inputs (pass processes only).
	instance int
	seconds  float64
	trace    int // 0: end-to-end run; 1: traced run
	tiny     bool
	workdir  string
}

func newFlags() (*flag.FlagSet, *config) {
	cfg := &config{}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.name, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed, passed to the scenario as its seed parameter")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "how long to keep starting measured passes")
	fs.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	fs.BoolVar(&cfg.tiny, "tiny", false, "shrink the workload to test size")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for WAL files and span dumps")
	return fs, cfg
}

// resolve validates the parsed flags.
func (cfg *config) resolve() error {
	w, err := lookupWorkload(cfg.name)
	if err != nil {
		return err
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	if cfg.seed > 1<<53 || cfg.seed < -(1<<53) {
		return fmt.Errorf("seed %d exceeds the exact float64 range", cfg.seed)
	}
	cfg.w = w
	return os.MkdirAll(cfg.workdir, 0o755)
}

// minPasses is the least number of measured passes of an end-to-end run;
// setup_s and the per-pass timings are medians over them. It covers every
// input once, so delivered (their mean) is the same on every run of a seed.
const minPasses = instances

// passTimeout bounds one pass process.
const passTimeout = 150 * time.Second

// metricDef names one reported metric. endToEnd and perLayer are the
// benchmark's metric table; BENCHMARK.json lists the same names and units.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"admit_pkts_per_s", "1/s", "higher"},
	{"admit_p50_us", "us", "lower"},
	{"admit_p99_us", "us", "lower"},
	{"drain_s", "s", "lower"},
	{"run_pkts_per_s", "1/s", "higher"},
	{"delivered", "count", "higher"},
	{"max_rss_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	{"scenario.generate_s", "s", "lower"},
	{"engine.new_s", "s", "lower"},
	{"engine.wait_us_p50", "us", "lower"},
	{"engine.wait_us_p99", "us", "lower"},
	{"engine.handoff_us_p50", "us", "lower"},
	{"engine.queue_full", "count", "lower"},
	{"spacetime.geometry_s", "s", "lower"},
	{"sketch.query_s", "s", "lower"},
	{"sketch.query_us_p50", "us", "lower"},
	{"sketch.query_us_p99", "us", "lower"},
	{"sketch.queries", "count", "lower"},
	{"sketch.window_tiles_p50", "tiles", "lower"},
	{"sketch.window_tiles_max", "tiles", "lower"},
	{"lattice.pool_share", "ratio", "lower"},
	{"ipp.offer_s", "s", "lower"},
	{"ipp.offer_ns_p50", "ns", "lower"},
	{"ipp.accept_ratio", "ratio", "higher"},
	{"ipp.load_ratio", "ratio", "lower"},
	{"wal.append_us_p50", "us", "lower"},
	{"wal.append_us_p99", "us", "lower"},
	{"wal.sync_us_p50", "us", "lower"},
	{"wal.sync_us_p99", "us", "lower"},
	{"wal.syncs", "count", "lower"},
	{"wal.bytes", "bytes", "lower"},
	{"detroute.run_s", "s", "lower"},
	{"detroute.ns_per_admitted", "ns", "lower"},
	{"detroute.delivered_ratio", "ratio", "higher"},
	{"spacetime.schedule_s", "s", "lower"},
	{"netsim.verify_s", "s", "lower"},
	{"netsim.add_us_p50", "us", "lower"},
	{"trace.stream_s", "s", "lower"},
	{"trace.drain_s", "s", "lower"},
	{"trace.stream_unexplained_frac", "ratio", "lower"},
	{"trace.drain_unexplained_frac", "ratio", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// report is the outcome of one run.
type report struct {
	attempted, failed int
	values            map[string]float64
	failures          []string
}

// run is the parent process of a run: it starts the pass processes one
// after another, aggregates their records and prints the result.
func run(args []string, stdout, stderr io.Writer) int {
	fs, cfg := newFlags()
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := cfg.resolve(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	engines, mirrors, err := runPasses(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rep, defs := aggregate(cfg, engines, mirrors)
	fmt.Fprintf(stdout, "perfbench: workload %s, seed %d: %d requests per input, %d producer(s), dp-workers %d\n",
		cfg.w.Name, cfg.seed, engines[0].Attempted, cfg.w.producers(), cfg.w.dpWorkers())
	for _, e := range engines[:min(instances, len(engines))] {
		fmt.Fprintln(stdout, "perfbench:", e.Header)
	}
	if cfg.w.WAL {
		fmt.Fprintln(stdout, "perfbench: WAL device:", deviceOf(cfg.workdir))
	}
	fmt.Fprintf(stdout, "perfbench: %d measured passes, one process each, cycling through the inputs; %d Admit calls\n", len(engines), rep.attempted)
	if cfg.trace == 1 {
		fmt.Fprintf(stdout, "perfbench: spans of the last traced pass: %s\n", filepath.Join(cfg.workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.w.Name, cfg.seed)))
	}
	if err := writeReport(stdout, rep, defs); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if len(rep.failures) > 0 {
		for _, f := range rep.failures {
			fmt.Fprintln(stderr, "perfbench: FAIL:", f)
		}
		return 1
	}
	return 0
}

// runPasses starts measured passes until the run's time is spent: at least
// minPasses for end-to-end runs, at least one for traced runs, where each
// pass is an engine pass followed by a mirror pass over the same input.
func runPasses(cfg *config, stderr io.Writer) (engines, mirrors []*passRecord, err error) {
	least := minPasses
	if cfg.trace == 1 {
		least = 1
	}
	start := time.Now()
	for len(engines) < least || time.Since(start).Seconds() < cfg.seconds {
		inst := len(engines) % instances
		e, err := spawnPass(cfg, engineKind, inst, stderr)
		if err != nil {
			return nil, nil, err
		}
		engines = append(engines, e)
		if cfg.trace == 1 {
			m, err := spawnPass(cfg, mirrorKind, inst, stderr)
			if err != nil {
				return nil, nil, err
			}
			mirrors = append(mirrors, m)
		}
	}
	return engines, mirrors, nil
}

// spawnPass runs one pass in a process of its own and returns its record.
// The process is killed if the pass overruns passTimeout or this process
// dies.
func spawnPass(cfg *config, kind string, instance int, stderr io.Writer) (*passRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"pass", "--kind", kind, "--instance", strconv.Itoa(instance),
		"--workload", cfg.w.Name, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--trace", strconv.Itoa(cfg.trace), "--workdir", cfg.workdir}
	if cfg.tiny {
		args = append(args, "--tiny")
	}
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s pass: %w", kind, err)
	}
	rec := &passRecord{}
	if err := json.Unmarshal(out.Bytes(), rec); err != nil {
		return nil, fmt.Errorf("%s pass: bad record: %w", kind, err)
	}
	return rec, nil
}

// aggregate turns the pass records into the run's report — medians over
// passes — with every pass's correctness failures, and any pass that
// decided differently from the first pass over the same input. Pass i ran
// input i mod instances.
func aggregate(cfg *config, engines, mirrors []*passRecord) (*report, []metricDef) {
	rep := &report{values: map[string]float64{}}
	for i, e := range engines {
		rep.attempted += e.Attempted
		rep.failed += e.Failed
		for _, f := range e.Failures {
			rep.failures = append(rep.failures, fmt.Sprintf("pass %d: %s", i, f))
		}
		ref := engines[i%instances].Summary
		for _, d := range e.Summary.differences(ref) {
			rep.failures = append(rep.failures, fmt.Sprintf("pass %d decided differently from pass %d on the same input: %s", i, i%instances, d))
		}
	}
	if cfg.trace == 0 {
		var setup, admitRate, p50, p99, runRate, drain, rss []float64
		for _, e := range engines {
			n := float64(e.Attempted)
			setup = append(setup, float64(e.GenerateNs+e.NewEngineNs)/1e9)
			admitRate = append(admitRate, n*1e9/float64(e.StreamNs))
			p50 = append(p50, percentile(e.AdmitNs, 50)/1e3)
			p99 = append(p99, percentile(e.AdmitNs, 99)/1e3)
			runRate = append(runRate, n*1e9/float64(e.StreamNs+e.DrainNs))
			drain = append(drain, float64(e.DrainNs)/1e9)
			rss = append(rss, e.RSSMB)
		}
		v := rep.values
		v["setup_s"] = median(setup)
		v["admit_pkts_per_s"] = median(admitRate)
		v["admit_p50_us"] = median(p50)
		v["admit_p99_us"] = median(p99)
		v["drain_s"] = median(drain)
		v["run_pkts_per_s"] = median(runRate)
		delivered := 0
		for _, e := range engines[:instances] {
			delivered += e.Summary.Delivered
		}
		v["delivered"] = float64(delivered) / instances
		v["max_rss_mb"] = median(rss)
		return rep, endToEnd
	}

	samples := map[string][]float64{}
	for i, m := range mirrors {
		for _, f := range m.Failures {
			rep.failures = append(rep.failures, fmt.Sprintf("pass %d: %s", i, f))
		}
		for _, d := range m.Summary.differences(engines[i].Summary) {
			rep.failures = append(rep.failures, fmt.Sprintf("pass %d: traced run differs from the engine: %s", i, d))
		}
		for _, layer := range []map[string]float64{m.Layer, engineMetrics(engines[i], m)} {
			for k, x := range layer {
				samples[k] = append(samples[k], x)
			}
		}
	}
	for k, xs := range samples {
		rep.values[k] = median(xs)
	}
	return rep, perLayer
}

// writeReport prints every metric of defs by name and unit, then the JSON
// result line.
func writeReport(out io.Writer, rep *report, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		x, ok := rep.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("metric %s is %v", d.name, x)
		}
		metrics[d.name] = value{x, d.unit}
		fmt.Fprintf(out, "  %-32s %16.6g %s\n", d.name, x, d.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(rep.failures) == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of a sample (0 when empty).
func percentile[T int | int64](xs []T, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	r := int(math.Ceil(p/100*float64(len(s)))) - 1
	return float64(s[min(max(r, 0), len(s)-1)])
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// maxRSSMB is the process's peak resident set size so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// deviceOf names the mount (source and file system type) holding dir, from
// /proc/self/mountinfo: fsync cost depends on it.
func deviceOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	best, desc := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		pre, post, ok := strings.Cut(line, " - ")
		f, g := strings.Fields(pre), strings.Fields(post)
		if !ok || len(f) < 5 || len(g) < 2 {
			continue
		}
		mnt := f[4]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) >= len(best) {
			best, desc = mnt, fmt.Sprintf("%s (%s) mounted at %s", g[1], g[0], mnt)
		}
	}
	return desc
}
