package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"gridroute/internal/detroute"
	"gridroute/internal/engine"
	"gridroute/internal/lattice"
)

// A pass runs in a process of its own, started by the run's parent process
// with the "pass" subcommand: a fresh process per pass is what a one-shot
// cmd/routed run is, and it keeps one pass's heap from shaping the next
// one's garbage collection and page faults. The pass prints one passRecord
// as a JSON line; the parent aggregates them.
const (
	engineKind = "engine" // the untraced cmd/routed pipeline
	mirrorKind = "mirror" // the traced run, layer by layer
)

// summary is what a pass decided: enough to tell whether two passes — two
// engine passes, or the engine and the traced mirror — ran the same
// program on the same input.
type summary struct {
	Decisions  uint64 // decisionDigest of the decision log
	Outcomes   uint64 // outcomeDigest of the detailed-routing outcomes
	Delivered  int
	RouteStats detroute.Stats
	MaxLoad    float64
	Primal     float64
}

func engineSummary(res *engine.Result) summary {
	return summary{
		Decisions: decisionDigest(res.Decisions), Outcomes: outcomeDigest(res.Outcomes),
		Delivered: res.Throughput, RouteStats: res.RouteStats,
		MaxLoad: res.MaxLoad, Primal: res.PrimalValue,
	}
}

func (m *mirror) summary() summary {
	return summary{
		Decisions: decisionDigest(m.decisions), Outcomes: outcomeDigest(m.outcomes),
		Delivered: m.throughput, RouteStats: m.routeStats,
		MaxLoad: m.maxLoad, Primal: m.primal,
	}
}

// differences lists how got differs from want.
func (got summary) differences(want summary) []string {
	var diff []string
	if got.Decisions != want.Decisions {
		diff = append(diff, fmt.Sprintf("decision-log digest %016x, want %016x", got.Decisions, want.Decisions))
	}
	if got.Outcomes != want.Outcomes {
		diff = append(diff, fmt.Sprintf("routing-outcome digest %016x, want %016x", got.Outcomes, want.Outcomes))
	}
	if got.Delivered != want.Delivered || got.RouteStats != want.RouteStats {
		diff = append(diff, fmt.Sprintf("delivered %d, route stats %+v; want %d, %+v", got.Delivered, got.RouteStats, want.Delivered, want.RouteStats))
	}
	if math.Float64bits(got.MaxLoad) != math.Float64bits(want.MaxLoad) || math.Float64bits(got.Primal) != math.Float64bits(want.Primal) {
		diff = append(diff, fmt.Sprintf("max load %v, primal %v; want %v, %v", got.MaxLoad, got.Primal, want.MaxLoad, want.Primal))
	}
	return diff
}

// passRecord is one pass's measurements, as the pass process reports them.
type passRecord struct {
	GenerateNs  int64 // engine: scenario.Generate
	NewEngineNs int64 // engine: engine.New, WAL creation included
	StreamNs    int64 // first Admit to last return (mirror: the traced stream phase)
	DrainNs     int64 // Drain + Finish + replay (mirror: the traced drain phase)
	Attempted   int
	Failed      int
	QueueFull   int
	AdmitNs     []int64 // engine: producer-side wall time of each Admit
	WaitNs      []int64 // engine, traced runs only: Decision.Wait of each Admit
	RSSMB       float64
	Summary     summary
	Layer       map[string]float64 // mirror: per-layer metrics from the spans
	Failures    []string
	Header      string // engine: human-readable description of the input and outcome
}

// runPass is the "pass" subcommand: one pass of the given kind, printed as
// a JSON line. Correctness failures travel in the record; the exit code is
// nonzero only when the pass could not run.
func runPass(args []string, stdout, stderr io.Writer) int {
	fs, cfg := newFlags()
	fs.SetOutput(stderr)
	kind := fs.String("kind", engineKind, "pass kind: engine or mirror")
	fs.IntVar(&cfg.instance, "instance", 0, "which of the run's inputs to use")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := cfg.resolve(); err != nil {
		fmt.Fprintln(stderr, "perfbench pass:", err)
		return 2
	}
	var rec *passRecord
	var err error
	switch *kind {
	case engineKind:
		rec, err = enginePass(cfg)
	case mirrorKind:
		rec, err = mirrorPass(cfg)
	default:
		err = fmt.Errorf("unknown pass kind %q", *kind)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench pass:", err)
		return 2
	}
	rec.RSSMB = maxRSSMB()
	if err := json.NewEncoder(stdout).Encode(rec); err != nil {
		fmt.Fprintln(stderr, "perfbench pass:", err)
		return 2
	}
	return 0
}

func enginePass(cfg *config) (*passRecord, error) {
	it, err := runPipeline(cfg)
	if err != nil {
		return nil, err
	}
	rec := &passRecord{
		GenerateNs: int64(it.generate), NewEngineNs: int64(it.newEngine),
		StreamNs: int64(it.stream), DrainNs: int64(it.drain),
		Attempted: it.attempted, Failed: it.failed,
		QueueFull: int(it.res.Stats.RejectedQueueFull),
		AdmitNs:   it.admitNs,
		Summary:   engineSummary(it.res),
		Failures:  it.failures,
		Header:    describe(cfg, it),
	}
	if cfg.trace == 1 {
		rec.WaitNs = it.waitNs
	}
	return rec, nil
}

// mirrorPass runs the traced run over the same input, writes its spans and
// derives the per-layer numbers the spans give.
func mirrorPass(cfg *config) (*passRecord, error) {
	inst, err := generate(cfg)
	if err != nil {
		return nil, err
	}
	walPath, cleanup, err := walFile(cfg.w, cfg.workdir)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	m, err := runTraced(cfg.w, inst, walPath)
	if err != nil {
		return nil, err
	}
	rec := &passRecord{
		StreamNs: m.rec.duration(m.stream), DrainNs: m.rec.duration(m.drain),
		Attempted: len(inst.reqs),
		Summary:   m.summary(),
		Layer:     spanMetrics(m),
	}
	if len(m.violations) > 0 {
		rec.Failures = append(rec.Failures, fmt.Sprintf("traced run: replay: %d violations (first: %s)", len(m.violations), m.violations[0]))
	}
	dir := filepath.Join(cfg.workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.w.Name, cfg.seed))
	if err := m.rec.write(path); err != nil {
		return nil, err
	}
	return rec, nil
}

// spanMetrics derives the per-layer numbers of one traced run.
func spanMetrics(m *mirror) map[string]float64 {
	self := m.rec.selfTimes()
	var selfBy [numSpanNames]int64
	var durs [numSpanNames][]int64
	for i, s := range m.rec.spans {
		selfBy[s.name] += self[i]
		durs[s.name] = append(durs[s.name], s.end-s.start)
	}
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }
	pooled := 0
	for _, w := range m.windows {
		if w >= lattice.DefaultMinWindow {
			pooled++
		}
	}
	streamNs, drainNs := m.rec.duration(m.stream), m.rec.duration(m.drain)
	return map[string]float64{
		"spacetime.geometry_s":    secs(selfBy[spGeometry]),
		"sketch.query_s":          secs(selfBy[spQuery]),
		"sketch.query_us_p50":     percentile(durs[spQuery], 50) / 1e3,
		"sketch.query_us_p99":     percentile(durs[spQuery], 99) / 1e3,
		"sketch.queries":          float64(len(durs[spQuery])),
		"sketch.window_tiles_p50": percentile(m.windows, 50),
		"sketch.window_tiles_max": percentile(m.windows, 100),
		"lattice.pool_share":      ratio(pooled, len(m.windows)),

		"ipp.offer_s":      secs(selfBy[spOffer]),
		"ipp.offer_ns_p50": percentile(durs[spOffer], 50),
		"ipp.accept_ratio": ratio(m.accepted, m.offers),
		"ipp.load_ratio":   m.maxLoad / m.loadBound,

		"wal.append_us_p50": percentile(durs[spWALAppend], 50) / 1e3,
		"wal.append_us_p99": percentile(durs[spWALAppend], 99) / 1e3,
		"wal.sync_us_p50":   percentile(durs[spWALSync], 50) / 1e3,
		"wal.sync_us_p99":   percentile(durs[spWALSync], 99) / 1e3,
		"wal.syncs":         float64(len(durs[spWALSync])),
		"wal.bytes":         float64(m.walBytes),

		"detroute.run_s":           secs(selfBy[spDetroute]),
		"detroute.ns_per_admitted": float64(selfBy[spDetroute]) / math.Max(1, float64(m.routeStats.Injected)),
		"detroute.delivered_ratio": ratio(m.routeStats.Delivered, m.routeStats.Injected),
		"spacetime.schedule_s":     secs(selfBy[spSchedule]),
		"netsim.verify_s":          secs(selfBy[spVerify] + selfBy[spAdd]),
		"netsim.add_us_p50":        percentile(durs[spAdd], 50) / 1e3,

		"trace.stream_s":                secs(streamNs),
		"trace.drain_s":                 secs(drainNs),
		"trace.stream_unexplained_frac": float64(selfBy[spStream]+selfBy[spAdmit]) / float64(streamNs),
		"trace.drain_unexplained_frac":  float64(selfBy[spDrain]) / float64(drainNs),
	}
}

// engineMetrics derives the per-layer numbers the untraced engine pass of a
// traced run gives, and the tracing overhead against the mirror.
func engineMetrics(e, m *passRecord) map[string]float64 {
	handoff := make([]int64, len(e.AdmitNs))
	for i := range handoff {
		handoff[i] = e.AdmitNs[i] - e.WaitNs[i]
	}
	return map[string]float64{
		"scenario.generate_s":   float64(e.GenerateNs) / 1e9,
		"engine.new_s":          float64(e.NewEngineNs) / 1e9,
		"engine.wait_us_p50":    percentile(e.WaitNs, 50) / 1e3,
		"engine.wait_us_p99":    percentile(e.WaitNs, 99) / 1e3,
		"engine.handoff_us_p50": percentile(handoff, 50) / 1e3,
		"engine.queue_full":     float64(e.QueueFull),
		"trace.overhead_frac":   float64(m.StreamNs)/float64(e.StreamNs) - 1,
	}
}

// describe is the pass's human-readable description of its input and
// outcome.
func describe(cfg *config, it *iteration) string {
	res := it.res
	s := res.Stats
	return fmt.Sprintf("input %d: %s %v, grid %v B=%d c=%d, horizon %d, pmax %d, k %d: "+
		"accepted %d, rejected-cost %d, rejected-no-route %d, delivered %d, max load %.4g / bound %.4g; "+
		"decision-log digest %016x, outcome digest %016x",
		cfg.instance, cfg.w.Scenario, cfg.w.params(cfg.seed, cfg.instance, cfg.tiny), res.Grid.Dims, res.Grid.B, res.Grid.C,
		res.Horizon, res.PMax, res.K,
		s.Accepted, s.RejectedCost, s.RejectedNoRoute, res.Throughput, res.MaxLoad, res.LoadBound,
		decisionDigest(res.Decisions), outcomeDigest(res.Outcomes))
}
