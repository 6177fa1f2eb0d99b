package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gridroute/internal/core"
	"gridroute/internal/detroute"
	"gridroute/internal/engine"
	"gridroute/internal/grid"
	"gridroute/internal/netsim"
	"gridroute/internal/scenario"
	"gridroute/internal/spacetime"
)

// instance is one generated input: the grid, the request stream in online
// order, and the engine parameters cmd/routed derives from them.
type instance struct {
	g       *grid.Grid
	reqs    []grid.Request
	horizon int64
	pmax    int
}

func generate(cfg *config) (*instance, error) {
	g, reqs, err := scenario.Generate(cfg.w.Scenario, cfg.w.params(cfg.seed, cfg.instance, cfg.tiny))
	if err != nil {
		return nil, err
	}
	return &instance{g: g, reqs: reqs, horizon: spacetime.SuggestHorizon(g, reqs, 3), pmax: core.PMaxDet(g)}, nil
}

// engineOptions are cmd/routed's options at its defaults but for the
// workload's DP width, with the decision log recorded so every run can print
// its digest.
func engineOptions(w workload, inst *instance, walPath string) engine.Options {
	return engine.Options{
		Horizon: inst.horizon, PMax: inst.pmax,
		Queue: engine.DefaultQueue, ExpectPackets: len(inst.reqs),
		InOrder:         true,
		DPWorkers:       w.dpWorkers(),
		RecordDecisions: true,
		WALPath:         walPath,
	}
}

// iteration is one untraced pass of the cmd/routed pipeline over one input:
// set-up, closed-loop streaming, drain with replay verification.
type iteration struct {
	inst      *instance
	generate  time.Duration // scenario.Generate and the derived parameters
	newEngine time.Duration // engine.New, including WAL creation
	stream    time.Duration // first Admit sent to last Admit returned
	drain     time.Duration // Drain + Finish + incremental replay

	admitNs []int64 // producer-side wall time of each Admit, by seq
	waitNs  []int64 // engine-stamped Decision.Wait, by seq

	attempted, failed int // Admit calls; queue-full + shed + errors
	res               *engine.Result
	violations        []string
	onTime            int // on-time deliveries seen by the replay
	failures          []string
}

// walFile returns a fresh WAL path under workdir and a cleanup func, or ""
// when the workload runs without a WAL.
func walFile(w workload, workdir string) (string, func(), error) {
	if !w.WAL {
		return "", func() {}, nil
	}
	dir, err := os.MkdirTemp(workdir, "wal-")
	if err != nil {
		return "", nil, err
	}
	return filepath.Join(dir, "decisions.wal"), func() { os.RemoveAll(dir) }, nil
}

// runPipeline drives one input through the public engine API exactly as
// cmd/routed does: Generate, engine.New, closed-loop Admit from the
// workload's producers (strided seq partition, InOrder), Drain, Finish and
// netsim.Incremental verification. The correctness gate runs on the result.
func runPipeline(cfg *config) (*iteration, error) {
	walPath, cleanup, err := walFile(cfg.w, cfg.workdir)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	ctx := context.Background()
	it := &iteration{}

	t0 := time.Now()
	inst, err := generate(cfg)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	eng, err := engine.New(inst.g, engineOptions(cfg.w, inst, walPath))
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	it.inst, it.generate, it.newEngine = inst, t1.Sub(t0), t2.Sub(t1)

	n := len(inst.reqs)
	it.admitNs = make([]int64, n)
	it.waitNs = make([]int64, n)
	var failed, errs atomic.Int64
	var wg sync.WaitGroup
	producers := cfg.w.producers()
	start := time.Now()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < n; i += producers {
				pkt := engine.PacketOf(&inst.reqs[i])
				t := time.Now()
				d, err := eng.Admit(ctx, pkt)
				it.admitNs[i] = int64(time.Since(t))
				if err != nil {
					errs.Add(1)
					continue
				}
				it.waitNs[i] = int64(d.Wait)
				if d.Verdict == engine.RejectedQueueFull || d.Verdict == engine.Shed {
					failed.Add(1)
				}
			}
		}(p)
	}
	wg.Wait()
	it.stream = time.Since(start)

	t3 := time.Now()
	if err := eng.Drain(ctx); err != nil {
		return nil, err
	}
	res, err := eng.Finish()
	if err != nil {
		return nil, err
	}
	it.violations, it.onTime = replay(inst.g, res.Admitted, res.Schedules, nil, -1)
	it.drain = time.Since(t3)

	it.res = res
	it.attempted = n
	it.failed = int(failed.Load() + errs.Load())
	it.failures = gate(inst, res, it.violations, it.onTime)
	if errs.Load() > 0 {
		it.failures = append(it.failures, fmt.Sprintf("%d Admit calls returned an error", errs.Load()))
	}
	if err := eng.Err(); err != nil {
		it.failures = append(it.failures, "engine degraded: "+err.Error())
	}
	return it, nil
}

// replay re-verifies the delivered schedules packet by packet, in admission
// order, against the real link and buffer capacities — cmd/routed's
// verification. It returns the violations and the on-time deliveries. With
// a recorder, every Incremental.Add gets a span under parent.
func replay(g *grid.Grid, admitted []detroute.Admitted, schedules []*spacetime.Schedule, rec *recorder, parent int32) ([]string, int) {
	minT, maxT, found := int64(math.MaxInt64), int64(0), false
	for _, s := range schedules {
		if s == nil {
			continue
		}
		found = true
		minT = min(minT, s.StartT)
		maxT = max(maxT, s.StartT+int64(len(s.Moves)))
	}
	if !found {
		return nil, 0
	}
	inc := netsim.NewIncremental(g, netsim.Model1, minT, maxT)
	onTime := 0
	for j, s := range schedules {
		if s != nil {
			sp := rec.begin(spAdd, parent, admitted[j].Req.ID)
			o := inc.Add(admitted[j].Req, s)
			rec.end(sp)
			if o.Kind == netsim.Delivered && o.OnTime {
				onTime++
			}
		}
	}
	return inc.Violations(), onTime
}

// gate is the correctness check every run must pass: zero replay
// violations, complete accounting, the Theorem 1 certificates, a replay that
// agrees with the engine's throughput, and no detroute anomalies on lines.
func gate(inst *instance, res *engine.Result, violations []string, onTime int) []string {
	var fail []string
	failf := func(format string, args ...any) { fail = append(fail, fmt.Sprintf(format, args...)) }
	n := uint64(len(inst.reqs))
	s := res.Stats
	if len(violations) > 0 {
		failf("replay: %d violations (first: %s)", len(violations), violations[0])
	}
	if got := s.Accepted + s.RejectedCost + s.RejectedNoRoute + s.RejectedInvalid + s.RejectedQueueFull + s.Shed; got != n || s.Submitted != n {
		failf("accounting: accepted+rejected+shed = %d, submitted = %d, requests = %d", got, s.Submitted, n)
	}
	if len(res.Decisions) != int(s.Decided()+s.Shed) {
		failf("decision log has %d entries, engine decided %d", len(res.Decisions), s.Decided()+s.Shed)
	}
	if !(res.MaxLoad <= res.LoadBound) {
		failf("theorem 1: max load %v exceeds bound %v", res.MaxLoad, res.LoadBound)
	}
	if !(res.PrimalValue <= 2*float64(s.Accepted)+1e-9) {
		failf("theorem 1: primal value %v exceeds 2·accepted = %d", res.PrimalValue, 2*s.Accepted)
	}
	if onTime != res.Throughput {
		failf("replay delivered %d on time, engine reports throughput %d", onTime, res.Throughput)
	}
	if inst.g.D() == 1 && res.RouteStats.Anomalies != 0 {
		failf("detroute: %d anomalies on a line", res.RouteStats.Anomalies)
	}
	return fail
}

// decisionDigest fingerprints a decision log (seq, verdict, cost bits,
// tiles; Wait excluded) so that two commits can be compared run by run.
func decisionDigest(decs []engine.Decision) uint64 {
	h := fnv.New64a()
	var b [8 * 4]byte
	for i := range decs {
		d := &decs[i]
		binary.LittleEndian.PutUint64(b[0:], uint64(d.Seq))
		binary.LittleEndian.PutUint64(b[8:], uint64(d.Verdict))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(d.Cost))
		binary.LittleEndian.PutUint64(b[24:], uint64(d.Tiles))
		h.Write(b[:])
	}
	return h.Sum64()
}

// outcomeDigest fingerprints the detailed-routing outcomes, paths included.
func outcomeDigest(outs []detroute.Outcome) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i := range outs {
		o := &outs[i]
		flags := uint64(o.DroppedIn) << 3
		if o.Delivered {
			flags |= 1
		}
		if o.OnTime {
			flags |= 2
		}
		if o.ReachedLastTile {
			flags |= 4
		}
		put(flags)
		put(uint64(o.DeliveredAt))
		if o.Path == nil {
			put(math.MaxUint64)
			continue
		}
		put(uint64(len(o.Path.Start)))
		for _, c := range o.Path.Start {
			put(uint64(c))
		}
		put(uint64(len(o.Path.Axes)))
		h.Write(o.Path.Axes)
	}
	return h.Sum64()
}
