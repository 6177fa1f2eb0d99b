// Allocation-regression tests: the steady-state hot paths of the packer,
// the lattice DP, and the schedule verifier must not allocate. These gates
// back the BENCH_hotpath.json trajectory — a regression here is a perf bug
// even while all behavioural tests stay green.
package gridroute

import (
	"math/rand"
	"testing"

	"context"

	"gridroute/internal/core"
	"gridroute/internal/engine"
	"gridroute/internal/grid"
	"gridroute/internal/ipp"
	"gridroute/internal/lattice"
	"gridroute/internal/netsim"
	"gridroute/internal/optbound"
	"gridroute/internal/scenario"
	"gridroute/internal/spacetime"
)

func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
}

// TestOfferDenseSteadyStateAllocFree: after warm-up (capacity memo filled),
// dense-mode Packer.Offer must allocate nothing.
func TestOfferDenseSteadyStateAllocFree(t *testing.T) {
	skipIfRace(t)
	caps := []float64{3, 5}
	capFn := func(e ipp.EdgeID) float64 { return caps[int(e)%2] }
	p := ipp.NewDense(1<<20, capFn, 256)
	path := []ipp.EdgeID{0, 1, 2, 3, 4, 5}
	p.Offer(path, p.Cost(path)) // warm the capacity memo
	allocs := testing.AllocsPerRun(100, func() {
		p.Offer(path, 0)
	})
	if allocs != 0 {
		t.Fatalf("steady-state dense Offer allocates %v/run, want 0", allocs)
	}
}

// TestDPRunWarmAllocFree: a warm DP (buffers grown once) must run both the
// closure and the flat relaxation without allocating.
func TestDPRunWarmAllocFree(t *testing.T) {
	skipIfRace(t)
	b := lattice.NewBox([]int{0, 0}, []int{24, 24})
	edgeX := make([]float64, b.Size()*2)
	nodeX := make([]float64, b.Size())
	rng := rand.New(rand.NewSource(41))
	for i := range edgeX {
		edgeX[i] = rng.Float64()
	}
	dp := b.NewDP()
	src := []int{0, 0}
	dp.RunFlat(b.Lo, b.Hi, src, edgeX, nodeX) // warm the window buffers
	allocs := testing.AllocsPerRun(50, func() {
		dp.RunFlat(b.Lo, b.Hi, src, edgeX, nodeX)
	})
	if allocs != 0 {
		t.Fatalf("warm DP.RunFlat allocates %v/run, want 0", allocs)
	}
	edgeW := func(id, a int) float64 { return edgeX[id*2+a] }
	dp.Run(b.Lo, b.Hi, src, edgeW, nil)
	allocs = testing.AllocsPerRun(50, func() {
		dp.Run(b.Lo, b.Hi, src, edgeW, nil)
	})
	if allocs != 0 {
		t.Fatalf("warm DP.Run allocates %v/run, want 0", allocs)
	}
}

// TestReplayWarmAllocFree: a warm (Replayer, Result) pair must verify a
// schedule set without allocating, in both node models.
func TestReplayWarmAllocFree(t *testing.T) {
	skipIfRace(t)
	g := grid.Line(48, 3, 3)
	reqs := scenario.Uniform(g, 96, 64, rand.New(rand.NewSource(42)))
	res, err := core.RunDeterministic(g, reqs, core.DetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var rp netsim.Replayer
	var out netsim.Result
	for _, model := range []netsim.Model{netsim.Model1, netsim.Model2} {
		rp.ReplayInto(g, reqs, res.Schedules, model, &out) // warm buffers
		allocs := testing.AllocsPerRun(20, func() {
			rp.ReplayInto(g, reqs, res.Schedules, model, &out)
		})
		if allocs != 0 {
			t.Fatalf("%v: warm ReplayInto allocates %v/run, want 0", model, allocs)
		}
		if len(out.Violation) != 0 {
			t.Fatalf("%v: deterministic schedules violate constraints: %v", model, out.Violation)
		}
	}
}

// saturateEngine builds a Line(64,3,3) engine with the given options and
// admits one fixed packet until the packer cost-rejects it, returning the
// engine and that packet: every further admit of pkt takes the steady-state
// cost-reject path.
func saturateEngine(t *testing.T, opts engine.Options) (*engine.Engine, engine.Packet) {
	t.Helper()
	g := grid.Line(64, 3, 3)
	opts.Horizon = 256
	opts.PMax = core.PMaxDet(g)
	eng, err := engine.New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pkt := engine.Packet{Src: grid.Vec{4}, Dst: grid.Vec{40}, Deadline: grid.InfDeadline}
	for i := 0; ; i++ {
		dec, err := eng.Admit(ctx, pkt)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Verdict == engine.RejectedCost {
			return eng, pkt
		}
		if i > 1<<20 {
			t.Fatal("packer never saturated")
		}
	}
}

// TestEngineAdmitWarmAllocFree: the streaming admit path — envelope pool,
// bounded queue, consumer loop, sketch session query (one full DP over the
// window), packer offer, reply — must not allocate once warm. The gate pins
// the saturated cost-reject steady state of the default engine; the accept
// path additionally retains the route into chunked arenas, which is
// amortized O(1) per accept but not 0.
func TestEngineAdmitWarmAllocFree(t *testing.T) {
	skipIfRace(t)
	eng, pkt := saturateEngine(t, engine.Options{})
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		dec, err := eng.Admit(ctx, pkt)
		if err != nil || dec.Verdict != engine.RejectedCost {
			t.Fatalf("steady state broken: %+v, %v", dec, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm engine Admit allocates %v/run, want 0", allocs)
	}
	if err := eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestEngineAdmitAlternatingAllocFree: the admit path stays 0-alloc when
// consecutive packets differ. Admits alternate between the saturating packet
// and a second one inside the saturated segment, so every admit relaxes a
// different window than the one before it, on the session's pre-sized
// buffers.
func TestEngineAdmitAlternatingAllocFree(t *testing.T) {
	skipIfRace(t)
	eng, pkt := saturateEngine(t, engine.Options{})
	ctx := context.Background()
	inner := engine.Packet{Src: grid.Vec{6}, Dst: grid.Vec{38}, Deadline: grid.InfDeadline}
	allocs := testing.AllocsPerRun(200, func() {
		for _, p := range [2]engine.Packet{inner, pkt} {
			dec, err := eng.Admit(ctx, p)
			if err != nil || dec.Verdict != engine.RejectedCost {
				t.Fatalf("steady state broken for %v→%v: %+v, %v", p.Src, p.Dst, dec, err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("warm engine Admit of alternating packets allocates %v/run, want 0", allocs)
	}
	if err := eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestEngineAdmitCancelNoLeak: the leak audit for abandoned waits. An Admit
// whose context is already cancelled may abandon the reply; the consumer then
// reclaims the pooled envelope itself. If that handoff leaked, every
// cancelled Admit would allocate a fresh envelope (struct + reply channel) —
// so a warm cancel/admit mix, each admit running the full DP, must stay
// 0-alloc like the plain warm path.
func TestEngineAdmitCancelNoLeak(t *testing.T) {
	skipIfRace(t)
	eng, pkt := saturateEngine(t, engine.Options{})
	ctx := context.Background()
	dead, cancel := context.WithCancel(ctx)
	cancel()
	allocs := testing.AllocsPerRun(200, func() {
		// Abandoned wait: the packet is queued, the wait is not. The consumer
		// decides it and recycles the envelope.
		if _, err := eng.Admit(dead, pkt); err == nil {
			// The reply can still win the race against the cancelled context;
			// both exits recycle exactly one envelope.
			_ = err
		}
		// A live Admit right after must find a pooled envelope again.
		dec, err := eng.Admit(ctx, pkt)
		if err != nil || dec.Verdict != engine.RejectedCost {
			t.Fatalf("steady state broken: %+v, %v", dec, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cancelled Admit path allocates %v/run, want 0 (envelope leak)", allocs)
	}
	if err := eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.Decided() != s.Submitted {
		t.Fatalf("abandoned packets unaccounted: decided %d != submitted %d", s.Decided(), s.Submitted)
	}
}

// TestDPWavefrontWarmAllocFree: the parallel band pipeline reuses its
// progress counters and band table — a warm parallel RunFlat must not
// allocate on the submitting goroutine or in the workers.
func TestDPWavefrontWarmAllocFree(t *testing.T) {
	skipIfRace(t)
	pool := lattice.NewPool(2)
	defer pool.Close()
	pool.MinWindow = 1
	b := lattice.NewBox([]int{0, 0}, []int{24, 24})
	edgeX := make([]float64, b.Size()*2)
	rng := rand.New(rand.NewSource(44))
	for i := range edgeX {
		edgeX[i] = rng.Float64()
	}
	dp := b.NewDP()
	dp.SetPool(pool)
	src := []int{0, 0}
	dp.RunFlat(b.Lo, b.Hi, src, edgeX, nil)
	allocs := testing.AllocsPerRun(50, func() {
		dp.RunFlat(b.Lo, b.Hi, src, edgeX, nil)
	})
	if allocs != 0 {
		t.Fatalf("warm parallel RunFlat allocates %v/run, want 0", allocs)
	}
}

// TestSTPackerLightestPathWarmAllocFree: the Theorem 13 / dual-bound oracle's
// path search (DP + destination-ray scan) allocates only the returned path
// once warm (1 Path struct + 1 coord slice + 1 axes slice, plus the source
// point — materialized per call by design).
func TestSTPackerLightestPathWarmAllocFree(t *testing.T) {
	skipIfRace(t)
	g := grid.Line(32, 3, 3)
	st := spacetime.New(g, 64)
	sp := optbound.NewSTPacker(st, 3, 3, core.PMaxDet(g))
	r := &grid.Request{Src: grid.Vec{2}, Dst: grid.Vec{20}, Arrival: 1, Deadline: grid.InfDeadline}
	if p, _ := sp.LightestPath(r); p == nil {
		t.Fatal("no path on an empty lattice")
	}
	allocs := testing.AllocsPerRun(20, func() {
		sp.LightestPath(r)
	})
	if allocs > 4 {
		t.Fatalf("warm LightestPath allocates %v/run, want ≤ 4 (the returned path)", allocs)
	}
}
