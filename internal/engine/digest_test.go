package engine_test

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"gridroute/internal/core"
	"gridroute/internal/engine"
	"gridroute/internal/grid"
	"gridroute/internal/scenario"
	"gridroute/internal/spacetime"
)

// decisionLogDigest fingerprints a decision log: seq, verdict, cost bits and
// route length of every decision, in order. Wait is wall clock and left out.
func decisionLogDigest(decs []engine.Decision) uint64 {
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

// TestEngineDecisionLogDigest pins the engine's decision log on a 1024-node
// line to a digest recorded before the node-weighted pull kernel relaxed two
// rows per pass. With tile side 24 the lightest-route DP windows span about
// 10 tile rows on average and up to ~40, and about a quarter of the packets
// are rejected on cost, so any change to which packets are admitted, at what
// cost bits, or on how many tiles changes it.
func TestEngineDecisionLogDigest(t *testing.T) {
	const want uint64 = 0x824e1adf562bd7e8
	g, reqs, err := scenario.Generate("uniform", map[string]float64{"n": 1024, "d": 1, "reqs": 3000, "seed": 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := runDecisionLogDigest(t, g, reqs); got != want {
		t.Fatalf("decision-log digest %#016x, want %#016x", got, want)
	}
}

// TestEngineGridDecisionLogDigest pins the decision log on a 16×16 grid to a
// digest recorded before the node-weighted 3-axis pull kernel existed. The
// tiled DP windows are 3-axis (x, y, w), and about 28% of the 1024
// transpose packets are rejected on cost.
func TestEngineGridDecisionLogDigest(t *testing.T) {
	const want uint64 = 0xf9b4a34cec837166
	g, reqs, err := scenario.Generate("transpose", map[string]float64{"n": 16, "waves": 32})
	if err != nil {
		t.Fatal(err)
	}
	if got := runDecisionLogDigest(t, g, reqs); got != want {
		t.Fatalf("decision-log digest %#016x, want %#016x", got, want)
	}
}

// runDecisionLogDigest admits reqs one at a time in seq order on a serial
// engine, drains it, and returns the digest of its decision log.
func runDecisionLogDigest(t *testing.T, g *grid.Grid, reqs []grid.Request) uint64 {
	t.Helper()
	eng, err := engine.New(g, engine.Options{
		Horizon: spacetime.SuggestHorizon(g, reqs, 3), PMax: core.PMaxDet(g),
		Queue: 1, ExpectPackets: len(reqs), RecordDecisions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := range reqs {
		pkt := engine.PacketOf(&reqs[i])
		pkt.Seq = i
		if _, err := eng.Admit(ctx, pkt); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != len(reqs) || len(res.Admitted) == 0 {
		t.Fatalf("degenerate run: %d decisions, %d admitted, %d requests", len(res.Decisions), len(res.Admitted), len(reqs))
	}
	rejected := 0
	for i := range res.Decisions {
		if res.Decisions[i].Verdict == engine.RejectedCost {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatalf("no packet rejected on cost: the digest would not pin the accept threshold")
	}
	return decisionLogDigest(res.Decisions)
}
