package detroute_test

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"gridroute/internal/core"
	"gridroute/internal/detroute"
	"gridroute/internal/engine"
	"gridroute/internal/scenario"
	"gridroute/internal/spacetime"
)

// outcomeDigest fingerprints detailed-routing outcomes: delivery, delivery
// time, on-time flag, the part a dropped packet was preempted in, whether it
// reached its last tile, and the full lattice path walked.
func outcomeDigest(outs []detroute.Outcome, stats detroute.Stats) uint64 {
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
		put(uint64(len(o.Path.Start)))
		for _, c := range o.Path.Start {
			put(uint64(c))
		}
		put(uint64(len(o.Path.Axes)))
		h.Write(o.Path.Axes)
	}
	put(uint64(stats.Injected))
	put(uint64(stats.Delivered))
	put(uint64(stats.ReachedLastTile))
	for _, n := range stats.DroppedBy {
		put(uint64(n))
	}
	put(uint64(stats.Anomalies))
	return h.Sum64()
}

// TestRunOutcomeDigests pins the detailed-routing outcomes of scenario
// instances, streamed through the engine as cmd/routed does, to fixed
// digests: any change to which packets are delivered, when, where the
// others were dropped, or which path any packet walked changes them. The
// first two cases use hand-picked parameters; the rest cover every
// registered scenario the engine accepts at its default parameters (d = 1,
// 2 and 3, with and without deadlines). The digests were recorded while the
// router still recomputed each packet's tile from its lattice point on
// every step; tracking the tile incrementally must not move them.
func TestRunOutcomeDigests(t *testing.T) {
	cases := []struct {
		scenario string
		params   map[string]float64
		want     uint64
	}{
		{"uniform", map[string]float64{"n": 256, "d": 1, "reqs": 800, "maxt": 256, "seed": 7}, 0xb6a548728dce68b2},
		{"transpose", map[string]float64{"n": 8, "waves": 24, "every": 4}, 0x05e34c34b915e449},
	}
	for _, tc := range cases {
		t.Run(tc.scenario, func(t *testing.T) {
			got, ok := routeDigest(t, tc.scenario, tc.params)
			if !ok {
				t.Fatal("engine rejected the instance")
			}
			if got != tc.want {
				t.Fatalf("outcome digest %#016x, want %#016x", got, tc.want)
			}
		})
	}
	// Default-parameter digests, one per registered scenario the engine
	// accepts; the engine rejects the others' grids (B or c below 3). A
	// newly registered scenario fails until its digest is pinned here.
	defaults := map[string]uint64{
		"bit-reversal":        0x36bf9c514518f95d,
		"convoy-rate":         0x388f8b6fe76a5145,
		"crossbar":            0x9f092d0bd3469614,
		"heavy-pareto":        0x113c9517fabce671,
		"hotspot":             0x8e07e46cf88c7188,
		"lattice3d-hotspot":   0xb0a8e505895b7fc8,
		"lattice3d-uniform":   0x5cae21395a120e73,
		"markov-onoff":        0x726134a81bdfa787,
		"permutation":         0x6b287bee93214863,
		"saturating":          0x5146c20d764decda,
		"saturating-deadline": 0x05503627cc7e1f30,
		"transpose":           0xcdf021e0024250eb,
		"uniform":             0xde0df470db169991,
		"uniform-deadline":    0xcd859fbe28b5e73a,
		"zipf-hotspot":        0x8f2ff0f32327b84d,
	}
	for _, id := range scenario.IDs() {
		t.Run(id+"-default", func(t *testing.T) {
			got, ok := routeDigest(t, id, nil)
			want, pinned := defaults[id]
			switch {
			case ok != pinned:
				t.Fatalf("engine accepts=%v but digest pinned=%v (digest %#016x)", ok, pinned, got)
			case ok && got != want:
				t.Fatalf("outcome digest %#016x, want %#016x", got, want)
			}
		})
	}
}

// routeDigest streams a scenario instance through the engine, runs
// detailed routing and returns the outcome digest. ok is false when the
// engine rejects the instance's grid.
func routeDigest(t *testing.T, id string, params map[string]float64) (digest uint64, ok bool) {
	t.Helper()
	g, reqs, err := scenario.Generate(id, params)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(g, engine.Options{
		Horizon: spacetime.SuggestHorizon(g, reqs, 3), PMax: core.PMaxDet(g),
		Queue: 1, ExpectPackets: len(reqs),
	})
	if err != nil {
		return 0, false
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
	if res.RouteStats.Injected == 0 || res.RouteStats.Delivered == 0 {
		t.Fatalf("degenerate instance: %+v", res.RouteStats)
	}
	return outcomeDigest(res.Outcomes, res.RouteStats), true
}
