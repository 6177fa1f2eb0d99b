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

// TestRunOutcomeDigests pins the detailed-routing outcomes of two scenario
// instances, streamed through the engine as cmd/routed does, to fixed
// digests: any change to which packets are delivered, when, where the
// others were dropped, or which path any packet walked changes them. The
// digests were recorded while the router still grouped packets by lattice
// node; grouping by grid node must not move them.
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
			g, reqs, err := scenario.Generate(tc.scenario, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := engine.New(g, engine.Options{
				Horizon: spacetime.SuggestHorizon(g, reqs, 3), PMax: core.PMaxDet(g),
				Queue: 1, ExpectPackets: len(reqs),
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
			if res.RouteStats.Injected == 0 || res.RouteStats.Delivered == 0 {
				t.Fatalf("degenerate instance: %+v", res.RouteStats)
			}
			if got := outcomeDigest(res.Outcomes, res.RouteStats); got != tc.want {
				t.Fatalf("outcome digest %#016x, want %#016x (stats %+v)", got, tc.want, res.RouteStats)
			}
		})
	}
}
