package sketch

import (
	"reflect"
	"testing"

	"gridroute/internal/grid"
	"gridroute/internal/ipp"
)

// TestMaskedRouteNilMaskParity checks LightestRouteMasked against the
// canonical oracle under evolving weights: with no blocked edges, every
// query must return exactly the route and cost LightestRouteInto computes on
// the same packer. The masked session's buffer starts poisoned (negative
// weights) and is reused across queries, so a window row SnapshotWindow
// failed to copy would show up as a diverging route. The same session also
// answers every query through LightestRouteInto, so masked and live solves
// interleave on one session's DP state.
func TestMaskedRouteNilMaskParity(t *testing.T) {
	st, down, _ := lineSetup(32, 3, 3, 200, 4)
	pk := ipp.NewDense(50, down.Cap, down.Universe())
	live := down.NewSession()
	masked := down.NewSession()
	buf := make([]float64, down.Universe())
	for i := range buf {
		buf[i] = -1
	}
	same := func(a, b *Route) bool {
		return reflect.DeepEqual(a.Tiles, b.Tiles) && reflect.DeepEqual(a.Axes, b.Axes) &&
			reflect.DeepEqual(a.Edges, b.Edges) && a.Cost == b.Cost
	}
	var want, got, again Route
	found := 0
	for q := 0; q < 60; q++ {
		r := &grid.Request{
			Src: grid.Vec{q % 8}, Dst: grid.Vec{8 + q%20},
			Arrival: int64(q / 2), Deadline: grid.InfDeadline,
		}
		src := st.SourcePoint(r)
		wLo, wHi := st.DestRay(r)
		liveOK := live.LightestRouteInto(pk, src, r.Dst, wLo, wHi, 50, &want)
		maskedOK := masked.LightestRouteMasked(pk, src, r.Dst, wLo, wHi, 50, nil, buf, &got)
		if liveOK != maskedOK {
			t.Fatalf("q %d: live ok=%v, masked ok=%v", q, liveOK, maskedOK)
		}
		againOK := masked.LightestRouteInto(pk, src, r.Dst, wLo, wHi, 50, &again)
		if liveOK != againOK {
			t.Fatalf("q %d: live ok=%v, live-after-masked ok=%v", q, liveOK, againOK)
		}
		if !liveOK {
			pk.Offer(nil, 0)
			continue
		}
		found++
		if !same(&want, &got) {
			t.Fatalf("q %d: masked route diverges:\n got %+v\nwant %+v", q, got, want)
		}
		if !same(&want, &again) {
			t.Fatalf("q %d: live route after a masked solve diverges:\n got %+v\nwant %+v", q, again, want)
		}
		pk.Offer(want.Edges, want.Cost)
	}
	if found == 0 {
		t.Fatal("no query found a route; parity exercised nothing")
	}
}

// TestSnapshotWindowCopiesOnlyWindow checks the O(window) contract: rows
// inside the prepared window land in the snapshot buffer exactly, and ids
// outside it are never touched (sentinel survives) — including the
// interior-edge tail in Downscaled mode.
func TestSnapshotWindowCopiesOnlyWindow(t *testing.T) {
	st, down, _ := lineSetup(32, 3, 3, 200, 4)
	pk := ipp.NewDense(50, down.Cap, down.Universe())
	sess := down.NewSession()

	// Give every edge a distinctive weight via direct commits.
	from := pk.Weights()
	for i := range from {
		from[i] = float64(i) + 0.5
	}

	r := &grid.Request{Src: grid.Vec{9}, Dst: grid.Vec{20}, Arrival: 4, Deadline: grid.InfDeadline}
	src := st.SourcePoint(r)
	wLo, wHi := st.DestRay(r)
	if !sess.PrepareQuery(src, r.Dst, wLo, wHi, 50) {
		t.Fatal("prepare failed")
	}
	const sentinel = -1.0
	into := make([]float64, down.Universe())
	for i := range into {
		into[i] = sentinel
	}
	sess.SnapshotWindow(from, into)

	lo, hi := sess.Window()
	axes := down.axes
	base := down.Tl.TBox.Size() * axes
	pt := make([]int, axes)
	inWindow := func(tile int) bool {
		down.TileCoords(tile, pt)
		for a := range pt {
			if pt[a] < lo[a] || pt[a] >= hi[a] {
				return false
			}
		}
		return true
	}
	copied, skipped := 0, 0
	for tile := 0; tile < down.Tl.TBox.Size(); tile++ {
		ids := []int{base + tile}
		for a := 0; a < axes; a++ {
			ids = append(ids, tile*axes+a)
		}
		for _, id := range ids {
			if inWindow(tile) {
				if into[id] != from[id] {
					t.Fatalf("window id %d (tile %d): got %v, want %v", id, tile, into[id], from[id])
				}
				copied++
			} else if into[id] != sentinel {
				t.Fatalf("out-of-window id %d (tile %d) was written: %v", id, tile, into[id])
			} else {
				skipped++
			}
		}
	}
	if copied == 0 || skipped == 0 {
		t.Fatalf("degenerate window (copied=%d skipped=%d); contract not exercised", copied, skipped)
	}
}
