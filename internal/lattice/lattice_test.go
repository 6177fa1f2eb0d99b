package lattice

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBoxIndexRoundTrip(t *testing.T) {
	b := NewBox([]int{-3, 0, 5}, []int{2, 4, 9})
	if b.Size() != 5*4*4 {
		t.Fatalf("size = %d, want %d", b.Size(), 5*4*4)
	}
	pt := make([]int, 3)
	seen := make(map[int]bool)
	for id := 0; id < b.Size(); id++ {
		b.Point(id, pt)
		if !b.Contains(pt) {
			t.Fatalf("point %v of id %d not contained", pt, id)
		}
		if got := b.Index(pt); got != id {
			t.Fatalf("round trip %v: got %d want %d", pt, got, id)
		}
		seen[id] = true
	}
	if len(seen) != b.Size() {
		t.Fatalf("ids not unique")
	}
}

func TestBoxStepBack(t *testing.T) {
	b := NewBox([]int{0, -2}, []int{3, 1})
	pt := make([]int, 2)
	nb := make([]int, 2)
	for id := 0; id < b.Size(); id++ {
		b.Point(id, pt)
		for a := 0; a < 2; a++ {
			n, ok := b.Step(id, a)
			copy(nb, pt)
			nb[a]++
			if ok != b.Contains(nb) {
				t.Fatalf("Step(%v,%d) ok=%v want %v", pt, a, ok, b.Contains(nb))
			}
			if ok && n != b.Index(nb) {
				t.Fatalf("Step(%v,%d) = %d want %d", pt, a, n, b.Index(nb))
			}
			p, ok2 := b.Back(id, a)
			copy(nb, pt)
			nb[a]--
			if ok2 != b.Contains(nb) {
				t.Fatalf("Back(%v,%d) ok=%v want %v", pt, a, ok2, b.Contains(nb))
			}
			if ok2 && p != b.Index(nb) {
				t.Fatalf("Back(%v,%d) = %d want %d", pt, a, p, b.Index(nb))
			}
		}
	}
}

func TestNumEdges(t *testing.T) {
	b := NewBox([]int{0, 0}, []int{3, 4})
	// Horizontal-ish: 3 columns of 4 → axis0 edges: 2*4=8; axis1: 3*3=9.
	if got := b.NumEdges(); got != 17 {
		t.Fatalf("NumEdges = %d, want 17", got)
	}
}

func TestL1(t *testing.T) {
	if L1([]int{1, 2}, []int{3, 5}) != 5 {
		t.Fatal("L1 mismatch")
	}
	if L1([]int{1, 2}, []int{0, 5}) != -1 {
		t.Fatal("unreachable should be -1")
	}
}

func TestPathEndVisit(t *testing.T) {
	p := &Path{Start: []int{1, 1}, Axes: []uint8{0, 1, 1}}
	end := p.End()
	if end[0] != 2 || end[1] != 3 {
		t.Fatalf("End = %v", end)
	}
	var count int
	p.Visit(func(pt []int) { count++ })
	if count != 4 {
		t.Fatalf("Visit count = %d, want 4", count)
	}
}

// bruteLightest computes the lightest path cost by Bellman-Ford-style
// relaxation over the whole box (reference implementation).
func bruteLightest(b *Box, src, dst []int, ew EdgeWeight, nw NodeWeight) float64 {
	cost := make([]float64, b.Size())
	for i := range cost {
		cost[i] = math.Inf(1)
	}
	srcID := b.Index(src)
	if nw != nil {
		cost[srcID] = nw(srcID)
	}
	// Row-major order is topological.
	for id := 0; id < b.Size(); id++ {
		if math.IsInf(cost[id], 1) {
			continue
		}
		for a := 0; a < b.D(); a++ {
			if n, ok := b.Step(id, a); ok {
				c := cost[id] + ew(id, a)
				if nw != nil {
					c += nw(n)
				}
				if c < cost[n] {
					cost[n] = c
				}
			}
		}
	}
	return cost[b.Index(dst)]
}

func TestDPAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		d := 2 + rng.Intn(2)
		lo := make([]int, d)
		hi := make([]int, d)
		for i := range lo {
			lo[i] = rng.Intn(5) - 2
			hi[i] = lo[i] + 2 + rng.Intn(5)
		}
		b := NewBox(lo, hi)
		ew := make([]float64, b.Size()*d)
		for i := range ew {
			ew[i] = rng.Float64()
		}
		nwArr := make([]float64, b.Size())
		for i := range nwArr {
			nwArr[i] = rng.Float64() * 0.3
		}
		edgeW := func(id, a int) float64 { return ew[id*d+a] }
		nodeW := func(id int) float64 { return nwArr[id] }

		src := append([]int(nil), lo...)
		dst := make([]int, d)
		for i := range dst {
			dst[i] = lo[i] + rng.Intn(hi[i]-lo[i])
		}
		dp := b.NewDP()
		dp.Run(lo, hi, src, edgeW, nodeW)
		got := dp.CostAt(dst)
		want := bruteLightest(b, src, dst, edgeW, nodeW)
		if math.Abs(got-want) > 1e-9 && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
			t.Fatalf("trial %d: dp=%v brute=%v (src=%v dst=%v)", trial, got, want, src, dst)
		}
		if !math.IsInf(got, 1) {
			p := dp.PathTo(dst)
			if p == nil {
				t.Fatalf("reachable but no path")
			}
			if L1(src, dst) != p.Len() {
				t.Fatalf("path length %d != L1 %d", p.Len(), L1(src, dst))
			}
			// Recompute cost along the path.
			var c float64
			cur := append([]int(nil), p.Start...)
			c += nodeW(b.Index(cur))
			for _, a := range p.Axes {
				c += edgeW(b.Index(cur), int(a))
				cur[a]++
				c += nodeW(b.Index(cur))
			}
			if math.Abs(c-got) > 1e-9 {
				t.Fatalf("path cost %v != dp cost %v", c, got)
			}
			end := p.End()
			for i := range end {
				if end[i] != dst[i] {
					t.Fatalf("path ends at %v, want %v", end, dst)
				}
			}
		}
	}
}

func TestDPWindowRestricts(t *testing.T) {
	b := NewBox([]int{0, 0}, []int{10, 10})
	dp := b.NewDP()
	unit := func(id, a int) float64 { return 1 }
	dp.Run([]int{0, 0}, []int{5, 5}, []int{0, 0}, unit, nil)
	if dp.CostAt([]int{4, 4}) != 8 {
		t.Fatalf("cost = %v, want 8", dp.CostAt([]int{4, 4}))
	}
	if !math.IsInf(dp.CostAt([]int{5, 5}), 1) {
		t.Fatal("outside window must be Inf")
	}
	if !math.IsInf(dp.CostAt([]int{9, 9}), 1) {
		t.Fatal("outside window must be Inf")
	}
}

func TestDPSourceOutsideWindow(t *testing.T) {
	b := NewBox([]int{0}, []int{4})
	dp := b.NewDP()
	dp.Run([]int{2}, []int{4}, []int{0}, func(id, a int) float64 { return 0 }, nil)
	if !math.IsInf(dp.CostAt([]int{3}), 1) {
		t.Fatal("invalid run should report Inf")
	}

	// A box with more axes than the kernels' stack scratch holds has no DP.
	lo, hi := make([]int, maxParAxes+1), make([]int, maxParAxes+1)
	for i := range hi {
		hi[i] = 1
	}
	wide := NewBox(lo, hi)
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		wide.NewDP()
	}()
	if !strings.Contains(msg, "17-axis box") {
		t.Fatalf("NewDP on a %d-axis box: panic %q, want one naming the axis count", wide.D(), msg)
	}
}

func TestDPReuse(t *testing.T) {
	b := NewBox([]int{0, 0}, []int{6, 6})
	dp := b.NewDP()
	unit := func(id, a int) float64 { return 1 }
	dp.Run([]int{0, 0}, []int{6, 6}, []int{0, 0}, unit, nil)
	first := dp.CostAt([]int{5, 5})
	dp.Run([]int{1, 1}, []int{4, 4}, []int{1, 1}, unit, nil)
	if dp.CostAt([]int{3, 3}) != 4 {
		t.Fatalf("after reuse cost = %v, want 4", dp.CostAt([]int{3, 3}))
	}
	dp.Run([]int{0, 0}, []int{6, 6}, []int{0, 0}, unit, nil)
	if dp.CostAt([]int{5, 5}) != first {
		t.Fatalf("reuse changed result: %v vs %v", dp.CostAt([]int{5, 5}), first)
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{7, 2, 3}, {-7, 2, -4}, {-4, 2, -2}, {0, 5, 0}, {-1, 5, -1}, {4, 5, 0},
	}
	for _, c := range cases {
		if got := FloorDiv(c.a, c.b); got != c.want {
			t.Errorf("FloorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestFloorDivQuick(t *testing.T) {
	f := func(a int16, b uint8) bool {
		bb := int(b)%37 + 1
		q := FloorDiv(int(a), bb)
		r := int(a) - q*bb
		return r >= 0 && r < bb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: DP path hop count always equals L1 distance (box-DAG fact used by
// the pmax reduction).
func TestHopsEqualL1Quick(t *testing.T) {
	b := NewBox([]int{0, 0, 0}, []int{4, 4, 4})
	dp := b.NewDP()
	rng := rand.New(rand.NewSource(3))
	ew := func(id, a int) float64 { return rng.Float64() }
	f := func(sx, sy, sz, dx, dy, dz uint8) bool {
		s := []int{int(sx % 4), int(sy % 4), int(sz % 4)}
		d := []int{int(dx % 4), int(dy % 4), int(dz % 4)}
		for i := range d {
			if d[i] < s[i] {
				s[i], d[i] = d[i], s[i]
			}
		}
		dp.Run(b.Lo, b.Hi, s, ew, nil)
		p := dp.PathTo(d)
		return p != nil && p.Len() == L1(s, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRunFlatMatchesRun checks that the flat-slice DP produces exactly the
// same costs and predecessors as the closure-based DP for random weight
// assignments, with and without node weights.
func TestRunFlatMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		d := 2 + rng.Intn(2)
		lo := make([]int, d)
		hi := make([]int, d)
		for i := range lo {
			lo[i] = rng.Intn(3) - 1
			hi[i] = lo[i] + 2 + rng.Intn(4)
		}
		b := NewBox(lo, hi)
		edgeX := make([]float64, b.Size()*d)
		nodeX := make([]float64, b.Size())
		for i := range edgeX {
			edgeX[i] = rng.Float64()
		}
		for i := range nodeX {
			nodeX[i] = rng.Float64()
		}
		var useNode []float64
		if trial%2 == 0 {
			useNode = nodeX
		}
		var nodeW NodeWeight
		if useNode != nil {
			nodeW = func(id int) float64 { return nodeX[id] }
		}

		src := make([]int, d)
		for i := range src {
			src[i] = lo[i] + rng.Intn(hi[i]-lo[i])
		}
		dpA := b.NewDP()
		dpB := b.NewDP()
		dpA.Run(lo, hi, src, func(id, a int) float64 { return edgeX[id*d+a] }, nodeW)
		dpB.RunFlat(lo, hi, src, edgeX, useNode)

		probe := make([]int, d)
		for id := 0; id < b.Size(); id++ {
			b.Point(id, probe)
			ca, cb := dpA.CostAt(probe), dpB.CostAt(probe)
			if ca != cb {
				t.Fatalf("trial %d point %v: Run cost %v != RunFlat cost %v", trial, probe, ca, cb)
			}
			if ca == Inf {
				continue
			}
			pa, pb := dpA.PathTo(probe), dpB.PathTo(probe)
			if len(pa.Axes) != len(pb.Axes) {
				t.Fatalf("trial %d point %v: path lengths differ", trial, probe)
			}
			for j := range pa.Axes {
				if pa.Axes[j] != pb.Axes[j] {
					t.Fatalf("trial %d point %v: paths diverge at step %d", trial, probe, j)
				}
			}
		}
	}
}

// TestMinCostRayMatchesCostAtScan checks MinCostRay against the ascending
// CostAt scan it replaces: the same least cost bit for bit, and the same
// coordinate, the lowest one on ties (and lo when every point is Inf). Rays
// run along every axis of 2- and 3-axis windows, with quantized weights so
// that minima tie, and with ends clipped by the window or entirely outside
// it.
func TestMinCostRayMatchesCostAtScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ties, clipped := 0, 0 // finite-minimum rays with a tie, with a clipped end
	for trial := 0; trial < 60; trial++ {
		d := 2 + trial%2
		lo, hi := make([]int, d), make([]int, d)
		for i := range lo {
			lo[i] = rng.Intn(5) - 2
			hi[i] = lo[i] + 1 + rng.Intn(12)
		}
		b := NewBox(lo, hi)
		edgeX := make([]float64, b.Size()*d)
		nodeX := make([]float64, b.Size())
		for _, xs := range [][]float64{edgeX, nodeX} {
			for i := range xs {
				xs[i] = []float64{0, 0.25, 0.5}[rng.Intn(3)]
			}
		}
		winLo, winHi, src := randomWindow(rng, b)
		dp := b.NewDP()
		dp.RunFlat(winLo, winHi, src, edgeX, nodeX)
		p := make([]int, d)
		for probe := 0; probe < 40; probe++ {
			for i := range p {
				p[i] = lo[i] - 1 + rng.Intn(hi[i]-lo[i]+2)
			}
			axis := rng.Intn(d)
			rlo := lo[axis] - 2 + rng.Intn(hi[axis]-lo[axis]+3)
			rhi := rlo - 1 + rng.Intn(hi[axis]-lo[axis]+3)
			want, wantAt, tied := Inf, rlo, false
			q := append([]int(nil), p...)
			for x := rlo; x <= rhi; x++ {
				q[axis] = x
				c := dp.CostAt(q)
				tied = tied || c == want
				if c < want {
					want, wantAt, tied = c, x, false
				}
			}
			if want < Inf {
				if tied {
					ties++
				}
				if rlo < winLo[axis] || rhi >= winHi[axis] {
					clipped++
				}
			}
			got, gotAt := dp.MinCostRay(p, axis, rlo, rhi)
			if math.Float64bits(got) != math.Float64bits(want) || gotAt != wantAt {
				t.Fatalf("trial %d: window %v–%v, ray %v axis %d [%d, %d]: MinCostRay (%v, %d), CostAt scan (%v, %d)",
					trial, winLo, winHi, p, axis, rlo, rhi, got, gotAt, want, wantAt)
			}
		}
	}
	if ties == 0 || clipped == 0 {
		t.Fatalf("degenerate rays: %d tied and %d clipped finite minima", ties, clipped)
	}
}
