package lattice

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// pushReference computes a window with a push sweep: the closure Run for
// unbounded runs, and for bounded ones the flat push kernel runFlatGeneric
// below, which gates relaxation on the same bound but shares no code with the
// pull kernels.
func pushReference(b *Box, winLo, winHi, src []int, edgeX, nodeX []float64, bound float64) *DP {
	ref := b.NewDP()
	if bound == Inf {
		d := b.D()
		ref.Run(winLo, winHi, src,
			func(id, a int) float64 { return edgeX[id*d+a] },
			func(id int) float64 { return nodeX[id] })
		return ref
	}
	srcW, ok := ref.setupWindow(winLo, winHi, src)
	if !ok {
		return ref
	}
	ref.resetState()
	ref.cost[srcW] = nodeX[b.Index(src)]
	ref.runFlatGeneric(edgeX, nodeX, bound)
	return ref
}

// runFlatGeneric is a serial push sweep over the window (the original RunFlat
// kernel, with the relaxation cutoff generalized from Inf to bound). It
// expects resetState and the source seed to have run; pushReference uses it
// as the bounded oracle.
func (dp *DP) runFlatGeneric(edgeX, nodeX []float64, bound float64) {
	d := dp.box.D()
	pt := dp.pt
	copy(pt, dp.winLo)
	boxID := dp.winBoxBase
	for w := 0; w < dp.wsize; w++ {
		c := dp.cost[w]
		if c < bound {
			base := boxID * d
			for a := 0; a < d; a++ {
				if pt[a]+1 >= dp.winHi[a] {
					continue
				}
				nb := boxID + dp.box.stride[a]
				nw := w + dp.wstr[a]
				ec := c + edgeX[base+a]
				if nodeX != nil {
					ec += nodeX[nb]
				}
				if ec < dp.cost[nw] {
					dp.cost[nw] = ec
					dp.pred[nw] = int8(a)
				}
			}
		}
		for a := d - 1; a >= 0; a-- {
			pt[a]++
			boxID += dp.box.stride[a]
			if pt[a] < dp.winHi[a] {
				break
			}
			boxID -= dp.wdims[a] * dp.box.stride[a]
			pt[a] = dp.winLo[a]
		}
	}
}

// checkNodeRun runs the node-weighted flat kernels — serial, and banded on
// pools of 2 and 3 workers — and requires each to match the push reference
// bit for bit. Every run but the first starts from buffers poisoned with
// (NaN, 9), so a cell a kernel forgets to write fails the comparison.
func checkNodeRun(t *testing.T, tag string, b *Box, winLo, winHi, src []int, edgeX, nodeX []float64, bound float64, pools []*Pool) {
	t.Helper()
	ref := pushReference(b, winLo, winHi, src, edgeX, nodeX, bound)
	dp := b.NewDP()
	dp.RunFlatBounded(winLo, winHi, src, edgeX, nodeX, bound)
	requireIdentical(t, tag+"/serial", ref, dp)
	poison := func() {
		for w := range dp.cost {
			dp.cost[w], dp.pred[w] = math.NaN(), 9
		}
	}
	if bound == Inf {
		poison()
		dp.RunFlat(winLo, winHi, src, edgeX, nodeX)
		requireIdentical(t, tag+"/RunFlat", ref, dp)
	}
	for _, p := range pools {
		dp.SetPool(p)
		poison()
		dp.RunFlatBounded(winLo, winHi, src, edgeX, nodeX, bound)
		requireIdentical(t, fmt.Sprintf("%s/pool%d", tag, p.Workers()), ref, dp)
	}
}

// testPools returns pools that take the banded path on any window.
func testPools(t *testing.T) []*Pool {
	var pools []*Pool
	for _, w := range []int{2, 3} {
		p := NewPool(w)
		p.MinWindow = 1
		t.Cleanup(p.Close)
		pools = append(pools, p)
	}
	return pools
}

// quantizedWeights fills a box's edge and node weights from vals, so most
// candidate costs tie.
func quantizedWeights(rng *rand.Rand, b *Box, vals []float64) (edgeX, nodeX []float64) {
	edgeX = make([]float64, b.Size()*b.D())
	nodeX = make([]float64, b.Size())
	for i := range edgeX {
		edgeX[i] = vals[rng.Intn(len(vals))]
	}
	for i := range nodeX {
		nodeX[i] = vals[rng.Intn(len(vals))]
	}
	return edgeX, nodeX
}

// TestRunFlatNodeMatchesRun is the differential test of the node-weighted
// pull kernels — pullChunk2 on 2-axis windows and pullChunk3 on 3-axis ones,
// serial and on pool bands — against the push sweep, on the shapes where a
// pull kernel can go wrong: ties, +Inf edges, sources off the window origin,
// wide rows, and a bounded run's dead-row cutoff on either row of a pair.
// The 3-axis subtests add windows one cell wide along each axis and pool
// chunks that end inside a (j, k) row.
func TestRunFlatNodeMatchesRun(t *testing.T) {
	pools := testPools(t)
	rng := rand.New(rand.NewSource(5))

	t.Run("ties", func(t *testing.T) {
		for trial := 0; trial < 40; trial++ {
			b := NewBox([]int{-3, 2}, []int{rng.Intn(12), 5 + rng.Intn(90)})
			edgeX, nodeX := quantizedWeights(rng, b, []float64{0, 0.25, 0.5})
			winLo, winHi, src := randomWindow(rng, b)
			for _, bound := range []float64{Inf, 0.5, 1.25} {
				checkNodeRun(t, fmt.Sprintf("trial %d bound %v", trial, bound), b, winLo, winHi, src, edgeX, nodeX, bound, pools)
			}
		}
	})

	t.Run("inf-edges", func(t *testing.T) {
		// An outage mask prices every blocked resource at +Inf: axis edges,
		// and in Downscaled mode the interior edges that nodeX carries.
		for trial := 0; trial < 40; trial++ {
			b := NewBox([]int{0, 0}, []int{4 + rng.Intn(10), 4 + rng.Intn(80)})
			edgeX, nodeX := quantizedWeights(rng, b, []float64{0, 0.25, 0.5})
			for i := range edgeX {
				if rng.Intn(5) == 0 {
					edgeX[i] = Inf
				}
			}
			for i := range nodeX {
				if rng.Intn(12) == 0 {
					nodeX[i] = Inf
				}
			}
			winLo, winHi, src := randomWindow(rng, b)
			for _, bound := range []float64{Inf, 1} {
				checkNodeRun(t, fmt.Sprintf("trial %d bound %v", trial, bound), b, winLo, winHi, src, edgeX, nodeX, bound, pools)
			}
		}
	})

	t.Run("middle-source", func(t *testing.T) {
		// Rows below the source go two per pass; 4 and 5 rows below cover
		// both an even count and an odd last row.
		b := NewBox([]int{-2, 1}, []int{12, 40})
		edgeX, nodeX := quantizedWeights(rng, b, []float64{0.1, 0.2, 0.7, 0.3})
		for _, below := range []int{4, 5} {
			for _, srcCol := range []int{0, 1, 19, 38} {
				src := []int{b.Lo[0] + 3, b.Lo[1] + srcCol}
				winHi := []int{src[0] + below + 1, b.Hi[1]}
				checkNodeRun(t, fmt.Sprintf("below %d col %d", below, srcCol), b, b.Lo, winHi, src, edgeX, nodeX, Inf, pools)
			}
		}
	})

	t.Run("wide", func(t *testing.T) {
		// Windows far wider than 64 columns, at the box edge and inset.
		b := NewBox([]int{0, 0}, []int{40, 300})
		edgeX, nodeX := quantizedWeights(rng, b, []float64{0, 0.25, 0.5, 0.125})
		for _, w := range [][4]int{{0, 0, 40, 300}, {2, 5, 38, 290}, {7, 100, 19, 230}} {
			winLo, winHi := []int{w[0], w[1]}, []int{w[2], w[3]}
			src := []int{w[0], w[1]}
			checkNodeRun(t, fmt.Sprintf("window %v", w), b, winLo, winHi, src, edgeX, nodeX, Inf, pools)
			checkNodeRun(t, fmt.Sprintf("window %v bound 3", w), b, winLo, winHi, src, edgeX, nodeX, 3, pools)
		}
	})

	t.Run("dead-row-cutoff", func(t *testing.T) {
		// A bound-sized node weight on every cell of row deadRow kills it, so
		// the serial cutoff fires there. With the source on row srcRow, the
		// rows below pair up from srcRow+1: deadRow−srcRow odd puts the dead
		// row first in its pair, even puts it second. deadRow == srcRow kills
		// the source row itself.
		const bound = 2.0
		b := NewBox([]int{0, 0}, []int{12, 70})
		for _, srcRow := range []int{0, 2, 3} {
			for deadRow := srcRow; deadRow < srcRow+5; deadRow++ {
				edgeX, nodeX := quantizedWeights(rng, b, []float64{0, 0.01, 0.02})
				for c := 0; c < b.Dim(1); c++ {
					if deadRow > srcRow || c >= 4 {
						nodeX[b.Index([]int{deadRow, c})] = bound
					}
				}
				src := []int{srcRow, 4}
				tag := fmt.Sprintf("src row %d dead row %d", srcRow, deadRow)
				ref := pushReference(b, b.Lo, b.Hi, src, edgeX, nodeX, bound)
				if got := firstDeadRow(ref, srcRow, bound); got != deadRow {
					t.Fatalf("%s: reference's first dead row is %d", tag, got)
				}
				checkNodeRun(t, tag, b, b.Lo, b.Hi, src, edgeX, nodeX, bound, pools)
			}
		}
	})

	testRunFlatNode3(t, rng, pools)
}

// The 3-axis subtests of TestRunFlatNodeMatchesRun: a window row is one
// (x, y) pair, relaxed along w.
func testRunFlatNode3(t *testing.T, rng *rand.Rand, pools []*Pool) {
	bounds := []float64{Inf, 0.5, 1.25}

	t.Run("3axis-ties", func(t *testing.T) {
		for trial := 0; trial < 40; trial++ {
			b := NewBox([]int{-2, 1, -5}, []int{rng.Intn(5), 2 + rng.Intn(5), 5 + rng.Intn(130)})
			edgeX, nodeX := quantizedWeights(rng, b, []float64{0, 0.25, 0.5})
			winLo, winHi, src := randomWindow(rng, b)
			for _, bound := range bounds {
				checkNodeRun(t, fmt.Sprintf("trial %d bound %v", trial, bound), b, winLo, winHi, src, edgeX, nodeX, bound, pools)
			}
		}
	})

	t.Run("3axis-inf-edges", func(t *testing.T) {
		for trial := 0; trial < 40; trial++ {
			b := NewBox([]int{0, 0, 0}, []int{2 + rng.Intn(4), 2 + rng.Intn(4), 4 + rng.Intn(80)})
			edgeX, nodeX := quantizedWeights(rng, b, []float64{0, 0.25, 0.5})
			for i := range edgeX {
				if rng.Intn(5) == 0 {
					edgeX[i] = Inf
				}
			}
			for i := range nodeX {
				if rng.Intn(12) == 0 {
					nodeX[i] = Inf
				}
			}
			winLo, winHi, src := randomWindow(rng, b)
			for _, bound := range bounds {
				checkNodeRun(t, fmt.Sprintf("trial %d bound %v", trial, bound), b, winLo, winHi, src, edgeX, nodeX, bound, pools)
			}
		}
	})

	t.Run("3axis-source-offset", func(t *testing.T) {
		// The source sits inside the window on every axis, so cells outside
		// its orthant lie both before it in window order and after it. The
		// weights are not binary fractions: a reassociated sum rounds
		// differently.
		b := NewBox([]int{-1, 2, 0}, []int{6, 8, 90})
		edgeX, nodeX := quantizedWeights(rng, b, []float64{0.1, 0.2, 0.7, 0.3})
		winLo, winHi := []int{-1, 2, 3}, []int{6, 8, 87}
		for _, src := range [][]int{{1, 4, 20}, {0, 3, 4}, {2, 2, 70}, {-1, 5, 86}, {5, 7, 3}} {
			for _, bound := range bounds {
				checkNodeRun(t, fmt.Sprintf("src %v bound %v", src, bound), b, winLo, winHi, src, edgeX, nodeX, bound, pools)
			}
		}
	})

	t.Run("3axis-width-1", func(t *testing.T) {
		// One cell wide along x, along y, and along w in turn; the source
		// is off the origin on the other two axes.
		b := NewBox([]int{0, 0, 0}, []int{5, 5, 100})
		edgeX, nodeX := quantizedWeights(rng, b, []float64{0.1, 0.2, 0.7, 0.3})
		for _, c := range []struct{ lo, hi, src []int }{
			{[]int{2, 0, 0}, []int{3, 5, 100}, []int{2, 1, 30}}, // x
			{[]int{0, 3, 0}, []int{5, 4, 100}, []int{1, 3, 30}}, // y
			{[]int{0, 0, 40}, []int{5, 5, 41}, []int{1, 2, 40}}, // w
		} {
			for _, bound := range bounds {
				checkNodeRun(t, fmt.Sprintf("window %v–%v bound %v", c.lo, c.hi, bound), b, c.lo, c.hi, c.src, edgeX, nodeX, bound, pools)
			}
		}
	})

	t.Run("3axis-wide", func(t *testing.T) {
		// Rows far longer than 64 cells: a 2×2 window like a 64² grid's,
		// and wider ones, at the box edge and inset.
		b := NewBox([]int{0, 0, 0}, []int{6, 6, 300})
		edgeX, nodeX := quantizedWeights(rng, b, []float64{0, 0.25, 0.5, 0.125})
		for _, w := range [][6]int{{0, 0, 0, 2, 2, 128}, {0, 0, 0, 6, 6, 300}, {1, 2, 5, 5, 6, 290}} {
			winLo, winHi := []int{w[0], w[1], w[2]}, []int{w[3], w[4], w[5]}
			for _, bound := range []float64{Inf, 3} {
				checkNodeRun(t, fmt.Sprintf("window %v bound %v", w, bound), b, winLo, winHi, winLo, edgeX, nodeX, bound, pools)
			}
		}
	})

	t.Run("3axis-split-rows", func(t *testing.T) {
		// A pool chunk is ⌈cols / (4·bands)⌉ flattened columns; with 70
		// cells per (j, k) row none of these windows' chunks is a whole
		// number of rows, so chunks start and end inside a row.
		b := NewBox([]int{0, 0, 0}, []int{6, 4, 70})
		edgeX, nodeX := quantizedWeights(rng, b, []float64{0.1, 0.2, 0.7, 0.3})
		for _, src := range [][]int{{0, 0, 0}, {1, 1, 9}, {2, 0, 33}} {
			for _, bound := range bounds {
				checkNodeRun(t, fmt.Sprintf("src %v bound %v", src, bound), b, b.Lo, b.Hi, src, edgeX, nodeX, bound, pools)
			}
		}
		for _, p := range pools {
			dp := b.NewDP()
			dp.SetPool(p)
			dp.RunFlat(b.Lo, b.Hi, b.Lo, edgeX, nodeX)
			if dp.par.chunk%b.Dim(2) == 0 {
				t.Fatalf("pool%d: chunk of %d columns holds whole rows", p.Workers(), dp.par.chunk)
			}
		}
	})
}

// firstDeadRow returns the first window row at or below srcRow with no cost
// below bound, or the row count when every row is alive.
func firstDeadRow(dp *DP, srcRow int, bound float64) int {
	rows := dp.wdims[0]
	cols := dp.wsize / rows
	for i := srcRow; i < rows; i++ {
		alive := false
		for _, c := range dp.cost[i*cols : (i+1)*cols] {
			alive = alive || c < bound
		}
		if !alive {
			return i
		}
	}
	return rows
}
