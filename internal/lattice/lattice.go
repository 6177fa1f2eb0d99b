// Package lattice implements bounded axis-aligned integer boxes with directed
// unit-step edges along each axis ("box DAGs").
//
// Both the untilted space-time graph of a uni-directional grid (Sec. 3.1–3.2
// of Even–Medina) and every sketch graph over its tiles (Sec. 3.4) are box
// DAGs: after the untilting automorphism q(x, t) = (x, t − Σx), all edges
// advance exactly one coordinate by +1. Two structural facts are exploited
// throughout the repository:
//
//  1. every directed path between two points u ≤ v has exactly ‖v−u‖₁ edges,
//     so the bounded-path-length constraint of Theorem 1 reduces to bounding
//     the destination window; and
//  2. any traversal of points in non-decreasing coordinate order is a
//     topological order; ordering by t = w + Σx makes the traversal coincide
//     with simulation time.
package lattice

import (
	"fmt"
	"math"
)

// Box is the set of integer points p with Lo[i] ≤ p[i] < Hi[i] for every
// axis i, together with the directed edges p → p+e_i for points where the
// head is still inside the box.
type Box struct {
	Lo, Hi []int

	dims   []int
	stride []int
	size   int
}

// NewBox constructs a box. Panics if hi[i] ≤ lo[i] for some axis: boxes are
// configuration and must be non-empty.
func NewBox(lo, hi []int) *Box {
	if len(lo) != len(hi) || len(lo) == 0 {
		panic("lattice: lo/hi dimension mismatch")
	}
	b := &Box{
		Lo:     append([]int(nil), lo...),
		Hi:     append([]int(nil), hi...),
		dims:   make([]int, len(lo)),
		stride: make([]int, len(lo)),
	}
	b.size = 1
	for i := len(lo) - 1; i >= 0; i-- {
		if hi[i] <= lo[i] {
			panic(fmt.Sprintf("lattice: empty axis %d: [%d,%d)", i, lo[i], hi[i]))
		}
		b.dims[i] = hi[i] - lo[i]
		b.stride[i] = b.size
		b.size *= b.dims[i]
	}
	return b
}

// D returns the number of axes.
func (b *Box) D() int { return len(b.Lo) }

// Size returns the number of points in the box.
func (b *Box) Size() int { return b.size }

// Dim returns the extent of axis i.
func (b *Box) Dim(i int) int { return b.dims[i] }

// Stride returns the id increment of a +1 step along axis i: for p inside the
// box with p+e_i inside too, Index(p+e_i) = Index(p) + Stride(i). It lets a
// caller walk a path's node ids incrementally instead of re-indexing each
// point.
func (b *Box) Stride(i int) int { return b.stride[i] }

// Contains reports whether p lies inside the box.
func (b *Box) Contains(p []int) bool {
	if len(p) != len(b.Lo) {
		return false
	}
	for i, x := range p {
		if x < b.Lo[i] || x >= b.Hi[i] {
			return false
		}
	}
	return true
}

// Index maps a point to a dense id in [0, Size). Panics when out of range.
func (b *Box) Index(p []int) int {
	id := 0
	for i, x := range p {
		if x < b.Lo[i] || x >= b.Hi[i] {
			panic(fmt.Sprintf("lattice: point %v outside box [%v,%v)", p, b.Lo, b.Hi))
		}
		id += (x - b.Lo[i]) * b.stride[i]
	}
	return id
}

// Point maps a dense id back to coordinates, writing into out when non-nil.
func (b *Box) Point(id int, out []int) []int {
	if out == nil {
		out = make([]int, len(b.Lo))
	}
	for i := range b.Lo {
		out[i] = b.Lo[i] + id/b.stride[i]
		id %= b.stride[i]
	}
	return out
}

// Step returns the id of the neighbor of node id along +axis, and whether it
// exists (the head may fall outside the box).
func (b *Box) Step(id, axis int) (int, bool) {
	// Coordinate along axis is (id / stride[axis]) % dims[axis].
	c := (id / b.stride[axis]) % b.dims[axis]
	if c+1 >= b.dims[axis] {
		return 0, false
	}
	return id + b.stride[axis], true
}

// Back returns the id of the neighbor of node id along −axis, and whether it
// exists.
func (b *Box) Back(id, axis int) (int, bool) {
	c := (id / b.stride[axis]) % b.dims[axis]
	if c == 0 {
		return 0, false
	}
	return id - b.stride[axis], true
}

// NumEdges returns the number of directed edges in the box.
func (b *Box) NumEdges() int {
	total := 0
	for _, d := range b.dims {
		total += (b.size / d) * (d - 1)
	}
	return total
}

// L1 returns ‖v−u‖₁ for u ≤ v, which is the (unique) number of edges on any
// directed path from u to v. It returns -1 if v is not reachable from u.
func L1(u, v []int) int {
	s := 0
	for i := range u {
		if v[i] < u[i] {
			return -1
		}
		s += v[i] - u[i]
	}
	return s
}

// Path is a directed lattice path: a start point followed by unit steps, each
// advancing one axis.
type Path struct {
	Start []int
	Axes  []uint8
}

// Len returns the number of edges.
func (p *Path) Len() int { return len(p.Axes) }

// End returns the final point of the path.
func (p *Path) End() []int {
	q := append([]int(nil), p.Start...)
	for _, a := range p.Axes {
		q[a]++
	}
	return q
}

// Visit calls fn for every point of the path in order, including endpoints.
// fn receives a reused buffer; it must not retain it.
func (p *Path) Visit(fn func(pt []int)) {
	q := append([]int(nil), p.Start...)
	fn(q)
	for _, a := range p.Axes {
		q[a]++
		fn(q)
	}
}

// EdgeWeight gives the weight of the edge leaving node id along axis.
type EdgeWeight func(id, axis int) float64

// NodeWeight gives the weight charged for visiting node id (used to fold the
// interior edges of split sketch nodes into the DP; see Sec. 5.1).
type NodeWeight func(id int) float64

// Inf is the cost of an unreachable node.
var Inf = math.Inf(1)

// DP computes lightest directed paths inside a window of a box. A DP value is
// reusable across calls to Run, RunFlat and RunFlatBounded; it grows its
// buffers as needed.
//
// Path cost convention: cost(path) = Σ_nodes nodeW(v) + Σ_edges edgeW(e),
// where the sum over nodes includes both endpoints. This matches the
// {1,2,∞}-sketch-graph cost of a path s¹_in → s¹_out → … → sᴸ_out, which
// traverses the interior edge of every visited tile.
type DP struct {
	box    *Box
	winLo  []int
	winHi  []int
	wdims  []int
	wstr   []int
	wsize  int
	cost   []float64
	pred   []int8
	srcAbs []int
	pt     []int // odometer scratch
	valid  bool

	srcW       int // window index of the source (meaningful when valid)
	winBoxBase int // box.Index(winLo): box id of the window origin

	pool *Pool    // optional wavefront worker pool (nil = always serial)
	par  parState // per-run parallel bookkeeping (reused)
}

// NewDP returns a DP bound to box. Boxes of more than maxParAxes (16) axes
// are rejected: the flat kernels keep per-axis offsets in fixed-size arrays.
func (b *Box) NewDP() *DP {
	d := len(b.Lo)
	if d > maxParAxes {
		panic(fmt.Sprintf("lattice: NewDP on a %d-axis box; at most %d axes are supported", d, maxParAxes))
	}
	return &DP{
		box:   b,
		winLo: make([]int, d), winHi: make([]int, d),
		wdims: make([]int, d), wstr: make([]int, d),
		srcAbs: make([]int, d), pt: make([]int, d),
	}
}

//gridroute:hotpath
func (dp *DP) winIndex(p []int) int {
	id := 0
	for i, x := range p {
		id += (x - dp.winLo[i]) * dp.wstr[i]
	}
	return id
}

//gridroute:hotpath
func (dp *DP) inWindow(p []int) bool {
	for i, x := range p {
		if x < dp.winLo[i] || x >= dp.winHi[i] {
			return false
		}
	}
	return true
}

// setupWindow clips the window to the box and sizes the cost/pred buffers.
// It returns the window index of src, or ok=false when the window is empty
// or src lies outside it. Buffers are reused across calls, so a warm DP
// allocates nothing. The buffers are NOT reset here: the pull kernels (serial
// and parallel) write every node themselves; only the closure-based Run calls
// resetState.
//
//gridroute:hotpath
func (dp *DP) setupWindow(winLo, winHi, src []int) (srcW int, ok bool) {
	d := dp.box.D()
	dp.wsize = 1
	for i := 0; i < d; i++ {
		lo := winLo[i]
		if lo < dp.box.Lo[i] {
			lo = dp.box.Lo[i]
		}
		hi := winHi[i]
		if hi > dp.box.Hi[i] {
			hi = dp.box.Hi[i]
		}
		if hi <= lo {
			dp.valid = false
			return 0, false
		}
		dp.winLo[i], dp.winHi[i] = lo, hi
		dp.wdims[i] = hi - lo
	}
	for i := d - 1; i >= 0; i-- {
		dp.wstr[i] = dp.wsize
		dp.wsize *= dp.wdims[i]
	}
	if cap(dp.cost) < dp.wsize {
		dp.cost = make([]float64, dp.wsize)
		dp.pred = make([]int8, dp.wsize)
	}
	dp.cost = dp.cost[:dp.wsize]
	dp.pred = dp.pred[:dp.wsize]
	if !dp.inWindow(src) {
		dp.valid = false
		return 0, false
	}
	copy(dp.srcAbs, src)
	dp.winBoxBase = dp.box.Index(dp.winLo)
	dp.valid = true
	dp.srcW = dp.winIndex(src)
	return dp.srcW, true
}

// resetState fills the window with the pre-relaxation state: every node
// unreachable with no predecessor.
//
//gridroute:hotpath
func (dp *DP) resetState() {
	for i := range dp.cost {
		dp.cost[i] = Inf
		dp.pred[i] = -1
	}
}

// Run computes lightest paths from src to every point of the window
// [winLo, winHi) ∩ box. src must lie in the window. Edge and node weights are
// consulted via box node ids. After Run, use CostAt and PathTo.
//
//gridroute:hotpath
func (dp *DP) Run(winLo, winHi, src []int, edgeW EdgeWeight, nodeW NodeWeight) {
	srcW, ok := dp.setupWindow(winLo, winHi, src)
	if !ok {
		return
	}
	dp.resetState()
	if nodeW != nil {
		dp.cost[srcW] = nodeW(dp.box.Index(src))
	} else {
		dp.cost[srcW] = 0
	}

	// Iterate window points in row-major (non-decreasing coordinate) order,
	// which is a topological order of the DAG. Maintain the absolute point
	// and the box id incrementally via an odometer.
	d := dp.box.D()
	pt := dp.pt
	copy(pt, dp.winLo)
	boxID := dp.box.Index(pt)
	for w := 0; w < dp.wsize; w++ {
		c := dp.cost[w]
		if c < Inf {
			// Relax outgoing edges.
			for a := 0; a < d; a++ {
				if pt[a]+1 >= dp.winHi[a] {
					continue
				}
				nb := boxID + dp.box.stride[a]
				nw := w + dp.wstr[a]
				ec := c + edgeW(boxID, a)
				if nodeW != nil {
					ec += nodeW(nb)
				}
				if ec < dp.cost[nw] {
					dp.cost[nw] = ec
					dp.pred[nw] = int8(a)
				}
			}
		}
		// Odometer increment (row-major: last axis fastest).
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

// RunFlat computes the same lightest paths as Run, reading weights from flat
// slices instead of per-edge closures: the edge leaving node id along axis a
// costs edgeX[id·D+a] (D = box.D()), and visiting node id costs nodeX[id]
// (nil nodeX means zero node weights). This is the packing hot path: the
// slices are an ipp packer's weight universe, indexed directly with no
// call or hash per relaxation. Which kernel serves a run depends on the box
// and on nodeX:
//
//   - 2 axes, node-weighted (the Downscaled sketch session behind the
//     streaming engine on a line): pullChunk2.
//   - 2 axes, nil nodeX (the Raw sketch session, the optbound space-time
//     packer): runPull2NoNode serially, runChunk2 on pool bands.
//   - 3 axes, node-weighted (the Downscaled sketch session on a 2-D grid):
//     pullChunk3.
//   - 3 axes with nil nodeX, and 4 to maxParAxes axes: runChunkGeneric.
//
// The serial sweep and the pool's bands run the same kernel for each case
// but the 2-axis nil-nodeX one.
//
// When a Pool has been attached via SetPool and the window clears the pool's
// crossover threshold, the relaxation runs on the pool's wavefront workers;
// results are bit-identical to the serial sweep (see parallel.go).
//
//gridroute:hotpath
func (dp *DP) RunFlat(winLo, winHi, src []int, edgeX, nodeX []float64) {
	dp.runFlatBounded(winLo, winHi, src, edgeX, nodeX, Inf)
}

// RunFlatBounded is RunFlat except that relaxation stops at nodes whose cost
// has reached bound: their outgoing edges are never relaxed. Every node whose
// exact lightest cost is < bound gets the bit-identical cost and predecessor
// RunFlat would compute (a pruned candidate has cost ≥ bound and so can
// neither win nor tie below the bound); nodes at or beyond the bound report
// some cost ≥ bound, or Inf. Callers that only consume results strictly below
// bound — the Theorem 13 oracle's accept test at cost < 1 — therefore see
// exact answers at a fraction of the relaxation work on saturated lattices.
//
//gridroute:hotpath
func (dp *DP) RunFlatBounded(winLo, winHi, src []int, edgeX, nodeX []float64, bound float64) {
	dp.runFlatBounded(winLo, winHi, src, edgeX, nodeX, bound)
}

//gridroute:hotpath
func (dp *DP) runFlatBounded(winLo, winHi, src []int, edgeX, nodeX []float64, bound float64) {
	srcW, ok := dp.setupWindow(winLo, winHi, src)
	if !ok {
		return
	}
	if p := dp.pool; p != nil && p.Workers() > 1 &&
		dp.wsize >= p.minWindow() && dp.wdims[0] >= 2 {
		if dp.runFlatParallel(edgeX, nodeX, bound) {
			return
		}
	}
	// Serial pull sweep: every window node is computed from its (already
	// final) predecessors and written exactly once, so no O(window) Inf/−1
	// reset pass is needed. Bit-identity with the push order is the same
	// argument the parallel kernel rests on (see parallel.go's package
	// comment).
	ps := &dp.par
	ps.edgeX, ps.nodeX, ps.bound = edgeX, nodeX, bound
	rows := dp.wdims[0]
	ps.cols = dp.wsize / rows
	if nodeX != nil {
		dp.cost[srcW] = nodeX[dp.box.Index(src)]
	} else {
		dp.cost[srcW] = 0
	}
	dp.pred[srcW] = -1
	switch {
	case dp.box.D() == 2:
		dp.runPull2()
	case dp.box.D() == 3 && nodeX != nil:
		dp.pullChunk3(0, rows, 0, ps.cols)
	default:
		dp.runChunkGeneric(0, rows, 0, ps.cols)
	}
}

// runPull2 is the serial d == 2 pull sweep for node-weighted runs (nil
// nodeX takes runPull2NoNode): pullChunk2 over the whole window, plus a
// dead-row cutoff the banded parallel kernel cannot take. Once a row at or
// past the source's row ends with every cost ≥ bound, every later row is
// all-Inf — a candidate pulled from the dead row is pruned by the bound gate,
// and a within-row candidate is Inf by induction along the row — so the
// remainder is bulk-filled with the exact values (Inf, −1) the full sweep
// would compute. Results are bit-identical to runChunk2 over the window; the
// payoff is on saturated bounded runs (the Theorem 13 oracle at bound = 1),
// where the reachable region collapses to a few rows near the source and the
// fill is several times cheaper per node than the pull.
//
//gridroute:hotpath
func (dp *DP) runPull2() {
	if dp.par.nodeX == nil {
		dp.runPull2NoNode()
		return
	}
	rows, cols := dp.wdims[0], dp.par.cols
	if dead := dp.pullChunk2(0, rows, 0, cols, true); dead < rows {
		dp.fillDead((dead+1)*cols, dp.wsize)
	}
}

// pullChunk2 pulls rows [r0, r1) × columns [c0, c1) of a node-weighted 2-axis
// window; the serial sweep and every band of the parallel one run through
// it. Cells before the source — the rows above its row and its row's prefix
// — are unreachable and are bulk-filled with the exact (Inf, −1) a pull would
// compute; the source row's tail is pulled by pullSrcTail2, and the rows
// below by pullRows2, two rows per pass. With cutoff set (whole rows only)
// it stops at the first dead row at or past the source's — no cost < bound —
// and returns it; otherwise, or when no row is dead, it returns r1.
//
//gridroute:hotpath
func (dp *DP) pullChunk2(r0, r1, c0, c1 int, cutoff bool) int {
	cols := dp.par.cols
	srcRow, srcCol := dp.srcW/cols, dp.srcW%cols
	i := r0
	for ; i < r1 && i < srcRow; i++ {
		dp.fillDead(i*cols+c0, i*cols+c1)
	}
	if i == srcRow && i < r1 {
		if c0 < srcCol {
			dp.fillDead(i*cols+c0, i*cols+min(c1, srcCol))
		}
		if lo := max(c0, srcCol+1); lo < c1 {
			dp.pullSrcTail2(lo, c1)
		}
		if cutoff && !dp.rowAlive(i) {
			return i
		}
		i++
	}
	return dp.pullRows2(i, r1, c0, c1, cutoff)
}

// pullRows2 pulls rows [r0, r1) × columns [c0, c1) of a node-weighted 2-axis
// window, where every row lies below the source's row: each cell has both a
// vertical predecessor row and no source to skip. Rows go two per pass
// through pullPair2, so the two rows' dependency chains along the row
// overlap; an odd last row goes through pullRow2. With cutoff set it returns
// the first dead row and relaxes nothing past the pair holding it — the
// pair's second row, if computed, already holds the exact dead values
// (Inf, −1); otherwise it returns r1.
//
//gridroute:hotpath
func (dp *DP) pullRows2(r0, r1, c0, c1 int, cutoff bool) int {
	for i := r0; i < r1; i += 2 {
		two := i+1 < r1
		if two {
			dp.pullPair2(i, c0, c1)
		} else {
			dp.pullRow2(i, c0, c1)
		}
		if !cutoff {
			continue
		}
		if !dp.rowAlive(i) {
			return i
		}
		if two && !dp.rowAlive(i+1) {
			return i + 1
		}
	}
	return r1
}

// rowAlive reports whether window row i holds a cost < bound. The scan
// stops at the first such cell, which on a live row is almost always among
// the first few; it keeps liveness tracking out of the pull loops, which
// have no register to spare for it.
//
//gridroute:hotpath
func (dp *DP) rowAlive(i int) bool {
	cols, bound := dp.par.cols, dp.par.bound
	for _, c := range dp.cost[i*cols : (i+1)*cols] {
		if c < bound {
			return true
		}
	}
	return false
}

// rowViews2 re-slices window row i over columns [c0, c1) of a node-weighted
// 2-axis run, for a row with a row above it in the box: its cost and pred
// cells, its nodeX weights, and two interleaved edgeX views whose entry 2k is
// the weight of column c0+k's vertical (axis-0, from the row above) and
// horizontal (axis-1, from the left) in-edge. A 2-axis box has stride 1 along
// axis 1, so the in-edges of box node b sit at edgeX[2(b−stride0)] and
// edgeX[2b−1]. The edge views end at their last read entry: an n-column
// segment's are 2n−1 long.
//
//gridroute:hotpath
func (dp *DP) rowViews2(i, c0, c1 int) (cost []float64, pred []int8, ev, eh, node []float64) {
	w := i*dp.par.cols + c0
	n := c1 - c0
	b := dp.winBoxBase + i*dp.box.stride[0] + c0
	v := 2 * (b - dp.box.stride[0])
	h := 2*b - 1
	edgeX := dp.par.edgeX
	return dp.cost[w : w+n], dp.pred[w : w+n], edgeX[v : v+2*n-1], edgeX[h : h+2*n-1], dp.par.nodeX[b : b+n]
}

// pullPair2 pulls rows i and i+1 over columns [c0, c1) (see pullRows2).
// Column by column it relaxes row i's cell, then row i+1's, whose vertical
// predecessor is the cell just written, so the two rows' horizontal chains
// run side by side. Every cell evaluates exactly the serial sweep's
// expression — (cost + edgeX[…]) + nodeX[…], the vertical candidate first,
// strict <, and (Inf, −1) when no predecessor is below the bound.
//
// The loop is written for the register allocator: the views are re-sliced
// to common lengths so that the compiler proves every index in range but one
// edge index per column (it cannot bound the stride-2 index 2k by the loop
// count); the predecessor is stored in place rather than carried in a
// variable, and Inf is copied to a local, since the loop already needs
// every general register and either would spill.
//
//gridroute:hotpath
func (dp *DP) pullPair2(i, c0, c1 int) {
	inf, bound := Inf, dp.par.bound
	cost0, pred0, ev0, eh0, node0 := dp.rowViews2(i, c0, c1)
	cost1, pred1, _, eh1, node1 := dp.rowViews2(i+1, c0, c1)
	n, m := len(cost0), len(ev0)
	up := dp.cost[(i-1)*dp.par.cols+c0:]
	up = up[:n]
	pred0, node0 = pred0[:n], node0[:n]
	cost1, pred1, node1 = cost1[:n], pred1[:n], node1[:n]
	// Row i+1's vertical in-edges, the axis-0 edges leaving row i, sit one
	// entry after row i's horizontal ones. The view equals rowViews2(i+1)'s
	// ev; cutting it from eh0 compiles to a faster loop (same instructions,
	// better block layout) on the Xeon the kernel was tuned on.
	ev1 := eh0[1 : m+1]
	eh0, eh1 = eh0[:m], eh1[:m]
	left0, left1 := dp.leftOf(i, c0), dp.leftOf(i+1, c0)
	for c := range cost0 {
		j := 2 * c
		e0 := ev0[j]
		best := inf
		pred0[c] = -1
		if pc := up[c]; pc < bound {
			if ec := pc + e0 + node0[c]; ec < best {
				best = ec
				pred0[c] = 0
			}
		}
		if left0 < bound {
			if ec := left0 + eh0[j] + node0[c]; ec < best {
				best = ec
				pred0[c] = 1
			}
		}
		cost0[c] = best
		left0 = best
		pc := best
		best = inf
		pred1[c] = -1
		if pc < bound {
			if ec := pc + ev1[j] + node1[c]; ec < best {
				best = ec
				pred1[c] = 0
			}
		}
		if left1 < bound {
			if ec := left1 + eh1[j] + node1[c]; ec < best {
				best = ec
				pred1[c] = 1
			}
		}
		cost1[c] = best
		left1 = best
	}
}

// pullRow2 is pullPair2 for the single row i: the odd last row of a
// pullRows2 range.
//
//gridroute:hotpath
func (dp *DP) pullRow2(i, c0, c1 int) {
	inf, bound := Inf, dp.par.bound
	cost, pred, ev, eh, node := dp.rowViews2(i, c0, c1)
	n := len(cost)
	up := dp.cost[(i-1)*dp.par.cols+c0:]
	up = up[:n]
	pred, node = pred[:n], node[:n]
	eh = eh[:len(ev)]
	left := dp.leftOf(i, c0)
	for c := range cost {
		j := 2 * c
		e := ev[j]
		best := inf
		pred[c] = -1
		if pc := up[c]; pc < bound {
			if ec := pc + e + node[c]; ec < best {
				best = ec
				pred[c] = 0
			}
		}
		if left < bound {
			if ec := left + eh[j] + node[c]; ec < best {
				best = ec
				pred[c] = 1
			}
		}
		cost[c] = best
		left = best
	}
}

// pullSrcTail2 pulls columns [c0, c1) of the source's row, all right of the
// source, in a node-weighted 2-axis run. The row above is unreachable or
// absent, so no vertical candidate can pass the bound gate: each cell takes
// the horizontal candidate (left + edgeX[…]) + nodeX[…] when it beats Inf,
// exactly as the full pull.
//
//gridroute:hotpath
func (dp *DP) pullSrcTail2(c0, c1 int) {
	inf, bound := Inf, dp.par.bound
	srcRow := dp.srcW / dp.par.cols
	w := srcRow*dp.par.cols + c0
	n := c1 - c0
	b := dp.winBoxBase + srcRow*dp.box.stride[0] + c0
	cost, pred := dp.cost[w:w+n], dp.pred[w:w+n]
	eh := dp.par.edgeX[2*b-1 : 2*b-1+2*n-1]
	node := dp.par.nodeX[b : b+n]
	pred, node = pred[:n], node[:n]
	left := dp.cost[w-1]
	for c := range cost {
		e := eh[2*c]
		best := inf
		pred[c] = -1
		if left < bound {
			if ec := left + e + node[c]; ec < best {
				best = ec
				pred[c] = 1
			}
		}
		cost[c] = best
		left = best
	}
}

// leftOf returns the cost of the cell left of column c0 in window row i, or
// Inf at column 0, where no horizontal predecessor exists.
//
//gridroute:hotpath
func (dp *DP) leftOf(i, c0 int) float64 {
	if c0 == 0 {
		return Inf
	}
	return dp.cost[i*dp.par.cols+c0-1]
}

// runPull2NoNode is runPull2 for nil node weights: the randomized
// algorithm's Raw sketch session and the optbound space-time packer, which
// index edge weights only. (The deterministic Downscaled sketch session —
// the streaming engine's admission DP — passes node weights and runs
// pullChunk2.) Column 0 and the source's row are peeled so the steady-state
// inner loop carries no per-node boundary, source, or nil checks; dp fields
// are hoisted into locals because stores through cost/pred keep the
// compiler from proving dp itself is unmodified.
//
// Beyond the dead-row cutoff, each row's scan terminates early at the alive
// frontier. A cell is alive when its cost is < bound; a dead cell — Inf or a
// finite cost at/past the bound — is pruned as a predecessor by the bound
// gate, so a cell can only be non-Inf if its vertical or horizontal
// predecessor is alive. Scanning row i left to right, once the column is past
// `revive` (the last alive column of row i−1, or the source's column in its
// row) and the cell just written is dead, no later cell in the row has an
// alive predecessor: the remainder is exactly (Inf, −1) and is bulk-filled.
// On bounded runs the per-offer work shrinks from the window's area to
// roughly the reachable-below-bound region's.
//
//gridroute:hotpath
func (dp *DP) runPull2NoNode() {
	ps := &dp.par
	cost, pred := dp.cost, dp.pred
	edgeX, bound := ps.edgeX, ps.bound
	cols := ps.cols
	bs0, bs1 := dp.box.stride[0], dp.box.stride[1]
	rows := dp.wdims[0]
	srcW := dp.srcW
	srcRow, srcCol := srcW/cols, srcW%cols
	srcAlive := cost[srcW] < bound
	revive := -1 // last column of the previous row that can revive this one
	for i := 0; i < rows; i++ {
		if i == srcRow && srcAlive && srcCol > revive {
			revive = srcCol
		}
		maxA := -1   // last alive column written in this row
		stop := cols // first column of the row's dead remainder
		w := i * cols
		bID := dp.winBoxBase + i*bs0
		// Column 0: no horizontal predecessor.
		if w == srcW {
			if srcAlive {
				maxA = 0
			}
		} else {
			best, bp := Inf, int8(-1)
			if i > 0 {
				if pc := cost[w-cols]; pc < bound {
					if ec := pc + edgeX[(bID-bs0)*2]; ec < best {
						best, bp = ec, 0
					}
				}
			}
			cost[w], pred[w] = best, bp
			if best < bound {
				maxA = 0
			} else if revive < 0 {
				stop = 1
			}
		}
		w++
		// The inner loops carry the just-written cell in `left` (sparing the
		// cost[w−1] reload) and advance the two edgeX indices by strength
		// reduction: a +1 column step moves the vertical-pull index
		// (bID−bs0)·2 and the horizontal-pull index (bID−bs1)·2+1 by 2·bs1
		// each.
		left := cost[w-1]
		vE := (dp.winBoxBase + i*bs0 + bs1 - bs0) * 2
		hE := (dp.winBoxBase+i*bs0)*2 + 1
		bs12 := bs1 * 2
		switch {
		case stop < cols:
			// Row died at column 0.
		case i == srcRow:
			// The source's row (this also covers a top row holding the
			// source): per-cell source skip, vertical pulls only when a row
			// exists above.
			for c := 1; c < cols; c++ {
				if w == srcW {
					if srcAlive {
						maxA = c
					}
					left = cost[w]
					w++
					vE += bs12
					hE += bs12
					continue
				}
				best, bp := Inf, int8(-1)
				if i > 0 {
					if pc := cost[w-cols]; pc < bound {
						if ec := pc + edgeX[vE]; ec < best {
							best, bp = ec, 0
						}
					}
				}
				if left < bound {
					if ec := left + edgeX[hE]; ec < best {
						best, bp = ec, 1
					}
				}
				cost[w], pred[w] = best, bp
				left = best
				if best < bound {
					maxA = c
				} else if c > revive {
					stop = c + 1
					break
				}
				w++
				vE += bs12
				hE += bs12
			}
		case i == 0:
			// Top row without the source: horizontal prefix only.
			for c := 1; c < cols; c++ {
				best, bp := Inf, int8(-1)
				if left < bound {
					if ec := left + edgeX[hE]; ec < best {
						best, bp = ec, 1
					}
				}
				cost[w], pred[w] = best, bp
				left = best
				if best < bound {
					maxA = c
				} else if c > revive {
					stop = c + 1
					break
				}
				w++
				hE += bs12
			}
		default:
			// Steady state: both predecessors exist, the source is
			// elsewhere.
			for c := 1; c < cols; c++ {
				best, bp := Inf, int8(-1)
				if pc := cost[w-cols]; pc < bound {
					if ec := pc + edgeX[vE]; ec < best {
						best, bp = ec, 0
					}
				}
				if left < bound {
					if ec := left + edgeX[hE]; ec < best {
						best, bp = ec, 1
					}
				}
				cost[w], pred[w] = best, bp
				left = best
				if best < bound {
					maxA = c
				} else if c > revive {
					stop = c + 1
					break
				}
				w++
				vE += bs12
				hE += bs12
			}
		}
		if stop < cols {
			dp.fillDead(i*cols+stop, (i+1)*cols)
		}
		if maxA < 0 && i >= srcRow {
			// Fully dead row at or past the source's: everything below is
			// dead too.
			dp.fillDead((i+1)*cols, dp.wsize)
			return
		}
		revive = maxA
	}
}

// fillDead writes the exact dead-region values (Inf, −1) to window indices
// [from, to) after an alive-frontier or dead-row cutoff.
//
//gridroute:hotpath
func (dp *DP) fillDead(from, to int) {
	cost, pred := dp.cost[from:to], dp.pred[from:to]
	for j := range cost {
		cost[j] = Inf
	}
	for j := range pred {
		pred[j] = -1
	}
}

// CostAt returns the lightest-path cost from the source to p, or Inf if p is
// outside the window or unreachable.
//
//gridroute:hotpath
func (dp *DP) CostAt(p []int) float64 {
	if !dp.valid || !dp.inWindow(p) {
		return Inf
	}
	return dp.cost[dp.winIndex(p)]
}

// MinCostRay returns the least cost over the points obtained from p by
// ranging p[axis] over [lo, hi], together with the coordinate achieving it
// (ties resolve to the lowest coordinate, like an ascending CostAt scan with
// a strict comparison). Out-of-window coordinates contribute Inf. This is
// the sink-side scan of a packer's Offer — one windowed slice walk instead
// of a winIndex odometer per probe.
//
//gridroute:hotpath
func (dp *DP) MinCostRay(p []int, axis, lo, hi int) (best float64, bestAt int) {
	best, bestAt = Inf, lo
	if !dp.valid {
		return best, bestAt
	}
	for i, x := range p {
		if i != axis && (x < dp.winLo[i] || x >= dp.winHi[i]) {
			return best, bestAt
		}
	}
	clo, chi := lo, hi
	if wlo := dp.winLo[axis]; clo < wlo {
		clo = wlo
	}
	if whi := dp.winHi[axis] - 1; chi > whi {
		chi = whi
	}
	if clo > chi {
		return best, bestAt
	}
	str := dp.wstr[axis]
	id := dp.winIndex(p) + (clo-p[axis])*str
	for w := clo; w <= chi; w++ {
		if c := dp.cost[id]; c < best {
			best, bestAt = c, w
		}
		id += str
	}
	return best, bestAt
}

// PathTo reconstructs the lightest path to p. It returns nil when p is
// unreachable. The path is materialized in at most three allocations (Path,
// start coords, axes).
func (dp *DP) PathTo(p []int) *Path {
	var out Path
	if !dp.PathInto(p, &out) {
		return nil
	}
	return &out
}

// PathInto is PathTo writing into a caller-provided Path, reusing its Start
// and Axes slices. It reports false (leaving out untouched) when p is
// unreachable. A warm out (slices grown once) makes reconstruction
// allocation-free — the streaming admit path depends on this.
//
//gridroute:hotpath
func (dp *DP) PathInto(p []int, out *Path) bool {
	if dp.CostAt(p) == Inf {
		return false
	}
	// Walk the predecessor chain once, tracking the window index
	// incrementally (winIndex per step is a d-term dot product; a step along
	// axis a just subtracts wstr[a]). The walk emits axes sink→source;
	// reverse in place to report them forward.
	cur := append(out.Start[:0], p...)
	wi := dp.winIndex(cur)
	axes := out.Axes[:0]
	for {
		a := dp.pred[wi]
		if a < 0 {
			break
		}
		axes = append(axes, uint8(a))
		wi -= dp.wstr[a]
		cur[a]--
	}
	for i, j := 0, len(axes)-1; i < j; i, j = i+1, j-1 {
		axes[i], axes[j] = axes[j], axes[i]
	}
	// cur is now the source.
	out.Start, out.Axes = cur, axes
	return true
}

// SetPool attaches (or, with nil, detaches) a wavefront worker pool. RunFlat
// and RunFlatBounded consult it on every call: windows at or above the pool's
// crossover threshold relax in parallel, smaller ones stay serial. The
// results are bit-identical either way, so a pool can be attached to any DP
// without changing observable behaviour.
func (dp *DP) SetPool(p *Pool) { dp.pool = p }

// FloorDiv returns floor(a/b) for b > 0 (Go's integer division truncates
// toward zero, which is wrong for tiling negative w coordinates).
func FloorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
