package lattice

// The node-weighted 3-axis pull kernel: the admission DP of a 2-D grid, whose
// tiled sketch graph is a box over (x, y, w). Window axes are (i, j, k) =
// (x, y, w); a window row is one (i, j) pair, and k, the last axis, has
// stride 1 in both the window and the box.
//
// Only cells in the source's orthant — i ≥ si, j ≥ sj, k ≥ sk — can be
// reached: every predecessor of a cell outside it lies outside it too, so by
// induction the full pull computes (Inf, −1) there. The kernel bulk-fills
// those cells and, inside the orthant, drops each candidate whose
// predecessor lies outside it (an Inf cost never passes the pc < bound gate).
// What is left is one loop per predecessor set: pullRow3 for interior rows,
// pullRowOne3 for the orthant's two boundary planes, pullSrcTail3 for the
// source's row, and pullFirst3 for each row's first orthant cell.

// pullChunk3 pulls rows [r0, r1) × flattened columns [c0, c1) of a
// node-weighted 3-axis window, where column c is the cell (c / K, c mod K)
// of the (j, k) plane; the serial sweep and every band of the parallel one
// run through it. The column range is split into (j, k) row segments. Each
// cell evaluates the serial sweep's expression (cost + edgeX[…]) + nodeX[…],
// axes in ascending order, strict <, the pc < bound gate, and (Inf, −1) when
// no predecessor passes; the source cell is left as the caller set it.
//
//gridroute:hotpath
func (dp *DP) pullChunk3(r0, r1, c0, c1 int) {
	str0, nk := dp.wstr[0], dp.wdims[2]
	bs0, bs1 := dp.box.stride[0], dp.box.stride[1]
	si, sj, sk := dp.srcW/str0, dp.srcW%str0/nk, dp.srcW%nk
	j0, kc0 := c0/nk, c0%nk
	for i := r0; i < r1; i++ {
		for c, j, k0 := c0, j0, kc0; c < c1; j, k0 = j+1, 0 {
			k1 := min(nk, k0+c1-c)
			c += k1 - k0
			w := i*str0 + j*nk                 // window index of the row's k = 0 cell
			b := dp.winBoxBase + i*bs0 + j*bs1 // and its box id
			if i < si || j < sj {
				dp.fillDead(w+k0, w+k1)
				continue
			}
			if k0 < sk {
				dp.fillDead(w+k0, w+min(k1, sk))
				k0 = sk
			}
			if k0 >= k1 {
				continue
			}
			up, side := i > si, j > sj
			if k0 == sk {
				if up || side {
					dp.pullFirst3(w+k0, b+k0, up, side)
				}
				if k0++; k0 == k1 {
					continue
				}
			}
			w, b = w+k0, b+k0
			switch n := k1 - k0; {
			case up && side:
				dp.pullRow3(w, b, n)
			case up:
				dp.pullRowOne3(w, b, n, 0)
			case side:
				dp.pullRowOne3(w, b, n, 1)
			default:
				dp.pullSrcTail3(w, b, n)
			}
		}
	}
}

// pullFirst3 pulls window cell w, box node b: a row's first orthant cell
// (k = sk), which has no in-orthant axis-2 predecessor. Only the axis-0
// candidate (when up) and the axis-1 candidate (when side) can pass.
//
//gridroute:hotpath
func (dp *DP) pullFirst3(w, b int, up, side bool) {
	bound, edgeX := dp.par.bound, dp.par.edgeX
	nw := dp.par.nodeX[b]
	best, bp := Inf, int8(-1)
	if up {
		if pc := dp.cost[w-dp.wstr[0]]; pc < bound {
			if ec := pc + edgeX[(b-dp.box.stride[0])*3] + nw; ec < best {
				best, bp = ec, 0
			}
		}
	}
	if side {
		if pc := dp.cost[w-dp.wstr[1]]; pc < bound {
			if ec := pc + edgeX[(b-dp.box.stride[1])*3+1] + nw; ec < best {
				best, bp = ec, 1
			}
		}
	}
	dp.cost[w], dp.pred[w] = best, bp
}

// pullRow3 pulls the n cells of a row segment that starts at window index w,
// box node b, where every cell has all three predecessors in the orthant:
// i > si, j > sj and k > sk. It relaxes through re-sliced row views: the cost
// rows at w − wstr[0] and w − wstr[1], the segment's nodeX weights, and three
// stride-3 edgeX views whose entry 3k is the weight of the segment's cell k's
// in-edge along axis 0, 1 and 2. The views are cut to common lengths so that
// the compiler proves every index but the stride-3 edge ones in range.
//
//gridroute:hotpath
func (dp *DP) pullRow3(w, b, n int) {
	inf, bound := Inf, dp.par.bound
	m := 3*n - 2
	edgeX := dp.par.edgeX
	eu := edgeX[3*(b-dp.box.stride[0]):]
	es := edgeX[3*(b-dp.box.stride[1])+1:]
	el := edgeX[3*b-1:]
	eu, es, el = eu[:m], es[:m], el[:m]
	cost, pred, node := dp.cost[w:w+n], dp.pred[w:w+n], dp.par.nodeX[b:b+n]
	up, side := dp.cost[w-dp.wstr[0]:], dp.cost[w-dp.wstr[1]:]
	up, side, pred, node = up[:n], side[:n], pred[:n], node[:n]
	left := dp.cost[w-1]
	for k := range cost {
		e := 3 * k
		best := inf
		pred[k] = -1
		if pc := up[k]; pc < bound {
			if ec := pc + eu[e] + node[k]; ec < best {
				best = ec
				pred[k] = 0
			}
		}
		if pc := side[k]; pc < bound {
			if ec := pc + es[e] + node[k]; ec < best {
				best = ec
				pred[k] = 1
			}
		}
		if left < bound {
			if ec := left + el[e] + node[k]; ec < best {
				best = ec
				pred[k] = 2
			}
		}
		cost[k] = best
		left = best
	}
}

// pullRowOne3 pulls the n cells of a row segment at window index w, box node
// b, with k > sk, on one of the orthant's boundary planes: the row has one
// in-orthant orthogonal predecessor row, along axis a (0 on the plane
// j = sj, 1 on i = si), plus the axis-2 predecessor to the left.
//
//gridroute:hotpath
func (dp *DP) pullRowOne3(w, b, n int, a int8) {
	inf, bound := Inf, dp.par.bound
	m := 3*n - 2
	edgeX := dp.par.edgeX
	eo := edgeX[3*(b-dp.box.stride[a])+int(a):]
	el := edgeX[3*b-1:]
	eo, el = eo[:m], el[:m]
	cost, pred, node := dp.cost[w:w+n], dp.pred[w:w+n], dp.par.nodeX[b:b+n]
	orth := dp.cost[w-dp.wstr[a]:]
	orth, pred, node = orth[:n], pred[:n], node[:n]
	left := dp.cost[w-1]
	for k := range cost {
		e := 3 * k
		best := inf
		pred[k] = -1
		if pc := orth[k]; pc < bound {
			if ec := pc + eo[e] + node[k]; ec < best {
				best = ec
				pred[k] = a
			}
		}
		if left < bound {
			if ec := left + el[e] + node[k]; ec < best {
				best = ec
				pred[k] = 2
			}
		}
		cost[k] = best
		left = best
	}
}

// pullSrcTail3 pulls the n cells of a segment of the source's row at window
// index w, box node b, all right of the source: only the axis-2 predecessor
// lies in the orthant.
//
//gridroute:hotpath
func (dp *DP) pullSrcTail3(w, b, n int) {
	inf, bound := Inf, dp.par.bound
	el := dp.par.edgeX[3*b-1:]
	el = el[:3*n-2]
	cost, pred, node := dp.cost[w:w+n], dp.pred[w:w+n], dp.par.nodeX[b:b+n]
	pred, node = pred[:n], node[:n]
	left := dp.cost[w-1]
	for k := range cost {
		best := inf
		pred[k] = -1
		if left < bound {
			if ec := left + el[3*k] + node[k]; ec < best {
				best = ec
				pred[k] = 2
			}
		}
		cost[k] = best
		left = best
	}
}
