// Parallel wavefront relaxation for DP.RunFlat.
//
// The window is partitioned along axis 0 (the slowest-varying, outermost
// coordinate — time, after untilting) into contiguous bands of rows, one per
// worker. Row i depends only on rows ≤ i and on smaller column indices of
// row i itself, so bands pipeline: the flattened rest-space (the product of
// axes 1..d−1) is cut into column chunks, and band b may relax chunk j as
// soon as band b−1 has finished its chunk j. A per-band atomic progress
// counter carries both the ordering and the memory-visibility edge, so there
// are no per-wavefront barriers — the bands stream diagonally across the
// window like a systolic array.
//
// Bit-identity with the serial sweep: the parallel kernel relaxes by
// *pulling* — each node computes min over its in-window predecessors, axes
// in ascending order, strict < — and every node is written by exactly one
// worker. The serial push sweep processes a node's predecessors in ascending
// window-index order, which is exactly ascending axis order (window strides
// decrease with axis), and overwrites only on strict improvement; both
// therefore keep the lowest-axis predecessor on cost ties, and both evaluate
// the identical float expression cost(u) + edgeX[...] (+ nodeX[...]). The
// source node is initialized up front and skipped by every chunk.
package lattice

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxParAxes bounds the dimensionality the serial and parallel kernels handle
// with stack scratch; NewDP rejects higher-dimensional boxes, which nothing
// in the repository builds.
const maxParAxes = 16

// DefaultMinWindow is the window-size crossover below which an attached Pool
// is ignored and RunFlat stays serial: at ~1k nodes a full serial sweep is
// ~µs-scale, comparable to waking the workers.
const DefaultMinWindow = 1024

// parTask asks a pool worker to run one band of one DP's current window.
type parTask struct {
	dp   *DP
	band int
}

// Pool is a persistent set of wavefront workers shared by any number of DPs
// (concurrent RunFlat calls on *different* DPs are safe; a DP itself is
// single-threaded as ever). The pool holds workers−1 goroutines — the
// caller's goroutine always relaxes the last band itself, so a 1-worker pool
// spawns nothing and changes nothing.
type Pool struct {
	workers int
	tasks   chan parTask
	once    sync.Once

	// MinWindow overrides DefaultMinWindow when > 0: windows smaller than
	// this many nodes relax serially. Tests set it to 1 to force the
	// parallel path onto tiny windows.
	MinWindow int
}

// NewPool starts a pool of the given width. workers ≤ 1 yields an inert pool
// that never parallelizes.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.tasks = make(chan parTask, 4*workers)
		for i := 0; i < workers-1; i++ {
			go func() {
				for t := range p.tasks {
					t.dp.runBand(t.band)
					t.dp.par.wg.Done()
				}
			}()
		}
	}
	return p
}

// Workers returns the pool width (bands per window, including the caller).
func (p *Pool) Workers() int { return p.workers }

// Close shuts the worker goroutines down. Idempotent and nil-safe; the pool
// must be idle (no RunFlat in flight).
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() {
		if p.tasks != nil {
			close(p.tasks)
		}
	})
}

func (p *Pool) minWindow() int {
	if p.MinWindow > 0 {
		return p.MinWindow
	}
	return DefaultMinWindow
}

// parState is a DP's reusable parallel-run bookkeeping. progress[b] counts
// the chunks band b has completed; it is the only cross-band communication.
type parState struct {
	wg        sync.WaitGroup
	progress  []atomic.Int64
	bandLo    []int // band b covers rows [bandLo[b], bandLo[b+1])
	edgeX     []float64
	nodeX     []float64
	bound     float64
	cols      int // flattened rest-space size (wsize / wdims[0])
	chunk     int // columns per chunk
	numChunks int
}

// runFlatParallel relaxes the current window on the attached pool. It
// reports false (leaving the buffers untouched beyond setupWindow) when the
// shape does not parallelize — fewer than 2 usable bands — in which case the
// caller falls back to the serial kernels.
//
//gridroute:hotpath
func (dp *DP) runFlatParallel(edgeX, nodeX []float64, bound float64) bool {
	rows := dp.wdims[0]
	nb := dp.pool.workers
	if nb > rows {
		nb = rows
	}
	if nb < 2 {
		return false
	}
	ps := &dp.par
	ps.edgeX, ps.nodeX, ps.bound = edgeX, nodeX, bound
	ps.cols = dp.wsize / rows

	// ~4 chunks per band keeps pipeline fill/drain under ~25% of the work
	// while the per-chunk synchronization stays one atomic store + load.
	target := 4 * nb
	ps.chunk = (ps.cols + target - 1) / target
	ps.numChunks = (ps.cols + ps.chunk - 1) / ps.chunk

	if cap(ps.progress) < nb {
		ps.progress = make([]atomic.Int64, nb)
		ps.bandLo = make([]int, nb+1)
	}
	ps.progress = ps.progress[:nb]
	ps.bandLo = ps.bandLo[:nb+1]
	for b := 0; b < nb; b++ {
		ps.progress[b].Store(0)
		ps.bandLo[b] = b * rows / nb
	}
	ps.bandLo[nb] = rows

	// The source is written once here and skipped by every chunk, so its
	// init survives; everything else is (over)written by exactly one chunk.
	if nodeX != nil {
		dp.cost[dp.srcW] = nodeX[dp.box.Index(dp.srcAbs)]
	} else {
		dp.cost[dp.srcW] = 0
	}
	dp.pred[dp.srcW] = -1

	ps.wg.Add(nb - 1)
	for b := 0; b < nb-1; b++ {
		dp.pool.tasks <- parTask{dp: dp, band: b}
	}
	dp.runBand(nb - 1)
	ps.wg.Wait()
	return true
}

// runBand relaxes one band's rows, chunk by chunk, waiting for the band
// above to clear each chunk first. The spin is short — the dependency is at
// most one chunk of work away — and yields to the scheduler so the pipeline
// drains even when goroutines outnumber CPUs (GOMAXPROCS=1 included).
//
//gridroute:hotpath
func (dp *DP) runBand(band int) {
	ps := &dp.par
	for j := 0; j < ps.numChunks; j++ {
		if band > 0 {
			for spin := 0; ps.progress[band-1].Load() <= int64(j); spin++ {
				if spin > 32 {
					runtime.Gosched()
				}
			}
		}
		c0 := j * ps.chunk
		c1 := c0 + ps.chunk
		if c1 > ps.cols {
			c1 = ps.cols
		}
		switch r0, r1 := ps.bandLo[band], ps.bandLo[band+1]; {
		case dp.box.D() == 2:
			dp.runChunk2(r0, r1, c0, c1)
		case dp.box.D() == 3 && ps.nodeX != nil:
			dp.pullChunk3(r0, r1, c0, c1)
		default:
			dp.runChunkGeneric(r0, r1, c0, c1)
		}
		ps.progress[band].Store(int64(j + 1))
	}
}

// runChunk2 pulls rows [r0,r1) × columns [c0,c1) of a 2-axis window.
// Node-weighted runs go through pullChunk2, the serial sweep's kernel, so
// every DPWorkers setting runs the same relaxation code.
//
//gridroute:hotpath
func (dp *DP) runChunk2(r0, r1, c0, c1 int) {
	ps := &dp.par
	if ps.nodeX != nil {
		dp.pullChunk2(r0, r1, c0, c1, false)
		return
	}
	cols := ps.cols
	cost, pred := dp.cost, dp.pred
	edgeX, bound := ps.edgeX, ps.bound
	bs0, bs1 := dp.box.stride[0], dp.box.stride[1]
	for i := r0; i < r1; i++ {
		w := i*cols + c0
		bID := dp.winBoxBase + i*bs0 + c0*bs1
		for c := c0; c < c1; c++ {
			if w == dp.srcW {
				w++
				bID += bs1
				continue
			}
			best, bp := Inf, int8(-1)
			if i > 0 {
				if pc := cost[w-cols]; pc < bound {
					if ec := pc + edgeX[(bID-bs0)*2]; ec < best {
						best, bp = ec, 0
					}
				}
			}
			if c > 0 {
				if pc := cost[w-1]; pc < bound {
					if ec := pc + edgeX[(bID-bs1)*2+1]; ec < best {
						best, bp = ec, 1
					}
				}
			}
			cost[w], pred[w] = best, bp
			w++
			bID += bs1
		}
	}
}

// runChunkGeneric is runChunk2 for any dimensionality ≤ maxParAxes: the
// rest-space coordinates (axes 1..d−1) are decoded once per row-chunk into
// stack scratch and advanced with an odometer. It serves the windows no
// tuned kernel covers — 3-axis runs with nil nodeX and boxes with 4 or more
// axes — serially and on pool bands; node-weighted 3-axis runs take
// pullChunk3 and 2-axis runs the runPull2/runChunk2 kernels.
//
//gridroute:hotpath
func (dp *DP) runChunkGeneric(r0, r1, c0, c1 int) {
	ps := &dp.par
	cost, pred := dp.cost, dp.pred
	edgeX, nodeX, bound := ps.edgeX, ps.nodeX, ps.bound
	cols := ps.cols
	d := dp.box.D()
	for i := r0; i < r1; i++ {
		var off [maxParAxes]int
		bID := dp.winBoxBase + i*dp.box.stride[0]
		rem := c0
		for a := 1; a < d; a++ {
			off[a] = rem / dp.wstr[a]
			rem %= dp.wstr[a]
			bID += off[a] * dp.box.stride[a]
		}
		w := i*cols + c0
		for c := c0; c < c1; c++ {
			if w == dp.srcW {
				goto next
			}
			{
				best, bp := Inf, int8(-1)
				if i > 0 {
					if pc := cost[w-cols]; pc < bound {
						ec := pc + edgeX[(bID-dp.box.stride[0])*d]
						if nodeX != nil {
							ec += nodeX[bID]
						}
						if ec < best {
							best, bp = ec, 0
						}
					}
				}
				for a := 1; a < d; a++ {
					if off[a] == 0 {
						continue
					}
					if pc := cost[w-dp.wstr[a]]; pc < bound {
						ec := pc + edgeX[(bID-dp.box.stride[a])*d+a]
						if nodeX != nil {
							ec += nodeX[bID]
						}
						if ec < best {
							best, bp = ec, int8(a)
						}
					}
				}
				cost[w], pred[w] = best, bp
			}
		next:
			w++
			for a := d - 1; a >= 1; a-- {
				off[a]++
				bID += dp.box.stride[a]
				if off[a] < dp.wdims[a] {
					break
				}
				bID -= dp.wdims[a] * dp.box.stride[a]
				off[a] = 0
			}
		}
	}
}
