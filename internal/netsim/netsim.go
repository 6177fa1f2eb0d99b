// Package netsim is a cycle-accurate synchronous store-and-forward network
// simulator for uni-directional grids (Sec. 2.1 of Even–Medina).
//
// It supports the two node-functionality models compared in Appendix F:
//
//   - Model 1 (ARSU02, RR09; used by the paper): a combinational node may
//     cut a packet through from an incoming link to an outgoing link within
//     one cycle; only packets held across a cycle boundary occupy the B
//     buffer slots.
//   - Model 2 (AKK09, AZ05): every packet present at a node during a cycle
//     occupies a buffer slot, including packets forwarded in that cycle.
//
// Two execution modes exist: replaying explicit space-time schedules (the
// output of the paper's algorithms) with full capacity/buffer verification,
// and running local priority policies (greedy, nearest-to-go) step by step.
//
// Schedule replay keeps link and buffer occupancy in dense counters over the
// replayed time window. Link cells are laid out along the untilted time
// w = t − Σxᵢ of Even–Medina Sec. 3.2 rather than along real time t: the
// cell of the link leaving node v along axis a at time t is
// ((w − w₀)·N + v)·d + a, where w₀ = minT − diam(G) is the lowest w the
// window can hold. A transmission raises t and Σxᵢ together, so a straight
// run keeps w fixed and its successive links sit one grid stride apart (on a
// line, in adjacent cells), where a t-major layout would put every hop on a
// fresh page. Buffer cells are v·width + (t − minT): consecutive holds at one
// node are adjacent there.
package netsim

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"gridroute/internal/dense"
	"gridroute/internal/grid"
	"gridroute/internal/spacetime"
)

// Model selects the node functionality (Appendix F).
type Model int

const (
	// Model1 allows cut-through: only held packets use buffer slots.
	Model1 Model = iota
	// Model2 charges a buffer slot to every packet present during a cycle.
	Model2
)

func (m Model) String() string {
	if m == Model2 {
		return "model2"
	}
	return "model1"
}

// OutcomeKind classifies what happened to a request.
type OutcomeKind int

const (
	// Unserved: the request was never injected (admission control rejected
	// it, or it never appeared in the executed schedule set).
	Unserved OutcomeKind = iota
	// Delivered: the packet reached its destination (check OnTime for the
	// deadline).
	Delivered
	// Dropped: the packet was injected and later preempted/dropped.
	Dropped
	// Stuck: the packet was still travelling when the horizon ended.
	Stuck
)

func (k OutcomeKind) String() string {
	switch k {
	case Delivered:
		return "delivered"
	case Dropped:
		return "dropped"
	case Stuck:
		return "stuck"
	default:
		return "unserved"
	}
}

// Outcome is the per-request result.
type Outcome struct {
	Kind        OutcomeKind
	DeliveredAt int64
	OnTime      bool
}

// Result aggregates a simulation run.
type Result struct {
	Name      string
	Outcomes  []Outcome
	Violation []string
	// MaxBuffer is the peak buffer occupancy observed at any node.
	MaxBuffer int
	// MaxLink is the peak per-edge link usage observed in any step.
	MaxLink int
}

// Throughput returns the number of requests delivered on time — the paper's
// objective |alg(σ)|.
func (r *Result) Throughput() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Kind == Delivered && o.OnTime {
			n++
		}
	}
	return n
}

// DeliveredCount returns deliveries ignoring deadlines.
func (r *Result) DeliveredCount() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Kind == Delivered {
			n++
		}
	}
	return n
}

// CountKind returns the number of outcomes of kind k.
func (r *Result) CountKind(k OutcomeKind) int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Kind == k {
			n++
		}
	}
	return n
}

// linkCells is the untilted link-cell layout of one replay window, described
// in the package comment. Batch and incremental replay share it.
type linkCells struct {
	minT       int64
	n, d, diam int
}

func newLinkCells(g *grid.Grid, minT int64) linkCells {
	return linkCells{minT: minT, n: g.N(), d: g.D(), diam: g.Diameter()}
}

// size returns the cell count of a window of the given width: w − w₀ spans
// [0, width + diam).
func (lc linkCells) size(width int) int { return lc.n * lc.d * (width + lc.diam) }

// index returns the cell of the link leaving node (whose coordinates sum to
// sum) along axis at time t.
//
//gridroute:hotpath
func (lc linkCells) index(node, sum, axis int, t int64) int {
	return ((int(t-lc.minT)+lc.diam-sum)*lc.n+node)*lc.d + axis
}

// decode inverts index.
func (lc linkCells) decode(g *grid.Grid, cell int) (node, axis int, t int64) {
	axis = cell % lc.d
	cell /= lc.d
	node = cell % lc.n
	t = lc.minT - int64(lc.diam) + int64(cell/lc.n)
	for i, l := range g.Dims {
		t += int64(node / g.Stride(i) % l)
	}
	return node, axis, t
}

// Replayer holds the reusable dense state of schedule replay. Link and
// buffer occupancy live in epoch-stamped flat arrays over the replayed time
// window — links in the untilted linkCells layout, buffers at
// node·width + (t − minT) — so a warm Replayer verifies a schedule set with
// no hashing and no allocation. A Replayer is not safe for concurrent use;
// ReplaySchedules draws one from a pool per call.
type Replayer struct {
	links dense.Counts
	bufs  dense.Counts
	pos   grid.Vec
}

var replayerPool = sync.Pool{New: func() any { return new(Replayer) }}

// ReplaySchedules executes explicit schedules under the given model,
// verifying every link-capacity and buffer constraint. schedules[i] may be
// nil for requests that were rejected. The returned result flags violations;
// a correct algorithm produces none.
func ReplaySchedules(g *grid.Grid, reqs []grid.Request, schedules []*spacetime.Schedule, model Model) *Result {
	rp := replayerPool.Get().(*Replayer)
	res := rp.Replay(g, reqs, schedules, model)
	replayerPool.Put(rp)
	return res
}

// Replay is ReplaySchedules on a reusable Replayer.
func (rp *Replayer) Replay(g *grid.Grid, reqs []grid.Request, schedules []*spacetime.Schedule, model Model) *Result {
	res := &Result{}
	rp.ReplayInto(g, reqs, schedules, model, res)
	return res
}

// ReplayInto is Replay writing into a caller-provided result, reusing its
// slices; a warm (Replayer, Result) pair replays without allocating.
//
//gridroute:hotpath
func (rp *Replayer) ReplayInto(g *grid.Grid, reqs []grid.Request, schedules []*spacetime.Schedule, model Model, res *Result) {
	if cap(res.Outcomes) < len(reqs) {
		res.Outcomes = make([]Outcome, len(reqs))
	}
	res.Outcomes = res.Outcomes[:len(reqs)]
	for i := range res.Outcomes {
		res.Outcomes[i] = Outcome{}
	}
	res.Violation = res.Violation[:0]
	res.MaxBuffer, res.MaxLink = 0, 0

	// The occupancy universe spans the replayed time window [minT, maxT].
	minT, maxT := int64(0), int64(-1)
	first := true
	for _, s := range schedules {
		if s == nil {
			continue
		}
		end := s.StartT + int64(len(s.Moves))
		if first {
			minT, maxT = s.StartT, end
			first = false
			continue
		}
		if s.StartT < minT {
			minT = s.StartT
		}
		if end > maxT {
			maxT = end
		}
	}
	width := int(maxT - minT + 1)
	if width < 1 {
		width = 1
	}
	lc := newLinkCells(g, minT)
	rp.links.Reset(lc.size(width))
	rp.bufs.Reset(g.N() * width)

	for i := range schedules {
		s := schedules[i]
		if s == nil {
			continue
		}
		if s.Req == nil || !s.Req.Src.Eq(reqs[i].Src) || s.Req.Arrival != reqs[i].Arrival {
			res.Violation = append(res.Violation, fmt.Sprintf("req %d: schedule/request mismatch", i)) //gridlint:allow violation reporting: runs only on malformed input, not per packet
			if model == Model2 {
				// Mismatched schedules still occupy the network; charge
				// their presence so capacity verification stays sound.
				rp.presenceWalk(g, &reqs[i], s, minT, width, res)
			}
			continue
		}
		pos := append(rp.pos[:0], s.Src...)
		rp.pos = pos
		t := s.StartT
		ok := true
		// The node id and coordinate sum follow the walk move by move; both
		// are updated only after the leaves-grid check passed.
		var node, sum int
		if len(s.Moves) > 0 {
			node, sum = g.Index(pos), pos.Sum()
		}
		for _, m := range s.Moves {
			// Model 2 charges a buffer slot to every packet present at a
			// node during a cycle (including forwarded ones); Model 1 only
			// to packets held across the cycle boundary. Link accounting is
			// model-independent. Both models fold into this single pass.
			if model == Model2 && !pos.Eq(reqs[i].Dst) {
				rp.bumpBuf(node, t, minT, width, res)
			}
			if m == spacetime.Hold {
				if model == Model1 {
					rp.bumpBuf(node, t, minT, width, res)
				}
			} else {
				if n := rp.links.Add(lc.index(node, sum, int(m), t), 1); n > res.MaxLink {
					res.MaxLink = n
				}
				pos[m]++
				if pos[m] >= g.Dims[m] {
					res.Violation = append(res.Violation, fmt.Sprintf("req %d: leaves grid", i)) //gridlint:allow violation reporting: runs only on malformed schedules, not per packet
					ok = false
					break
				}
				node += g.Stride(int(m))
				sum++
			}
			t++
		}
		if !ok {
			res.Outcomes[i] = Outcome{Kind: Dropped}
			continue
		}
		if pos.Eq(reqs[i].Dst) {
			onTime := reqs[i].Deadline == grid.InfDeadline || t <= reqs[i].Deadline
			res.Outcomes[i] = Outcome{Kind: Delivered, DeliveredAt: t, OnTime: onTime}
		} else {
			res.Outcomes[i] = Outcome{Kind: Dropped}
		}
	}

	for _, li := range rp.links.Touched() {
		if n := rp.links.Get(int(li)); n > g.C {
			node, axis, t := lc.decode(g, int(li))
			res.Violation = append(res.Violation,
				fmt.Sprintf("link capacity exceeded: node %d axis %d t=%d: %d > %d", node, axis, t, n, g.C)) //gridlint:allow violation reporting: runs only on capacity breaches, not per packet
		}
	}
	for _, bi := range rp.bufs.Touched() {
		if n := rp.bufs.Get(int(bi)); n > g.B {
			id := int(bi)
			res.Violation = append(res.Violation,
				fmt.Sprintf("buffer exceeded: node %d t=%d: %d > %d", id/width, minT+int64(id%width), n, g.B)) //gridlint:allow violation reporting: runs only on buffer breaches, not per packet
		}
	}
}

//gridroute:hotpath
func (rp *Replayer) bumpBuf(node int, t, minT int64, width int, res *Result) {
	if n := rp.bufs.Add(node*width+int(t-minT), 1); n > res.MaxBuffer {
		res.MaxBuffer = n
	}
}

// presenceWalk charges Model-2 presence for a schedule that failed the
// request cross-check (cold path).
//
//gridroute:hotpath
func (rp *Replayer) presenceWalk(g *grid.Grid, req *grid.Request, s *spacetime.Schedule, minT int64, width int, res *Result) {
	pos := s.Src.Clone()
	t := s.StartT
	for _, m := range s.Moves {
		if !pos.Eq(req.Dst) {
			rp.bumpBuf(g.Index(pos), t, minT, width, res)
		}
		if m != spacetime.Hold {
			pos[m]++
			if pos[m] >= g.Dims[m] {
				break
			}
		}
		t++
	}
}

// Incremental verifies schedules one at a time against a persistent
// occupancy state — the replay mode of the streaming engine, which learns of
// accepted packets one admit at a time and cannot batch them first. The
// occupancy universe spans a fixed time window chosen up front (the engine
// knows its horizon), so adding a schedule is a single walk bumping dense
// link/buffer counters in the same untilted link layout that batch replay
// uses: the links of a straight run lie one grid stride apart, so a walk
// touches a few pages instead of one per hop. The counters are saturating
// 2-byte tallies with no epoch stamps or touched list, because Incremental
// only ever reads the count it has just bumped. So a warm Reset clears its
// reused arrays in O(window) rather than bumping an epoch in O(1).
//
// Capacity violations are detected at the moment a counter first exceeds its
// capacity, so the violation strings name the offending count at that
// instant rather than the final count batch replay reports; a correct
// algorithm produces none either way, and tests assert the outcomes and the
// violation *set* agree with ReplaySchedules.
type Incremental struct {
	g     *grid.Grid
	model Model
	minT  int64
	width int
	lc    linkCells

	links tally
	bufs  tally
	pos   grid.Vec

	added      int
	maxBuffer  int
	maxLink    int
	violations []string
}

// NewIncremental creates an incremental verifier over the time window
// [minT, maxT] (inclusive). Schedules touching steps outside the window are
// rejected as violations.
func NewIncremental(g *grid.Grid, model Model, minT, maxT int64) *Incremental {
	inc := &Incremental{g: g, model: model}
	inc.Reset(minT, maxT)
	return inc
}

// Reset rewinds the verifier to an empty occupancy state over a new window.
// It reuses and clears its counter arrays when they are large enough (a warm
// Incremental resets without allocating, in time linear in the window) and
// allocates fresh, already-zero ones otherwise.
func (inc *Incremental) Reset(minT, maxT int64) {
	if maxT < minT {
		maxT = minT
	}
	inc.minT = minT
	inc.width = int(maxT-minT) + 1
	inc.lc = newLinkCells(inc.g, minT)
	inc.links = inc.links.reset(inc.lc.size(inc.width))
	inc.bufs = inc.bufs.reset(inc.g.N() * inc.width)
	inc.added = 0
	inc.maxBuffer, inc.maxLink = 0, 0
	inc.violations = inc.violations[:0]
}

// Add replays one accepted schedule on top of everything added so far and
// returns the packet's outcome. Capacity and buffer constraints are checked
// as the occupancy counters move; violations accumulate on the verifier
// (Violations) tagged with the request ID.
func (inc *Incremental) Add(req *grid.Request, s *spacetime.Schedule) Outcome {
	g := inc.g
	if s == nil {
		return Outcome{}
	}
	if s.Req == nil || !s.Req.Src.Eq(req.Src) || s.Req.Arrival != req.Arrival {
		inc.violations = append(inc.violations, fmt.Sprintf("req %d: schedule/request mismatch", req.ID))
		return Outcome{}
	}
	if end := s.StartT + int64(len(s.Moves)); s.StartT < inc.minT || end >= inc.minT+int64(inc.width) {
		inc.violations = append(inc.violations,
			fmt.Sprintf("req %d: schedule [%d,%d] outside replay window [%d,%d]", req.ID, s.StartT, end, inc.minT, inc.minT+int64(inc.width)-1))
		return Outcome{}
	}
	pos := append(inc.pos[:0], s.Src...)
	inc.pos = pos
	t := s.StartT
	// As in batch replay, the node id and coordinate sum follow the walk.
	var node, sum int
	if len(s.Moves) > 0 {
		node, sum = g.Index(pos), pos.Sum()
	}
	for _, m := range s.Moves {
		if inc.model == Model2 && !pos.Eq(req.Dst) {
			inc.bumpBuf(req.ID, node, t)
		}
		if m == spacetime.Hold {
			if inc.model == Model1 {
				inc.bumpBuf(req.ID, node, t)
			}
		} else {
			n := inc.links.add(inc.lc.index(node, sum, int(m), t))
			if n > inc.maxLink {
				inc.maxLink = n
			}
			if n > g.C {
				inc.violations = append(inc.violations,
					fmt.Sprintf("link capacity exceeded: node %d axis %d t=%d: %d > %d", node, m, t, n, g.C))
			}
			pos[m]++
			if pos[m] >= g.Dims[m] {
				inc.violations = append(inc.violations, fmt.Sprintf("req %d: leaves grid", req.ID))
				return Outcome{Kind: Dropped}
			}
			node += g.Stride(int(m))
			sum++
		}
		t++
	}
	inc.added++
	if pos.Eq(req.Dst) {
		onTime := req.Deadline == grid.InfDeadline || t <= req.Deadline
		return Outcome{Kind: Delivered, DeliveredAt: t, OnTime: onTime}
	}
	return Outcome{Kind: Dropped}
}

func (inc *Incremental) bumpBuf(reqID, node int, t int64) {
	n := inc.bufs.add(node*inc.width + int(t-inc.minT))
	if n > inc.maxBuffer {
		inc.maxBuffer = n
	}
	if n > inc.g.B {
		inc.violations = append(inc.violations,
			fmt.Sprintf("buffer exceeded: node %d t=%d: %d > %d (adding req %d)", node, t, n, inc.g.B, reqID))
	}
}

// tally is a flat array of saturating occupancy counters.
type tally []uint16

// reset returns a zeroed tally of n counters, reusing c when it is large
// enough. A fresh array is never cleared: make already zeroes it, and
// clearing would fault in every page of a window the replay mostly skips.
func (c tally) reset(n int) tally {
	if cap(c) < n {
		return make(tally, n)
	}
	c = c[:n]
	clear(c)
	return c
}

// add bumps counter i and returns its new value; a counter saturates at
// math.MaxUint16 rather than wrapping, so an overflowing cell keeps reading
// as over capacity.
//
//gridroute:hotpath
func (c tally) add(i int) int {
	n := c[i]
	if n < math.MaxUint16 {
		n++
		c[i] = n
	}
	return int(n)
}

// Added returns the number of schedules replayed so far.
func (inc *Incremental) Added() int { return inc.added }

// Violations returns every constraint violation recorded so far. The slice
// is owned by the verifier; it grows across Add calls and resets on Reset.
func (inc *Incremental) Violations() []string { return inc.violations }

// MaxBuffer returns the peak buffer occupancy observed so far.
func (inc *Incremental) MaxBuffer() int { return inc.maxBuffer }

// MaxLink returns the peak per-edge link usage observed so far.
func (inc *Incremental) MaxLink() int { return inc.maxLink }

// Packet is a live packet in the policy engine.
type Packet struct {
	Req *grid.Request
	Idx int
	Pos grid.Vec
	// InjectedAt is the time the packet entered the network.
	InjectedAt int64
}

// Policy drives local (distributed) algorithms such as greedy and
// nearest-to-go.
type Policy interface {
	Name() string
	// Priority orders packets at a node; smaller values are served first
	// (forwarded before others, retained in buffers before others).
	Priority(p *Packet, now int64) int64
	// NextAxis picks the outgoing axis for a packet (it must satisfy
	// Pos[axis] < Dst[axis]); it is only called when Pos ≠ Dst.
	NextAxis(g *grid.Grid, p *Packet) int
}

// RunLocal executes a local policy step by step until horizon (inclusive).
// Injection is greedy: every arriving packet enters the fray and competes
// for link and buffer space under the policy's priority; losers are dropped
// (the behaviour whose competitive ratio Table 1 lower-bounds).
func RunLocal(g *grid.Grid, reqs []grid.Request, pol Policy, model Model, horizon int64) *Result {
	res := &Result{Name: pol.Name(), Outcomes: make([]Outcome, len(reqs))}

	// Arrivals grouped by time.
	arrivals := make(map[int64][]int)
	for i := range reqs {
		arrivals[reqs[i].Arrival] = append(arrivals[reqs[i].Arrival], i)
	}

	atNode := make(map[int][]*Packet)
	var moved []*Packet

	for t := int64(0); t <= horizon; t++ {
		// 1. Inject arrivals.
		for _, idx := range arrivals[t] {
			r := &reqs[idx]
			p := &Packet{Req: r, Idx: idx, Pos: r.Src.Clone(), InjectedAt: t}
			nid := g.Index(p.Pos)
			atNode[nid] = append(atNode[nid], p)
		}
		// 2-4. Per-node processing.
		moved = moved[:0]
		for nid, pkts := range atNode {
			if len(pkts) == 0 {
				continue
			}
			// Deliveries first: packets at their destination leave the
			// network and use no resources.
			keep := pkts[:0]
			for _, p := range pkts {
				if p.Pos.Eq(p.Req.Dst) {
					onTime := p.Req.Deadline == grid.InfDeadline || t <= p.Req.Deadline
					res.Outcomes[p.Idx] = Outcome{Kind: Delivered, DeliveredAt: t, OnTime: onTime}
				} else {
					keep = append(keep, p)
				}
			}
			pkts = keep

			sort.SliceStable(pkts, func(a, b int) bool {
				return pol.Priority(pkts[a], t) < pol.Priority(pkts[b], t)
			})

			// Model 2: every packet present needs a buffer slot before any
			// forwarding happens.
			if model == Model2 && len(pkts) > g.B {
				for _, p := range pkts[g.B:] {
					res.Outcomes[p.Idx] = Outcome{Kind: Dropped}
				}
				pkts = pkts[:g.B]
			}
			// Forward up to C per outgoing axis, in priority order.
			used := make([]int, g.D())
			stay := pkts[:0]
			for _, p := range pkts {
				a := pol.NextAxis(g, p)
				if a >= 0 && a < g.D() && p.Pos[a] < p.Req.Dst[a] && used[a] < g.C {
					used[a]++
					p.Pos[a]++
					moved = append(moved, p)
				} else {
					stay = append(stay, p)
				}
			}
			// Buffer retention: best B stay, rest dropped.
			if len(stay) > g.B {
				for _, p := range stay[g.B:] {
					res.Outcomes[p.Idx] = Outcome{Kind: Dropped}
				}
				stay = stay[:g.B]
			}
			if len(stay) > res.MaxBuffer {
				res.MaxBuffer = len(stay)
			}
			if len(stay) == 0 {
				delete(atNode, nid)
			} else {
				buf := make([]*Packet, len(stay))
				copy(buf, stay)
				atNode[nid] = buf
			}
		}
		// 5. Arrivals land at their new nodes for step t+1.
		for _, p := range moved {
			nid := g.Index(p.Pos)
			atNode[nid] = append(atNode[nid], p)
		}
	}

	// Anything still in flight is stuck.
	for _, pkts := range atNode {
		for _, p := range pkts {
			if res.Outcomes[p.Idx].Kind == Unserved {
				res.Outcomes[p.Idx] = Outcome{Kind: Stuck}
			}
		}
	}
	return res
}
