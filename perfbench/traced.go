package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"time"

	"gridroute/internal/detroute"
	"gridroute/internal/engine"
	"gridroute/internal/engine/wal"
	"gridroute/internal/grid"
	"gridroute/internal/ipp"
	"gridroute/internal/lattice"
	"gridroute/internal/sketch"
	"gridroute/internal/spacetime"
	"gridroute/internal/tiling"
)

// Span names. A name's module is its prefix before the dot; "setup",
// "stream", "admit" and "drain" are the benchmark's own wrapper spans, whose
// self time is the part of a phase no layer span explains.
const (
	spSetup uint8 = iota
	spSpacetimeNew
	spTilingNew
	spSketchNew
	spIPPNew
	spWALCreate
	spStream
	spAdmit
	spGeometry
	spQuery
	spOffer
	spWALAppend
	spWALSync
	spDrain
	spDetroute
	spSchedule
	spVerify
	spAdd
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spSetup: "setup", spSpacetimeNew: "spacetime.new", spTilingNew: "tiling.new",
	spSketchNew: "sketch.new", spIPPNew: "ipp.new", spWALCreate: "wal.create",
	spStream: "stream", spAdmit: "admit",
	spGeometry: "spacetime.geometry", spQuery: "sketch.query", spOffer: "ipp.offer",
	spWALAppend: "wal.append", spWALSync: "wal.sync",
	spDrain: "drain", spDetroute: "detroute.run", spSchedule: "spacetime.schedule",
	spVerify: "netsim.verify", spAdd: "netsim.add",
}

// span is one timed call into a layer: times are ns since the recorder's
// epoch, parent indexes the recorder's span slice (-1 for a phase root), and
// req is the packet seq the call served (-1 for calls serving no packet).
type span struct {
	start, end int64
	parent     int32
	req        int32
	name       uint8
}

// recorder keeps spans in memory; they are written out once, at exit. A nil
// recorder records nothing.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(hint int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, hint)}
}

func (r *recorder) begin(name uint8, parent int32, req int) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, parent: parent, req: int32(req), start: int64(time.Since(r.epoch))})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(id int32) {
	if r != nil {
		r.spans[id].end = int64(time.Since(r.epoch))
	}
}

func (r *recorder) duration(id int32) int64 { return r.spans[id].end - r.spans[id].start }

// selfTimes returns each span's duration minus the time its children cover.
func (r *recorder) selfTimes() []int64 {
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// write dumps the spans as JSON lines (name, start/end ns, parent, req,
// self ns).
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	self := r.selfTimes()
	for i, s := range r.spans {
		fmt.Fprintf(bw, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"req":%d,"self_ns":%d}`+"\n",
			i, spanNames[s.name], s.start, s.end, s.parent, s.req, self[i])
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mirror is the outcome of the traced run: the stack the engine builds,
// driven call by call from here, with every call in a span.
type mirror struct {
	rec *recorder

	decisions  []engine.Decision
	outcomes   []detroute.Outcome
	routeStats detroute.Stats
	throughput int
	maxLoad    float64
	loadBound  float64
	primal     float64

	offers, accepted int
	windows          []int // DP window size in tiles, per routed query
	walBytes         int64
	violations       []string
	stream, drain    int32 // phase root span ids
}

// runTraced rebuilds the engine's routing stack from the layers' public
// constructors and replays the engine's decide order over it: ToLattice and
// DestRay, Session.LightestRouteInto, Packer.Offer and wal.Writer.Append per
// packet, then detroute.Router.Run, PathToSchedule and
// netsim.Incremental.Add. It mirrors engine.decide for the options
// engineOptions sets (no faults, no shedding, no speculation).
func runTraced(w workload, inst *instance, walPath string) (*mirror, error) {
	g, n := inst.g, len(inst.reqs)
	m := &mirror{rec: newRecorder(8*n + 64)}
	rec := m.rec
	d := g.D()

	root := rec.begin(spSetup, -1, -1)
	sp := rec.begin(spSpacetimeNew, root, -1)
	st := spacetime.New(g, inst.horizon)
	rec.end(sp)
	k := ipp.K(inst.pmax)
	side, phase := make([]int, d+1), make([]int, d+1)
	for i := range side {
		side[i] = k
	}
	sp = rec.begin(spTilingNew, root, -1)
	tl := tiling.New(st.Box, side, phase)
	rec.end(sp)
	sp = rec.begin(spSketchNew, root, -1)
	sk := sketch.New(st, tl, sketch.Downscaled)
	sess := sk.NewSession()
	rec.end(sp)
	sp = rec.begin(spIPPNew, root, -1)
	pk := ipp.NewDense(2*inst.pmax+1, sk.Cap, sk.Universe())
	rec.end(sp)
	var pool *lattice.Pool
	if n := w.dpWorkers(); n > 1 {
		pool = lattice.NewPool(n)
		defer pool.Close()
		sess.SetDPPool(pool)
	}
	var ww *wal.Writer
	if walPath != "" {
		sp = rec.begin(spWALCreate, root, -1)
		// Sync batches are issued from here (below) so that append and
		// fsync get spans of their own; the writer itself never syncs.
		var err error
		ww, err = wal.Create(walPath, wal.Params{
			Dims: append([]int(nil), g.Dims...), B: g.B, C: g.C,
			Horizon: inst.horizon, PMax: inst.pmax, TileSide: k,
		}, math.MaxInt)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
	}
	rec.end(root)

	var (
		watermark int64 = math.MinInt64
		srcBuf          = make([]int, d+1)
		route     sketch.Route
		walRec    wal.Record
		admitted  = make([]detroute.Admitted, 0, n)
		unsynced  int
	)
	m.decisions = make([]engine.Decision, 0, n)
	m.windows = make([]int, 0, n)
	m.stream = rec.begin(spStream, -1, -1)
	for i := range inst.reqs {
		r := &inst.reqs[i]
		adm := rec.begin(spAdmit, m.stream, r.ID)
		dec := engine.Decision{Seq: r.ID}
		if r.Arrival < watermark || !r.Feasible(g) {
			dec.Verdict = engine.RejectedInvalid
		} else {
			watermark = r.Arrival
			sp := rec.begin(spGeometry, adm, r.ID)
			src := st.ToLattice(r.Src, r.Arrival, srcBuf)
			wLo, wHi := st.DestRay(r)
			if g.B == 0 {
				wLo, wHi = src[d], src[d]
			}
			rec.end(sp)
			sp = rec.begin(spQuery, adm, r.ID)
			ok := sess.LightestRouteInto(pk, src, r.Dst, wLo, wHi, inst.pmax, &route)
			rec.end(sp)
			m.offers++
			if !ok {
				sp = rec.begin(spOffer, adm, r.ID)
				pk.Offer(nil, 0)
				rec.end(sp)
				dec.Verdict = engine.RejectedNoRoute
			} else {
				lo, hi := sess.Window()
				tiles := 1
				for a := range lo {
					tiles *= hi[a] - lo[a]
				}
				m.windows = append(m.windows, tiles)
				dec.Cost, dec.Tiles = route.Cost, route.NumTiles()
				sp = rec.begin(spOffer, adm, r.ID)
				acc := pk.Offer(route.Edges, route.Cost)
				rec.end(sp)
				if acc {
					dec.Verdict = engine.Accepted
					m.accepted++
					admitted = append(admitted, retain(r, &route))
				} else {
					dec.Verdict = engine.RejectedCost
				}
			}
		}
		if ww != nil {
			fillWALRecord(&walRec, r, dec, admitted)
			sp := rec.begin(spWALAppend, adm, r.ID)
			err := ww.Append(&walRec)
			rec.end(sp)
			if err != nil {
				return nil, err
			}
			if unsynced++; unsynced == wal.DefaultSyncEvery {
				unsynced = 0
				sp = rec.begin(spWALSync, adm, r.ID)
				err = ww.Sync()
				rec.end(sp)
				if err != nil {
					return nil, err
				}
			}
		}
		rec.end(adm)
		m.decisions = append(m.decisions, dec)
	}
	rec.end(m.stream)
	pool.Close()
	m.maxLoad, m.loadBound, m.primal = pk.MaxLoad(), pk.LoadBound(), pk.PrimalValue()

	m.drain = rec.begin(spDrain, -1, -1)
	if ww != nil {
		sp := rec.begin(spWALSync, m.drain, -1)
		err := ww.Close()
		rec.end(sp)
		if err != nil {
			return nil, err
		}
	}
	sp = rec.begin(spDetroute, m.drain, -1)
	m.outcomes, m.routeStats = detroute.New(st, sk).Run(admitted)
	rec.end(sp)
	schedules := make([]*spacetime.Schedule, len(admitted))
	for j := range m.outcomes {
		if o := &m.outcomes[j]; o.Delivered && o.OnTime {
			sp := rec.begin(spSchedule, m.drain, admitted[j].Req.ID)
			schedules[j] = st.PathToSchedule(admitted[j].Req, o.Path)
			rec.end(sp)
			m.throughput++
		}
	}
	ver := rec.begin(spVerify, m.drain, -1)
	m.violations, _ = replay(g, admitted, schedules, rec, ver)
	rec.end(ver)
	rec.end(m.drain)
	if ww != nil {
		fi, err := os.Stat(walPath)
		if err != nil {
			return nil, err
		}
		m.walBytes = fi.Size()
	}
	return m, nil
}

// retain copies an accepted request and its route out of the reused query
// scratch, as the engine's arena does.
func retain(r *grid.Request, rt *sketch.Route) detroute.Admitted {
	req := *r
	req.Src = append(grid.Vec(nil), r.Src...)
	req.Dst = append(grid.Vec(nil), r.Dst...)
	ro := &sketch.Route{
		Tiles: append([]int(nil), rt.Tiles...),
		Axes:  append([]uint8(nil), rt.Axes...),
		Edges: append([]ipp.EdgeID(nil), rt.Edges...),
		Cost:  rt.Cost,
	}
	return detroute.Admitted{Req: &req, Route: ro}
}

// fillWALRecord builds the journal record the engine writes for a decision.
func fillWALRecord(rec *wal.Record, r *grid.Request, d engine.Decision, admitted []detroute.Admitted) {
	rec.Seq = r.ID
	rec.Verdict = uint8(d.Verdict)
	rec.Arrival = r.Arrival
	rec.Cost = d.Cost
	rec.Tiles = d.Tiles
	rec.HasRoute = d.Verdict == engine.Accepted
	if rec.HasRoute {
		last := admitted[len(admitted)-1].Route
		rec.Deadline = r.Deadline
		rec.Src = append(rec.Src[:0], r.Src...)
		rec.Dst = append(rec.Dst[:0], r.Dst...)
		rec.StartTile = last.Tiles[0]
		rec.Axes = append(rec.Axes[:0], last.Axes...)
	}
}
