package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"time"

	"odh/internal/iotx"
	"odh/internal/model"
	"odh/internal/sqlexec"
	"odh/internal/sqlparse"
)

// readData is the generated content of the history/rollup store plus the
// truth every answer is checked against.
type readData struct {
	frames  []frame
	accts   []iotx.AccountRow
	custs   []iotx.CustomerRow
	sensors []iotx.SensorRow
	ldIDs   []int64
	params  iotx.QueryParams
	td, ld  streamTruth
	keys    []model.Point // record keys for the B-tree seek replay
}

// streamTruth keeps one schema's generated points column-wise, in
// timestamp order.
type streamTruth struct {
	ts     []int64
	src    []int64
	vals   [][]float64 // per tag ordinal kept (see truthTags)
	count  map[int64]int
	tagIdx map[string]int
}

// truthTags are the tags whose values the checks need, per schema.
var truthTags = [2][]string{
	{"T_TRADE_PRICE", "T_COMM", "T_TAX"},
	{"AirTemperature", "WindGust", "Pressure", "Visibility"},
}

func newStreamTruth(schema int) streamTruth {
	st := streamTruth{count: map[int64]int{}, tagIdx: map[string]int{}}
	for i, t := range truthTags[schema] {
		st.tagIdx[t] = i
	}
	st.vals = make([][]float64, len(truthTags[schema]))
	return st
}

func (st *streamTruth) add(schema int, p model.Point) {
	st.ts = append(st.ts, p.TS)
	st.src = append(st.src, p.Source)
	st.count[p.Source]++
	names := iotx.TDTagNames
	if schema == schemaLD {
		names = iotx.LDTagNames
	}
	for i, t := range truthTags[schema] {
		for j, n := range names {
			if n == t {
				st.vals[i] = append(st.vals[i], p.Values[j])
			}
		}
	}
}

// genReadData draws the store's TD and LD frames, interleaved, and the
// WS2 parameter pools.
func genReadData(sc scale, seed int64, tdPts, ldPts int) (*readData, error) {
	tdGen, ldGen := sc.generators(seed)
	rd := &readData{
		accts: tdGen.Accounts(), custs: tdGen.Customers(),
		td: newStreamTruth(schemaTD), ld: newStreamTruth(schemaLD),
	}
	if ldPts > 0 {
		rd.sensors = ldGen.Sensors()
		rd.ldIDs = ldGen.SensorIDs()
	}
	gens := [2]func() (model.Point, bool){tdGen.Next, ldGen.Next}
	left := [2]int{tdPts, ldPts}
	truth := [2]*streamTruth{&rd.td, &rd.ld}
	for left[0]+left[1] > 0 {
		for s := range gens {
			if left[s] == 0 {
				continue
			}
			f, err := nextFrame(s, gens[s], min(sc.framePts, left[s]))
			if err != nil {
				return nil, err
			}
			left[s] -= len(f.points)
			for i, p := range f.points {
				truth[s].add(s, p)
				if i%16 == 0 {
					rd.keys = append(rd.keys, p)
				}
			}
			if ldPts > 0 {
				f.points = nil // loaded from the payload; the truth keeps what checks need
			}
			rd.frames = append(rd.frames, f)
		}
	}
	tdCfg, ldCfg := tdGen.Config(), ldGen.Config()
	rd.params = iotx.QueryParams{
		Accounts:  tdCfg.Accounts(),
		TDStartTS: tdCfg.StartTS,
		TDEndTS:   rd.td.ts[len(rd.td.ts)-1],
		SensorIDs: rd.ldIDs,
		LDStartTS: ldCfg.StartTS,
		LatLo:     90, LatHi: -90, LonLo: 180, LonHi: -180,
	}
	rd.params.DOBLo, rd.params.DOBHi = math.MaxInt64, math.MinInt64
	for _, c := range rd.custs {
		rd.params.DOBLo = min(rd.params.DOBLo, c.DOB)
		rd.params.DOBHi = max(rd.params.DOBHi, c.DOB)
	}
	if len(rd.ld.ts) > 0 {
		rd.params.LDEndTS = rd.ld.ts[len(rd.ld.ts)-1]
	}
	for _, s := range rd.sensors {
		rd.params.LatLo, rd.params.LatHi = math.Min(rd.params.LatLo, s.Lat), math.Max(rd.params.LatHi, s.Lat)
		rd.params.LonLo, rd.params.LonHi = math.Min(rd.params.LonLo, s.Lon), math.Max(rd.params.LonHi, s.Lon)
	}
	return rd, nil
}

// loadStats keeps the ingest measurements of each store build.
type loadStats struct {
	builds []buildStats
}

type buildStats struct {
	ackMs  map[string][]float64 // acknowledgement latencies per schema
	points int64
	load   time.Duration // streaming the frames, FLUSHes included
	maint  time.Duration
	setup  time.Duration
}

// report sets the set-up side end-to-end metrics: medians over builds,
// except ack_mean_ms and ack_p95_ms, which pool every build's
// acknowledgements.
func (ls *loadStats) report(rep *report) {
	var setup, rate, ackMean, maint, all []float64
	for _, b := range ls.builds {
		setup = append(setup, b.setup.Seconds())
		rate = append(rate, float64(b.points)/b.load.Seconds())
		maint = append(maint, b.maint.Seconds())
		var acks []float64
		for _, xs := range b.ackMs {
			acks = append(acks, xs...)
		}
		ackMean = append(ackMean, mean(acks))
		all = append(all, acks...)
	}
	rep.set("setup_s", median(setup))
	rep.set("ingest_pts_per_s", median(rate))
	rep.set("ack_mean_ms", mean(all))
	rep.set("ack_p95_ms", quantile(all, 0.95))
	rep.set("maint_s", median(maint))
	fmt.Fprintf(os.Stderr, "setup: %d builds, %d acknowledgements\n", len(ls.builds), len(all))
	for i, b := range ls.builds {
		fmt.Fprintf(os.Stderr, "build %d: %.3f s, %.0f pts/s, ack mean %.3f ms, maintenance %.3f s\n", i, setup[i], rate[i], ackMean[i], maint[i])
		printKinds(os.Stderr, "ack", b.ackMs)
	}
}

// loadFrames streams frames over one connection, one frame in flight,
// with FLUSH every flushEvery points, and records each acknowledgement.
func loadFrames(cl *wire, frames []frame, flushEvery int, b *buildStats) error {
	start := time.Now()
	since := 0
	for _, f := range frames {
		t := time.Now()
		if err := cl.batch(f.payload, f.n); err != nil {
			return err
		}
		b.ackMs[schemaNames[f.schema]] = append(b.ackMs[schemaNames[f.schema]], msSince(t))
		b.points += int64(f.n)
		if since += f.n; since >= flushEvery {
			since = 0
			if err := cl.flush(); err != nil {
				return err
			}
		}
	}
	if err := cl.flush(); err != nil {
		return err
	}
	b.load = time.Since(start)
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// buildReadStore builds the history/rollup store through the server: DDL
// and dimension rows as SQL, operational points as BATCH frames, then one
// maintenance pass (coalesce each schema, checkpoint).
func buildReadStore(dir string, sc scale, rd *readData, ls *loadStats) (*node, *wire, error) {
	runtime.GC() // each build starts from the same heap state
	b := buildStats{ackMs: map[string][]float64{}}
	t0 := time.Now()
	n, err := openNode(dir, sc.nodeOptions())
	if err != nil {
		return nil, nil, err
	}
	cl, err := setupReadStore(n, sc, rd, &b)
	if err != nil {
		n.close()
		return nil, nil, err
	}
	b.setup = time.Since(t0)
	ls.builds = append(ls.builds, b)
	return n, cl, nil
}

func setupReadStore(n *node, sc scale, rd *readData, b *buildStats) (*wire, error) {
	if err := registerSchemas(n.h, sc, rd.ldIDs); err != nil {
		return nil, err
	}
	cl, err := dial(n.addr)
	if err != nil {
		return nil, err
	}
	stmts := relationalDDL
	if rd.ldIDs == nil {
		stmts = stmts[:6] // TD dimension tables only
	}
	for _, s := range append(stmts, relationalInserts(rd.accts, rd.custs, rd.sensors)...) {
		if _, err := cl.sql(s); err != nil {
			cl.close()
			return nil, fmt.Errorf("%.60s: %w", s, err)
		}
	}
	if err := loadFrames(cl, rd.frames, sc.flushEvery, b); err != nil {
		cl.close()
		return nil, err
	}
	t := time.Now()
	for s, name := range schemaNames {
		if s == schemaLD && rd.ldIDs == nil {
			continue
		}
		if _, _, err := n.h.Coalesce(name); err != nil {
			cl.close()
			return nil, err
		}
	}
	if err := n.h.Flush(); err != nil {
		cl.close()
		return nil, err
	}
	b.maint = time.Since(t)
	return cl, nil
}

// buildReadStores builds the store setupReps times and keeps the last
// build, the one made from rd. The earlier builds load datasets drawn
// from seeds derived from the run's: one dataset replayed five times
// would sample a single schedule of MG group flushes, so its
// acknowledgement tail would be a property of the seed, not of the build.
func buildReadStores(cfg *config, rd *readData, ls *loadStats) (*node, *wire, error) {
	reps := cfg.sc.setupReps
	if cfg.trace {
		reps = 1 // set-up time is an end-to-end metric; traced runs skip it
	}
	for i := 0; ; i++ {
		data := rd
		if i < reps-1 {
			var err error
			data, err = genReadData(cfg.sc, cfg.seed*1000+int64(i)+1, len(rd.td.ts), len(rd.ld.ts))
			if err != nil {
				return nil, nil, err
			}
		}
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("store%d", i))
		n, cl, err := buildReadStore(dir, cfg.sc, data, ls)
		if err != nil || i == reps-1 {
			return n, cl, err
		}
		cl.close()
		if err := n.close(); err != nil {
			return nil, nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
}

// readQuery is one generated read: its shape key, SQL, and the check of
// its answer against the generated truth.
type readQuery struct {
	shape string
	sql   string
	check func(r *reply) error
}

// readWorkload runs a closed loop of generated reads over one connection
// and reports it. gen draws the next query.
func readWorkload(cfg *config, rep *report, rd *readData, gen func(rng *rand.Rand) readQuery) error {
	var ls loadStats
	n, cl, err := buildReadStores(cfg, rd, &ls)
	if err != nil {
		return err
	}
	defer n.close()
	defer cl.close()
	st0 := n.h.TotalStats()
	if !cfg.trace {
		ls.report(rep)
		st := n.h.TotalStats()
		rep.set("bytes_per_pt", ratio(float64(st.StorageBytes), float64(st.PointsWritten)))
		heap := startHeapSampler()
		p := newPhase(nil)
		err := readLoop(cfg, rep, p, n, cl, gen, nil, cfg.duration())
		rep.set("heap_peak_mb", heap.finish())
		p.reportWindowed(rep)
		return err
	}
	zeroLayers(rep)
	reportWriteCounters(rep, st0)
	idx, err := newSeekIndex(rd.keys, 1, cfg.seed)
	if err != nil {
		return err
	}
	half := cfg.duration() / 2
	a := newPhase(nil)
	if err := readLoop(cfg, rep, a, n, cl, gen, nil, half); err != nil {
		return err
	}
	st1 := n.h.TotalStats()
	rep.tr = newTracer()
	b := newPhase(rep.tr)
	if err := readLoop(cfg, rep, b, n, cl, gen, idx, half); err != nil {
		return err
	}
	reportReadCounters(rep, statsDelta(st0, st1), float64(a.queries))
	a.reportRuntime(rep)
	a.reportShapes(rep)
	b.reportSamples(rep)
	rep.set("server.reply_bytes_per_query", ratio(float64(a.replyBytes), float64(a.queries)))
	rep.set("server.wire_overhead_ms", shapeGap(b.shapeMs, b.inProcMs))
	rep.overheadMs = kindMedian(b.tracedMs) - kindMedian(b.shapeMs)
	rep.set("trace.overhead_ms", rep.overheadMs)
	return nil
}

// readLoop issues queries until d elapses, then checks the answers it
// kept. In a traced phase every other query runs inside spans and is
// followed by an in-process replay of a query of its own, drawn from the
// same mix: a replay of the same SQL would find the pages and blobs the
// wire query just loaded. gen deals shapes round robin, so the untraced
// queries, the traced ones and the replays (three draws per two
// queries) each cover every shape in equal shares as long as the shape
// count is not a multiple of three.
func readLoop(cfg *config, rep *report, p *phase, n *node, cl *wire, gen func(*rand.Rand) readQuery, idx *seekIndex, d time.Duration) error {
	rng := rand.New(rand.NewSource(cfg.seed*7919 + phaseSeed(p)))
	type kept struct {
		q readQuery
		r *reply
	}
	var verify []kept
	start := p.begin()
	deadline := start.Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		q := gen(rng)
		traced := p.tracedOp(i, 1)
		var tr *tracer
		if traced {
			tr = p.tr
		}
		op := tr.newOp()
		root := tr.open("op.query", nil, op)
		ws := tr.open("server.sql", root, op)
		r, err := cl.sql(q.sql)
		wire := ws.close()
		var re *replyError
		if err != nil && !errors.As(err, &re) {
			return fmt.Errorf("%s: %w", q.shape, err)
		}
		rep.op(err)
		if err != nil {
			root.close()
			continue
		}
		ms := float64(wire.Nanoseconds()) / 1e6
		if traced {
			p.keyed(p.tracedMs, q.shape, ms)
		} else {
			p.query(q.shape, ms, r)
		}
		verify = append(verify, kept{q, r.compact()})
		if traced {
			replayQuery(rep, p, n, root, op, gen(rng))
			idx.replaySeeks(p, root, op, rep)
		}
		root.close()
	}
	p.end(start)
	for _, k := range verify {
		err := k.q.check(k.r)
		rep.check(k.q.shape, err == nil, func() string { return fmt.Sprintf("%s: %v", k.q.sql, err) })
	}
	return nil
}

// replayQuery runs q through sqlparse.Parse, Historian.Plan and an
// in-process Historian.Query, and the result's value columns through the
// codec, each in its own span.
func replayQuery(rep *report, p *phase, n *node, root *openSpan, op int64, q readQuery) {
	var perr error
	d := p.tr.timed("sqlparse.parse", root, op, func() { _, perr = sqlparse.Parse(q.sql) })
	rep.op(perr)
	p.sample("sqlparse.parse_us", float64(d.Nanoseconds())/1e3)
	var plan string
	d = p.tr.timed("sqlexec.plan", root, op, func() { plan, perr = n.h.Plan(q.sql) })
	rep.op(perr)
	p.sample("sqlexec.plan_us", float64(d.Nanoseconds())/1e3)
	est, hasEst := estDecoded(plan)
	var blobBytes int64
	var rows []sqlexec.Row
	d = p.tr.timed("sqlexec.exec", root, op, func() {
		res, err := n.h.Query(q.sql)
		if err != nil {
			perr = err
			return
		}
		rows, perr = res.FetchAll()
		blobBytes = res.BlobBytes()
	})
	rep.op(perr)
	p.sample("sqlexec.exec_ms", float64(d.Nanoseconds())/1e6)
	p.keyed(p.inProcMs, q.shape, float64(d.Nanoseconds())/1e6)
	if hasEst {
		p.sample("sqlexec.est_decoded_bytes", est)
		p.sample("sqlexec.q_error", qError(est, float64(blobBytes)))
	}
	replayCompress(rep, p, root, op, rowColumns(rows, 4096))
}

// phaseSeed gives the mixed half of a traced run its own query sequence.
func phaseSeed(p *phase) int64 {
	if p.tr != nil {
		return 1
	}
	return 0
}

var estRe = regexp.MustCompile(`est-decoded=([0-9.]+)B`)

// estDecoded extracts the planner's decoded-bytes estimate from EXPLAIN
// text; only aggregate pushdown plans print one.
func estDecoded(plan string) (float64, bool) {
	m := estRe.FindStringSubmatch(plan)
	if m == nil {
		return 0, false
	}
	v, err := strconv.ParseFloat(m[1], 64)
	return v, err == nil
}

// qError is max(est/actual, actual/est), each floored at one page so a
// fully folded query (0 bytes decoded) does not divide by zero.
func qError(est, actual float64) float64 {
	est, actual = math.Max(est, 4096), math.Max(actual, 4096)
	return math.Max(est/actual, actual/est)
}
