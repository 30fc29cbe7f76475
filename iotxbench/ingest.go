package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"odh"
	"odh/internal/model"
	"odh/internal/server"
)

// ackLog is the ingest connection's record of acknowledged points: the
// truth the dashboard and count checks compare against. It keeps only
// the newest timestamps, enough to cover the dashboard windows and the
// retention horizon, so client memory does not grow with throughput.
type ackLog struct {
	mu      sync.Mutex
	total   [2]int64   // acknowledged points per schema
	dropped [2]int64   // points removed by retention per schema
	ts      [2][]int64 // newest acknowledged timestamps, ascending
	keepMs  [2]int64
}

func (l *ackLog) add(f frame) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := f.schema
	l.total[s] += int64(len(f.points))
	for _, p := range f.points {
		l.ts[s] = append(l.ts[s], p.TS)
	}
	ts := l.ts[s]
	if i := lowerBound(ts, ts[len(ts)-1]-l.keepMs[s]); i > len(ts)/2 {
		l.ts[s] = append([]int64(nil), ts[i:]...)
	}
}

// window returns the newest acknowledged timestamp of a schema and the
// number of acknowledged points within [hi-span, hi].
func (l *ackLog) window(s int, span int64) (hi int64, n int, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ts := l.ts[s]
	if len(ts) == 0 {
		return 0, 0, false
	}
	hi = ts[len(ts)-1]
	return hi, countRange(ts, hi-span, hi), true
}

// live returns the points of a schema that should be stored.
func (l *ackLog) live(s int) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total[s] - l.dropped[s]
}

// ingestRun is the state of one ingest workload run.
type ingestRun struct {
	cfg    *config
	rep    *report
	n      *node
	shadow *odh.Historian // traced runs: in-process replay target
	idx    *seekIndex
	ingest *wire
	dash   *wire
	log    *ackLog
	frames chan frame
	genErr error // why the frame generator stopped; set before frames closes

	// turn serializes the two connections: the ingest connection holds it
	// for each frame, FLUSH and maintenance cycle, the dashboard for each
	// query. Reads run between writes, never beside them: on the seed
	// code a scan beside a BATCH apply can miss acknowledged points or
	// fail with a corrupt-node error.
	turn     sync.Mutex
	maintDue int64
	cycles   int
	maintDur time.Duration
	maintMs  map[string][]float64
	reclaim  int64
	flushMs  []float64
	// bytesPerPt is measured after the last maintenance cycle, a fixed
	// point of the stream, so it does not depend on the run's throughput.
	bytesPerPt float64
}

// measureBytes checkpoints the store and records page-store bytes per
// live point.
func (r *ingestRun) measureBytes() error {
	if err := r.n.h.Flush(); err != nil {
		return err
	}
	st := r.n.h.TotalStats()
	r.bytesPerPt = ratio(float64(st.StorageBytes), float64(r.log.live(schemaTD)+r.log.live(schemaLD)))
	return nil
}

func runIngest(cfg *config, rep *report) error {
	sc := cfg.sc
	tdGen, ldGen := sc.generators(cfg.seed)
	gens := [2]func() (model.Point, bool){tdGen.Next, ldGen.Next}
	ldIDs := ldGen.SensorIDs()
	var preload []frame
	for pts := 0; pts < sc.ingestPreload; {
		f, err := nextFrame(pts/sc.framePts%2, gens[pts/sc.framePts%2], sc.framePts)
		if err != nil {
			return err
		}
		preload = append(preload, f)
		pts += len(f.points)
	}
	r := &ingestRun{
		cfg: cfg, rep: rep, maintMs: map[string][]float64{},
		maintDue: int64(sc.ingestPreload + sc.maintEvery),
	}
	reps := sc.setupReps
	if cfg.trace {
		reps = 1
	}
	var setup []float64
	for i := 0; i < reps; i++ {
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("store%d", i))
		if r.n != nil {
			if err := r.closeStore(); err != nil {
				return err
			}
			if err := os.RemoveAll(filepath.Join(cfg.workDir, fmt.Sprintf("store%d", i-1))); err != nil {
				return err
			}
		}
		runtime.GC() // each build starts from the same heap state
		t := time.Now()
		if err := r.openStore(dir, ldIDs, preload); err != nil {
			if r.n != nil {
				r.closeStore()
			}
			return err
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	defer r.closeStore()

	ctx, cancel := context.WithCancel(context.Background())
	r.frames = make(chan frame, 4) // a few frames ahead of the sender
	var prod sync.WaitGroup
	prod.Add(1)
	go func() {
		defer prod.Done()
		defer close(r.frames)
		for i := len(preload); ; i++ {
			f, err := nextFrame(i%2, gens[i%2], sc.framePts)
			if err != nil {
				r.genErr = err // read by send after the close below
				return
			}
			select {
			case r.frames <- f:
			case <-ctx.Done():
				return
			}
		}
	}()
	defer func() {
		cancel()
		for range r.frames {
		}
		prod.Wait()
	}()

	if !cfg.trace {
		rep.set("setup_s", median(setup))
		heap := startHeapSampler()
		p := newPhase(nil)
		err := r.phase(p, cfg.duration())
		rep.set("heap_peak_mb", heap.finish())
		if err != nil {
			return err
		}
		active := p.elapsed - r.maintDur
		rep.set("ingest_pts_per_s", float64(p.ackedPts)/active.Seconds())
		rep.set("ack_mean_ms", mean(p.ackMs))
		rep.set("ack_p95_ms", quantile(p.ackMs, 0.95))
		p.reportQueries(rep, active)
		rep.set("maint_s", r.maintDur.Seconds())
		fmt.Fprintf(os.Stderr, "ingest: %d acks, %d dashboard queries, %d maintenance cycles\n", len(p.ackMs), len(p.queryMs), r.cycles)
		printKinds(os.Stderr, "ack", p.ackKind)
		if r.bytesPerPt == 0 { // the stream never reached the last cycle
			if err := r.measureBytes(); err != nil {
				return err
			}
		}
		rep.set("bytes_per_pt", r.bytesPerPt)
		return r.finalCheck()
	}

	zeroLayers(rep)
	shadow, err := odh.Open("", odh.Options{BatchSize: sc.batchSize, PoolPages: 16384, QueryWorkers: sc.queryWorkers})
	if err != nil {
		return err
	}
	defer shadow.Close()
	if err := registerSchemas(shadow, sc, ldIDs); err != nil {
		return err
	}
	r.shadow = shadow
	var keys []model.Point
	for _, f := range preload {
		keys = append(keys, f.points...)
	}
	if r.idx, err = newSeekIndex(keys, 4, cfg.seed); err != nil {
		return err
	}
	half := cfg.duration() / 2
	st0, sv0 := r.n.h.TotalStats(), r.n.srv.Stats()
	a := newPhase(nil)
	if err := r.phase(a, half); err != nil {
		return err
	}
	st1 := r.n.h.TotalStats()
	rep.tr = newTracer()
	b := newPhase(rep.tr)
	if err := r.phase(b, half); err != nil {
		return err
	}
	d := statsDelta(st0, st1)
	reportWriteCounters(rep, d)
	reportReadCounters(rep, d, float64(a.queries))
	a.reportRuntime(rep)
	b.reportSamples(rep)
	rep.set("server.batches_shed", float64(r.n.srv.Stats().BatchesShed-sv0.BatchesShed))
	rep.set("server.reply_bytes_per_query", ratio(float64(a.replyBytes), float64(a.queries)))
	rep.set("tsstore.flush_ms", median(r.flushMs))
	rep.set("tsstore.coalesce_ms", median(r.maintMs["coalesce"]))
	rep.set("tsstore.tier_ms", median(r.maintMs["tier"]))
	rep.set("tsstore.retention_ms", median(r.maintMs["retention"]))
	rep.set("tsstore.tier_bytes_reclaimed", float64(r.reclaim))
	rep.overheadMs = mean(b.tracedAckMs) - mean(b.ackMs)
	rep.set("trace.overhead_ms", rep.overheadMs)
	return r.finalCheck()
}

// openStore builds the ingest store: a directory store with the recovery
// log, the two schemas, both connections, and the preloaded history.
func (r *ingestRun) openStore(dir string, ldIDs []int64, preload []frame) error {
	sc := r.cfg.sc
	opts := sc.nodeOptions()
	opts.PoolPages, opts.BlobCacheBytes = sc.ingestPoolPages, sc.ingestBlobCache
	n, err := openNode(dir, opts)
	if err != nil {
		return err
	}
	r.n = n
	r.log = &ackLog{keepMs: [2]int64{
		max(sc.tdPolicy.retainMs, sc.dashWindowMs[0]) + 60_000,
		max(sc.ldPolicy.retainMs, sc.dashWindowMs[1]) + 600_000,
	}}
	if err := registerSchemas(n.h, sc, ldIDs); err != nil {
		return err
	}
	if r.ingest, err = dial(n.addr); err != nil {
		return err
	}
	if r.dash, err = dial(n.addr); err != nil {
		return err
	}
	for _, f := range preload {
		if err := r.ingest.batch(f.payload, len(f.points)); err != nil {
			return err
		}
		r.log.add(f)
	}
	return r.ingest.flush()
}

func (r *ingestRun) closeStore() error {
	if r.ingest != nil {
		r.ingest.close()
	}
	if r.dash != nil {
		r.dash.close()
	}
	err := r.n.close()
	r.n, r.ingest, r.dash = nil, nil, nil
	return err
}

// phase runs the ingest connection and the dashboard for d.
func (r *ingestRun) phase(p *phase, d time.Duration) error {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var dashErr error
	start := p.begin()
	wg.Add(1)
	go func() {
		defer wg.Done()
		dashErr = r.dashboard(p, stop)
	}()
	err := r.send(p, start.Add(d))
	close(stop)
	wg.Wait()
	p.end(start)
	return errors.Join(err, dashErr)
}

// send streams frames, one in flight, until the deadline: FLUSH every
// flushEvery points and a maintenance cycle every maintEvery points. In a
// traced phase every other pair of frames (one TD, one LD) runs inside
// spans and is replayed, so traced and untraced frames share one stretch
// of time and one frame mix.
func (r *ingestRun) send(p *phase, deadline time.Time) error {
	sc := r.cfg.sc
	since := 0
	for i := 0; time.Now().Before(deadline); i++ {
		f, ok := <-r.frames
		if !ok {
			return fmt.Errorf("frame generator stopped: %w", r.genErr)
		}
		traced := p.tracedOp(i, 2)
		var tr *tracer
		if traced {
			tr = p.tr
		}
		op := tr.newOp()
		root := tr.open("op.ingest", nil, op)
		r.turn.Lock()
		ws := tr.open("server.batch", root, op)
		err := r.ingest.batch(f.payload, f.n)
		ack := ws.close()
		r.turn.Unlock()
		r.rep.op(err)
		var re *replyError
		if err != nil && !errors.As(err, &re) {
			return err
		}
		if err == nil {
			r.log.add(f)
			ms := float64(ack.Nanoseconds()) / 1e6
			if traced {
				p.tracedAck(ms)
			} else {
				p.ack(schemaNames[f.schema], ms, f.n)
			}
		}
		if traced {
			r.replayFrame(p, root, op, f, ack)
		}
		root.close()
		if since += len(f.points); since >= sc.flushEvery {
			since = 0
			r.turn.Lock()
			fs := p.tr.open("tsstore.flush", nil, p.tr.newOp())
			err := r.ingest.flush()
			r.flushMs = append(r.flushMs, float64(fs.close().Nanoseconds())/1e6)
			r.turn.Unlock()
			r.rep.op(err)
			if err != nil && !errors.As(err, &re) {
				return err
			}
		}
		if r.cycles < sc.maintCycles && r.log.acked() >= r.maintDue {
			r.maintDue += int64(sc.maintEvery)
			if err := r.maintain(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// acked returns the points acknowledged over both schemas.
func (l *ackLog) acked() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total[0] + l.total[1]
}

// replayFrame times the frame through server.DecodeBatchFrame, an
// in-process write into the shadow store (the tsstore write path), the
// codec and the B-tree. The shadow store shares no pages or caches with
// the served one, so the frame's own replay is not warmed by its send.
func (r *ingestRun) replayFrame(p *phase, root *openSpan, op int64, f frame, ack time.Duration) {
	var pts []model.Point
	var err error
	dec := p.tr.timed("server.decode", root, op, func() { pts, err = server.DecodeBatchFrame(f.payload) })
	r.rep.op(err)
	p.sample("server.frame_decode_us", float64(dec.Nanoseconds())/1e3)
	w := p.tr.timed("tsstore.write", root, op, func() { err = r.shadow.Writer().WriteBatchParallel(pts) })
	r.rep.op(err)
	p.sample("tsstore.write_us_per_frame", float64(w.Nanoseconds())/1e3)
	p.sample("server.wire_overhead_ms", float64((ack-dec-w).Nanoseconds())/1e6)
	replayCompress(r.rep, p, root, op, pointColumns(f.points))
	r.idx.replaySeeks(p, root, op, r.rep)
}

// maintain runs one maintenance cycle with the dashboard paused: per
// schema, Coalesce, a tier pass with cold and stub cutoffs, and
// retention. Counts before and after check that no acknowledged point
// went missing and that retention kept everything inside its horizon.
func (r *ingestRun) maintain(p *phase) error {
	r.turn.Lock()
	defer r.turn.Unlock()
	h := r.n.h
	r.cycles++
	for s, name := range schemaNames {
		pol := r.cfg.sc.tdPolicy
		if s == schemaLD {
			pol = r.cfg.sc.ldPolicy
		}
		latest, _, _ := r.log.window(s, 0)
		before, err := countRows(h, s)
		r.rep.op(err)
		if err != nil {
			return err
		}
		want := r.log.live(s)
		r.rep.check("count_before_maintenance", before == want, func() string {
			return fmt.Sprintf("%s holds %d points, %d acknowledged and not dropped", name, before, want)
		})
		op := p.tr.newOp()
		var res odh.TierResult
		steps := []struct {
			key string
			fn  func() error
		}{
			{"coalesce", func() error { _, _, err := h.Coalesce(name); return err }},
			{"tier", func() error {
				var err error
				res, err = h.TierSchema(name, odh.TierPolicy{ColdAfterMs: pol.coldAfterMs, StubAfterMs: pol.stubAfterMs}, latest)
				return err
			}},
			{"retention", func() error { _, err := h.DropBefore(name, latest-pol.retainMs); return err }},
		}
		for _, st := range steps {
			var err error
			d := p.tr.timed("tsstore."+st.key, nil, op, func() { err = st.fn() })
			r.rep.op(err)
			if err != nil {
				return fmt.Errorf("%s %s: %w", st.key, name, err)
			}
			r.maintDur += d
			r.maintMs[st.key] = append(r.maintMs[st.key], float64(d.Nanoseconds())/1e6)
		}
		r.reclaim += res.BytesReclaimed
		after, err := countRows(h, s)
		r.rep.op(err)
		if err != nil {
			return err
		}
		_, keep, _ := r.log.window(s, pol.retainMs)
		r.rep.check("retention_keeps_horizon", after >= int64(keep) && after <= before, func() string {
			return fmt.Sprintf("%s: %d points after retention, %d before, %d inside the horizon", name, after, before, keep)
		})
		r.log.mu.Lock()
		r.log.dropped[s] += before - after
		r.log.mu.Unlock()
	}
	if r.cycles == r.cfg.sc.maintCycles {
		return r.measureBytes()
	}
	return nil
}

// countRows counts a schema's stored points in process.
func countRows(h *odh.Historian, s int) (int64, error) {
	sql := "SELECT COUNT(*) FROM " + tableNames[s]
	res, err := h.Query(sql)
	if err != nil {
		return 0, err
	}
	rows, err := res.FetchAll()
	if err != nil {
		return 0, err
	}
	if len(rows) != 1 || len(rows[0]) != 1 {
		return 0, fmt.Errorf("%s: %d rows", sql, len(rows))
	}
	return rows[0][0].I, nil
}

// finalCheck compares each schema's stored count with the points
// acknowledged minus the points retention dropped.
func (r *ingestRun) finalCheck() error {
	for s, name := range schemaNames {
		got, err := countRows(r.n.h, s)
		r.rep.op(err)
		if err != nil {
			return err
		}
		want := r.log.live(s)
		r.rep.check("count_matches_acks", got == want, func() string {
			return fmt.Sprintf("%s holds %d points, want %d", name, got, want)
		})
	}
	return nil
}

// dashboardQueries are the live dashboard's reads over the newest data:
// a minute (TD) or ten-minute (LD) roll-up and a recent slice, per schema.
type dashQuery struct {
	name   string
	schema int
	span   int64 // window length, ms
	sql    func(lo, hi int64) string
}

var dashboardQueries = []dashQuery{
	{"trade_rollup", schemaTD, 0, func(lo, hi int64) string {
		return fmt.Sprintf("SELECT TIME_BUCKET(60000, T_DTS), COUNT(*), AVG(T_TRADE_PRICE) FROM TRADE WHERE T_DTS BETWEEN %d AND %d GROUP BY TIME_BUCKET(60000, T_DTS)", lo, hi)
	}},
	{"trade_slice", schemaTD, 1_000, func(lo, hi int64) string {
		return fmt.Sprintf("SELECT * FROM TRADE WHERE T_DTS BETWEEN %d AND %d", lo, hi)
	}},
	{"observation_rollup", schemaLD, 0, func(lo, hi int64) string {
		return fmt.Sprintf("SELECT TIME_BUCKET(600000, Timestamp), COUNT(*), AVG(AirTemperature) FROM Observation WHERE Timestamp BETWEEN %d AND %d GROUP BY TIME_BUCKET(600000, Timestamp)", lo, hi)
	}},
	{"observation_slice", schemaLD, 10_000, func(lo, hi int64) string {
		return fmt.Sprintf("SELECT Timestamp, SensorId, AirTemperature FROM Observation WHERE Timestamp BETWEEN %d AND %d", lo, hi)
	}},
}

// dashboard runs the live-dashboard loop until stop closes. Each answer
// must count at least the points acknowledged in its window before the
// query was sent.
func (r *ingestRun) dashboard(p *phase, stop chan struct{}) error {
	for i := 0; ; i++ {
		select {
		case <-stop:
			return nil
		case <-time.After(r.cfg.sc.dashThink):
		}
		q := dashboardQueries[i%len(dashboardQueries)]
		span := q.span
		if span == 0 {
			span = r.cfg.sc.dashWindowMs[q.schema]
		}
		if err := r.dashQuery(p, q, span); err != nil {
			return err
		}
	}
}

func (r *ingestRun) dashQuery(p *phase, q dashQuery, span int64) error {
	r.turn.Lock()
	defer r.turn.Unlock()
	hi, acked, ok := r.log.window(q.schema, span)
	if !ok {
		return nil
	}
	sql := q.sql(hi-span, hi)
	shape := "dashboard." + q.name
	op := p.tr.newOp()
	root := p.tr.open("op.query", nil, op)
	defer root.close()
	ws := p.tr.open("server.sql", root, op)
	rp, err := r.dash.sql(sql)
	wire := ws.close()
	r.rep.op(err)
	var re *replyError
	if err != nil {
		if errors.As(err, &re) {
			return nil
		}
		return err
	}
	p.query(shape, float64(wire.Nanoseconds())/1e6, rp)
	got := rp.nrows
	if c := rp.column("COUNT(*)"); c >= 0 {
		got = 0
		for _, row := range rp.rows {
			v := parseFloats(row)
			got += int(v[c])
		}
	}
	r.rep.check("dashboard_sees_acked", got >= acked, func() string {
		return fmt.Sprintf("%s: %d points, %d acknowledged before the query", sql, got, acked)
	})
	if p.tr != nil {
		replayQuery(r.rep, p, r.n, root, op, readQuery{shape: shape, sql: sql})
	}
	return nil
}
