package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"odh"
	"odh/internal/cluster"
	"odh/internal/iotx"
	"odh/internal/pagestore"
	"odh/internal/sqlexec"
	"odh/internal/sqlparse"
)

// openCluster builds the in-process cluster with internal/cluster's
// NewReplicated, the constructor odh.OpenCluster wraps with these same
// options; the benchmark needs the inner type for Node(i).
func (sc scale) openCluster() (*cluster.Cluster, error) {
	return cluster.NewReplicated(cluster.Options{
		Nodes: sc.clusterNodes, Replicas: sc.clusterReplicas,
		Node: cluster.NodeOptions{BatchSize: sc.batchSize, PoolPages: sc.poolPages},
	})
}

// verifyCluster runs the two passes of odh.Cluster.VerifyCluster: every
// copy's pages and blobs, then the cross-replica comparison per shard.
func verifyCluster(c *cluster.Cluster) error {
	_, problems, err := c.VerifyCopies()
	if err == nil && len(problems) > 0 {
		err = fmt.Errorf("cluster verification: %v", problems)
	}
	if err != nil {
		return err
	}
	divergent, _, err := c.VerifyReplicas()
	if err == nil && len(divergent) > 0 {
		err = fmt.Errorf("cluster verification: divergent shards %v", divergent)
	}
	return err
}

// loadCluster registers the TD schema and writes every point through the
// quorum write path, which returns once a quorum of copies applied it;
// each run of writeAckPoints writes is one timed ack. Its maintenance is
// a checkpoint and a verification of every replica.
func loadCluster(c *cluster.Cluster, sc scale, rd *readData, b *buildStats) error {
	if err := c.CreateSchema(iotx.TDSchema()); err != nil {
		return err
	}
	if err := c.CreateVirtualTable(tableNames[schemaTD], schemaNames[schemaTD]); err != nil {
		return err
	}
	// The cluster's first schema gets id 1 on every replica, as on a
	// single node.
	for _, a := range rd.accts {
		if err := c.RegisterSource(odh.DataSource{ID: a.CAID, SchemaID: 1, IntervalMs: int64(1000 / sc.tdHz)}); err != nil {
			return err
		}
	}
	start := time.Now()
	for _, f := range rd.frames {
		for i := 0; i < len(f.points); i += writeAckPoints {
			t := time.Now()
			for _, p := range f.points[i:min(i+writeAckPoints, len(f.points))] {
				if err := c.Write(p); err != nil {
					return err
				}
			}
			b.ackMs["trade"] = append(b.ackMs["trade"], msSince(t))
		}
		b.points += int64(f.n)
	}
	b.load = time.Since(start)
	t := time.Now()
	if err := c.Flush(); err != nil {
		return err
	}
	if err := verifyCluster(c); err != nil {
		return err
	}
	b.maint = time.Since(t)
	return nil
}

// writeAckPoints is how many quorum writes one scatter acknowledgement
// covers: enough that timer noise does not dominate, few enough that a
// build yields hundreds of samples.
const writeAckPoints = 100

func runScatter(cfg *config, rep *report) error {
	sc := cfg.sc
	rd, err := genReadData(sc, cfg.seed, sc.scatterTDPoints, 0)
	if err != nil {
		return err
	}
	ref, err := odh.Open("", odh.Options{BatchSize: sc.batchSize, PoolPages: 16384})
	if err != nil {
		return err
	}
	defer ref.Close()
	if err := registerSchemas(ref, sc, nil); err != nil {
		return err
	}
	for _, f := range rd.frames {
		if err := ref.Writer().WriteBatch(f.points); err != nil {
			return err
		}
	}
	if err := ref.Flush(); err != nil {
		return err
	}

	var ls loadStats
	reps := sc.setupReps
	if cfg.trace {
		reps = 1
	}
	var c *cluster.Cluster
	for i := 0; i < reps; i++ {
		if c != nil {
			if err := c.Close(); err != nil {
				return err
			}
		}
		runtime.GC() // each build starts from the same heap state
		b := buildStats{ackMs: map[string][]float64{}}
		t := time.Now()
		c, err = sc.openCluster()
		if err != nil {
			return err
		}
		if err := loadCluster(c, sc, rd, &b); err != nil {
			c.Close()
			return err
		}
		b.setup = time.Since(t)
		ls.builds = append(ls.builds, b)
	}
	defer c.Close()

	s := &scatterRun{cfg: cfg, rep: rep, rd: rd, c: c, ref: ref}
	if !cfg.trace {
		ls.report(rep)
		ts := c.TotalTSStats()
		rep.set("bytes_per_pt", ratio(float64(ts.BlobBytes), float64(ts.PointsWritten)))
		heap := startHeapSampler()
		p := newPhase(nil)
		err := s.loop(p, cfg.duration())
		rep.set("heap_peak_mb", heap.finish())
		p.reportWindowed(rep)
		return err
	}
	zeroLayers(rep)
	if s.idx, err = newSeekIndex(rd.keys, 1, cfg.seed); err != nil {
		return err
	}
	half := cfg.duration() / 2
	ts0, pg0, cs0 := s.c.TotalTSStats(), s.primaryPages(), c.Stats()
	a := newPhase(nil)
	if err := s.loop(a, half); err != nil {
		return err
	}
	ts1, pg1 := s.c.TotalTSStats(), s.primaryPages()
	rep.tr = newTracer()
	b := newPhase(rep.tr)
	if err := s.loop(b, half); err != nil {
		return err
	}
	q := float64(a.queries)
	rep.set("tsstore.summary_hits_per_query", ratio(float64(ts1.SummaryHits-ts0.SummaryHits), q))
	rep.set("tsstore.subbucket_folds_per_query", ratio(float64(ts1.SubBucketFolds-ts0.SubBucketFolds), q))
	rep.set("tsstore.bytes_not_decoded_per_query", ratio(float64(ts1.BytesNotDecoded-ts0.BytesNotDecoded+ts1.SubBucketBytesNotDecoded-ts0.SubBucketBytesNotDecoded), q))
	rep.set("tsstore.parallel_parts_per_query", ratio(float64(ts1.ParallelParts-ts0.ParallelParts), q))
	rep.set("compress.blob_bytes_per_pt", ratio(float64(ts0.BlobBytes), float64(ts0.PointsWritten)))
	rep.set("pagestore.pool_hit_rate", ratio(float64(pg1.Hits-pg0.Hits), float64(pg1.Hits-pg0.Hits+pg1.Misses-pg0.Misses)))
	rep.set("pagestore.bytes_read_per_query", ratio(float64(pg1.BytesRead-pg0.BytesRead), q))
	rep.set("pagestore.evictions_per_query", ratio(float64(pg1.Evictions-pg0.Evictions), q))
	cs1 := c.Stats()
	rep.set("cluster.retries", float64(cs1.Failovers-cs0.Failovers+cs1.Backoffs-cs0.Backoffs))
	a.reportRuntime(rep)
	b.reportSamples(rep)
	rep.set("cluster.gather_ms", shapeGap(b.shapeMs, b.inProcMs))
	rep.overheadMs = kindMedian(b.tracedMs) - kindMedian(b.shapeMs)
	rep.set("trace.overhead_ms", rep.overheadMs)
	return nil
}

type scatterRun struct {
	cfg *config
	rep *report
	rd  *readData
	c   *cluster.Cluster
	ref *odh.Historian // single-node reference holding the same points
	idx *seekIndex
}

// primaryPages sums the buffer-pool counters of each shard's first copy,
// the copy that answers its reads while every node is up.
func (s *scatterRun) primaryPages() pagestore.Stats {
	var out pagestore.Stats
	for i := 0; i < s.c.Nodes(); i++ {
		st := s.c.Node(i).Page.Stats()
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Evictions += st.Evictions
		out.BytesRead += st.BytesRead
	}
	return out
}

// loop runs the TD roll-up shapes against the cluster until d elapses,
// then checks each kept answer against the generated truth and the
// single-node answer. In a traced phase every other block of four
// queries, one per shape, runs inside spans, each followed by a per-shard
// replay of a query of its own with the same shape and fresh parameters.
func (s *scatterRun) loop(p *phase, d time.Duration) error {
	rng := rand.New(rand.NewSource(s.cfg.seed*7919 + phaseSeed(p)))
	pick := rand.New(rand.NewSource(s.cfg.seed))
	type kept struct {
		q   readQuery
		r   *reply
		ref bool
	}
	var verify []kept
	start := p.begin()
	deadline := start.Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		shape := rollupShapes[i%4] // the TD shapes, equal shares
		q := s.query(shape, rng)
		traced := p.tracedOp(i, 4)
		var tr *tracer
		if traced {
			tr = p.tr
		}
		op := tr.newOp()
		root := tr.open("op.query", nil, op)
		cs := tr.open("cluster.query", root, op)
		res, err := s.c.Query(q.sql)
		e2e := cs.close()
		s.rep.op(err)
		if err != nil {
			root.close()
			continue
		}
		r := clusterReply(res.Columns, res.Rows)
		ms := float64(e2e.Nanoseconds()) / 1e6
		if traced {
			p.keyed(p.tracedMs, q.shape, ms)
		} else {
			p.query(q.shape, ms, r)
		}
		// Every answer is checked against the generated truth; a seeded
		// quarter is also rerun on the single-node reference.
		verify = append(verify, kept{q, r.compact(), pick.Intn(4) == 0})
		if traced {
			s.replay(p, root, op, s.query(shape, rng))
		}
		root.close()
	}
	p.end(start)
	for _, k := range verify {
		err := k.q.check(k.r)
		s.rep.check(k.q.shape, err == nil, func() string { return fmt.Sprintf("%s: %v", k.q.sql, err) })
		if k.ref {
			err = s.matchSingleNode(k.q.sql, k.r)
			s.rep.check("scatter_matches_single_node", err == nil, func() string { return fmt.Sprintf("%s: %v", k.q.sql, err) })
		}
	}
	return nil
}

// query draws a TD roll-up query of the given shape.
func (s *scatterRun) query(shape string, rng *rand.Rand) readQuery {
	q := s.rd.rollupQuery(shape, rng)
	q.shape = "scatter." + strings.TrimPrefix(q.shape, "rollup.")
	return q
}

// clusterReply renders in-process rows the way the wire protocol does.
func clusterReply(cols []string, rows []sqlexec.Row) *reply {
	r := &reply{cols: cols, nonNull: make([]int, len(cols))}
	for _, row := range rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		r.addRow(cells)
	}
	return r
}

// matchSingleNode runs sql on the single-node reference and compares the
// answers cell by cell; rows are sorted first unless the query orders them.
func (s *scatterRun) matchSingleNode(sql string, got *reply) error {
	res, err := s.ref.Query(sql)
	if err != nil {
		return err
	}
	rows, err := res.FetchAll()
	if err != nil {
		return err
	}
	want := clusterReply(res.Columns, rows)
	a, b := got.rows, want.rows
	if !strings.Contains(sql, "ORDER BY") {
		a, b = sortedRows(a), sortedRows(b)
	}
	if len(a) != len(b) {
		return fmt.Errorf("%d rows, single node has %d", len(a), len(b))
	}
	for i := range a {
		x, y := parseFloats(a[i]), parseFloats(b[i])
		for j := range x {
			if a[i][j] != b[i][j] && !near(x[j], y[j]) {
				return fmt.Errorf("row %d is %v, single node has %v", i, a[i], b[i])
			}
		}
	}
	return nil
}

func sortedRows(rows [][]string) [][]string {
	out := append([][]string(nil), rows...)
	sort.Slice(out, func(i, j int) bool { return strings.Join(out[i], "\t") < strings.Join(out[j], "\t") })
	return out
}

// replay runs q's shard query on every node's engine (the slowest sets
// cluster.shard_ms; the scatter's latency beyond it is the gather), plans
// it on one node, and times the codec and the B-tree.
func (s *scatterRun) replay(p *phase, root *openSpan, op int64, q readQuery) {
	var stmt sqlparse.Statement
	var err error
	d := p.tr.timed("sqlparse.parse", root, op, func() { stmt, err = sqlparse.Parse(q.sql) })
	s.rep.op(err)
	p.sample("sqlparse.parse_us", float64(d.Nanoseconds())/1e3)
	shardSQL := q.sql
	if sel, ok := stmt.(*sqlparse.SelectStmt); ok {
		if g, err := sqlexec.PlanGather(sel); err == nil && g != nil && g.Aggregate() && g.ShardSQL != "" {
			shardSQL = g.ShardSQL
		}
	}
	var plan string
	d = p.tr.timed("sqlexec.plan", root, op, func() { plan, err = s.c.Node(0).Engine.Plan(shardSQL) })
	s.rep.op(err)
	p.sample("sqlexec.plan_us", float64(d.Nanoseconds())/1e3)
	var slowest time.Duration
	var cols [][]float64
	for i := 0; i < s.c.Nodes(); i++ {
		eng := s.c.Node(i).Engine
		var blobBytes int64
		d := p.tr.timed("cluster.shard", root, op, func() {
			res, qerr := eng.Query(shardSQL)
			if qerr != nil {
				err = qerr
				return
			}
			rows, ferr := res.FetchAll()
			err = ferr
			blobBytes = res.BlobBytes()
			if i == 0 {
				cols = rowColumns(rows, 4096)
			}
		})
		s.rep.op(err)
		p.sample("sqlexec.exec_ms", float64(d.Nanoseconds())/1e6)
		slowest = max(slowest, d)
		if est, ok := estDecoded(plan); ok && i == 0 {
			p.sample("sqlexec.est_decoded_bytes", est)
			p.sample("sqlexec.q_error", qError(est, float64(blobBytes)))
		}
	}
	p.sample("cluster.shard_ms", float64(slowest.Nanoseconds())/1e6)
	p.keyed(p.inProcMs, q.shape, float64(slowest.Nanoseconds())/1e6)
	replayCompress(s.rep, p, root, op, cols)
	s.idx.replaySeeks(p, root, op, s.rep)
}
