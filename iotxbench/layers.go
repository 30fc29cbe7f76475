package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"odh"
	"odh/internal/btree"
	"odh/internal/compress"
	"odh/internal/keyenc"
	"odh/internal/model"
	"odh/internal/pagestore"
	"odh/internal/relational"
	"odh/internal/sqlexec"
)

// phase collects one timed stretch of a run: the untraced measurement,
// or the mixed half of a --trace 1 run, where untraced and traced
// operations alternate. Latencies of untraced operations go to ackMs and
// shapeMs, those of traced ones to tracedAckMs and tracedMs.
type phase struct {
	tr *tracer

	mu          sync.Mutex
	samples     map[string][]float64 // per-layer samples, keyed by metric name
	ackMs       []float64
	ackKind     map[string][]float64 // acknowledgement latencies per schema
	ackedPts    int64
	tracedAckMs []float64
	queryMs     []float64
	queryAt     []time.Duration // completion time of each query since start
	queryDp     []int64         // data points of each query
	shapeMs     map[string][]float64
	tracedMs    map[string][]float64
	// inProcMs is the in-process time per query shape of the replays:
	// Historian.Query plus drain, or the slowest shard of a scatter.
	inProcMs   map[string][]float64
	queries    int64
	dp         int64
	replyBytes int64
	ops        int64
	start      time.Time
	elapsed    time.Duration
	rt0, rt1   rtSnap
}

func newPhase(tr *tracer) *phase {
	return &phase{
		tr: tr, samples: map[string][]float64{}, ackKind: map[string][]float64{},
		shapeMs: map[string][]float64{}, tracedMs: map[string][]float64{}, inProcMs: map[string][]float64{},
	}
}

// tracedOp tells whether the i-th operation of a phase runs traced: in a
// traced phase every other block of `block` operations does.
func (p *phase) tracedOp(i, block int) bool {
	return p.tr != nil && (i/block)%2 == 1
}

// keyed appends v to m[key] under the phase lock.
func (p *phase) keyed(m map[string][]float64, key string, v float64) {
	p.mu.Lock()
	m[key] = append(m[key], v)
	p.mu.Unlock()
}

func (p *phase) tracedAck(ms float64) {
	p.mu.Lock()
	p.tracedAckMs = append(p.tracedAckMs, ms)
	p.mu.Unlock()
}

func (p *phase) sample(name string, v float64) {
	p.mu.Lock()
	p.samples[name] = append(p.samples[name], v)
	p.mu.Unlock()
}

func (p *phase) ack(kind string, ms float64, pts int) {
	p.mu.Lock()
	p.ackMs = append(p.ackMs, ms)
	p.ackKind[kind] = append(p.ackKind[kind], ms)
	p.ackedPts += int64(pts)
	p.ops++
	p.mu.Unlock()
}

func (p *phase) query(shape string, ms float64, r *reply) {
	p.mu.Lock()
	dp := r.dataPoints()
	p.queryMs = append(p.queryMs, ms)
	p.queryAt = append(p.queryAt, time.Since(p.start))
	p.queryDp = append(p.queryDp, dp)
	p.shapeMs[shape] = append(p.shapeMs[shape], ms)
	p.queries++
	p.ops++
	p.dp += dp
	p.replyBytes += int64(r.bytes)
	p.mu.Unlock()
}

// begin and end bracket the phase's wall time and runtime counters.
// begin collects set-up garbage first, so every phase starts from the
// same heap state.
func (p *phase) begin() time.Time {
	runtime.GC()
	p.rt0 = readRT()
	p.start = time.Now()
	return p.start
}

func (p *phase) end(start time.Time) {
	p.elapsed = time.Since(start)
	p.rt1 = readRT()
}

// reportQueries sets the query-side end-to-end metrics over active, the
// time the query loop ran.
func (p *phase) reportQueries(rep *report, active time.Duration) {
	p.printShapes(os.Stderr)
	rep.set("query_p50_ms", kindMedian(p.shapeMs))
	rep.set("query_p90_ms", quantile(p.queryMs, 0.9))
	rep.set("queries_per_s", float64(p.queries)/active.Seconds())
	rep.set("dp_per_s", float64(p.dp)/active.Seconds())
}

// windows is how many equal stretches reportWindowed splits a phase into.
const windows = 5

// reportWindowed sets the query metrics of a phase that ran its loop the
// whole time as medians over equal windows: a burst of load from outside
// the benchmark that slows one window does not move them. query_p50_ms
// stays the per-shape figure over the whole phase.
func (p *phase) reportWindowed(rep *report) {
	p.printShapes(os.Stderr)
	width := p.elapsed / windows
	var qps, dps, p90 []float64
	for w := 0; w < windows; w++ {
		lo, hi := width*time.Duration(w), width*time.Duration(w+1)
		var n, dp int64
		var lat []float64
		for i, at := range p.queryAt {
			if at >= lo && at < hi {
				n++
				dp += p.queryDp[i]
				lat = append(lat, p.queryMs[i])
			}
		}
		qps = append(qps, float64(n)/width.Seconds())
		dps = append(dps, float64(dp)/width.Seconds())
		if len(lat) > 0 {
			p90 = append(p90, quantile(lat, 0.9))
		}
	}
	rep.set("query_p50_ms", kindMedian(p.shapeMs))
	rep.set("query_p90_ms", median(p90))
	rep.set("queries_per_s", median(qps))
	rep.set("dp_per_s", median(dps))
}

// printShapes writes each query shape's sample count and median latency.
func (p *phase) printShapes(w io.Writer) {
	names := make([]string, 0, len(p.shapeMs))
	for name := range p.shapeMs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		xs := p.shapeMs[name]
		fmt.Fprintf(w, "shape %-32s n %5d p50 %9.3f ms p90 %9.3f ms\n", name, len(xs), median(xs), quantile(xs, 0.9))
	}
}

// printKinds writes per-kind sample counts and latency figures.
func printKinds(w io.Writer, what string, byKind map[string][]float64) {
	names := make([]string, 0, len(byKind))
	for name := range byKind {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		xs := byKind[name]
		fmt.Fprintf(w, "%s %-32s n %5d mean %8.3f p25 %8.3f p50 %8.3f p75 %8.3f p95 %8.3f p99 %8.3f ms\n", what, name, len(xs),
			mean(xs), quantile(xs, 0.25), median(xs), quantile(xs, 0.75), quantile(xs, 0.95), quantile(xs, 0.99))
	}
}

// shapeGap is the mean over query shapes of median(a[shape]) minus
// median(b[shape]), over the shapes both hold.
func shapeGap(a, b map[string][]float64) float64 {
	var sum float64
	var n int
	for shape, xs := range a {
		if ys := b[shape]; len(xs) > 0 && len(ys) > 0 {
			sum += median(xs) - median(ys)
			n++
		}
	}
	return ratio(sum, float64(n))
}

// kindMedian is the geometric mean over query shapes of each shape's
// median latency. The shapes' costs differ widely and run in equal
// shares, so the median of the pooled latencies falls on the edge between
// two shapes and jumps between them from run to run; the per-shape
// medians are steady, and every shape moves their mean.
func kindMedian(byKind map[string][]float64) float64 {
	var logSum float64
	for _, xs := range byKind {
		logSum += math.Log(median(xs))
	}
	return math.Exp(logSum / float64(len(byKind)))
}

// rtSnap is a reading of the Go runtime's allocation and GC counters.
type rtSnap struct {
	allocBytes, allocObjs uint64
	gcCPU, totalCPU       float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRT() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSnap{
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// reportRuntime sets the runtime layer from the phase's counters.
func (p *phase) reportRuntime(rep *report) {
	ops := float64(p.ops)
	rep.set("runtime.alloc_bytes_per_op", ratio(float64(p.rt1.allocBytes-p.rt0.allocBytes), ops))
	rep.set("runtime.mallocs_per_op", ratio(float64(p.rt1.allocObjs-p.rt0.allocObjs), ops))
	rep.set("runtime.gc_cpu_frac", ratio(p.rt1.gcCPU-p.rt0.gcCPU, p.rt1.totalCPU-p.rt0.totalCPU))
}

// heapSampler tracks the peak live Go heap while a phase runs: the heap
// the last completed GC found reachable, which unlike the allocated heap
// does not swing with where the sample falls in the GC cycle.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak.Load()) / (1 << 20)
}

// statsDelta subtracts the historian counters the layer metrics use.
func statsDelta(a, b odh.HistorianStats) odh.HistorianStats {
	return odh.HistorianStats{
		PointsWritten:            b.PointsWritten - a.PointsWritten,
		BlobBytes:                b.BlobBytes - a.BlobBytes,
		IOBytesWritten:           b.IOBytesWritten - a.IOBytesWritten,
		IOBytesRead:              b.IOBytesRead - a.IOBytesRead,
		PoolHits:                 b.PoolHits - a.PoolHits,
		PoolMisses:               b.PoolMisses - a.PoolMisses,
		PoolEvictions:            b.PoolEvictions - a.PoolEvictions,
		WALRecords:               b.WALRecords - a.WALRecords,
		WALGroupCommits:          b.WALGroupCommits - a.WALGroupCommits,
		BlobCacheHits:            b.BlobCacheHits - a.BlobCacheHits,
		BlobCacheMisses:          b.BlobCacheMisses - a.BlobCacheMisses,
		ParallelParts:            b.ParallelParts - a.ParallelParts,
		SummaryHits:              b.SummaryHits - a.SummaryHits,
		BytesNotDecoded:          b.BytesNotDecoded - a.BytesNotDecoded,
		SubBucketFolds:           b.SubBucketFolds - a.SubBucketFolds,
		SubBucketBytesNotDecoded: b.SubBucketBytesNotDecoded - a.SubBucketBytesNotDecoded,
	}
}

// reportReadCounters sets the tsstore and pagestore read counters from a
// historian counter delta over q queries.
func reportReadCounters(rep *report, d odh.HistorianStats, q float64) {
	rep.set("tsstore.summary_hits_per_query", ratio(float64(d.SummaryHits), q))
	rep.set("tsstore.subbucket_folds_per_query", ratio(float64(d.SubBucketFolds), q))
	rep.set("tsstore.bytes_not_decoded_per_query", ratio(float64(d.BytesNotDecoded+d.SubBucketBytesNotDecoded), q))
	rep.set("tsstore.blob_cache_hit_rate", ratio(float64(d.BlobCacheHits), float64(d.BlobCacheHits+d.BlobCacheMisses)))
	rep.set("tsstore.parallel_parts_per_query", ratio(float64(d.ParallelParts), q))
	rep.set("pagestore.pool_hit_rate", ratio(float64(d.PoolHits), float64(d.PoolHits+d.PoolMisses)))
	rep.set("pagestore.bytes_read_per_query", ratio(float64(d.IOBytesRead), q))
	rep.set("pagestore.evictions_per_query", ratio(float64(d.PoolEvictions), q))
}

// reportWriteCounters sets the write-path ratios from a counter delta.
func reportWriteCounters(rep *report, d odh.HistorianStats) {
	pts := float64(d.PointsWritten)
	rep.set("compress.blob_bytes_per_pt", ratio(float64(d.BlobBytes), pts))
	rep.set("pagestore.bytes_written_per_pt", ratio(float64(d.IOBytesWritten), pts))
	rep.set("walog.records_per_group_commit", ratio(float64(d.WALRecords), float64(d.WALGroupCommits)))
}

// zeroLayers sets every per-layer metric to 0 before a workload fills in
// the layers it exercises.
func zeroLayers(rep *report) {
	for _, d := range perLayer {
		rep.set(d.name, 0)
	}
}

// reportSamples sets the median of every per-layer sample the traced
// phase collected.
func (p *phase) reportSamples(rep *report) {
	for name, xs := range p.samples {
		if rep.has(name) {
			rep.set(name, median(xs))
		}
	}
}

// reportShapes sets the per-shape median latencies.
func (p *phase) reportShapes(rep *report) {
	for shape, xs := range p.shapeMs {
		if name := shape + ".p50_ms"; rep.has(name) {
			rep.set(name, median(xs))
		}
	}
}

// replayCompress times compress.EncodeColumn and DecodeColumn on value
// columns the operation carried, per value; the lossless round trip must
// return every value bit for bit.
func replayCompress(rep *report, p *phase, root *openSpan, op int64, cols [][]float64) {
	var encNs, decNs float64
	var n int
	for _, col := range cols {
		if len(col) == 0 {
			continue
		}
		var enc []byte
		encNs += float64(p.tr.timed("compress.encode", root, op, func() {
			enc = compress.EncodeColumn(nil, col, compress.Policy{})
		}))
		var dec []float64
		var err error
		decNs += float64(p.tr.timed("compress.decode", root, op, func() {
			dec, err = compress.DecodeColumn(enc)
		}))
		rep.check("codec_round_trip", err == nil && sameBits(dec, col), func() string {
			return fmt.Sprintf("%d values decoded as %d (%v)", len(col), len(dec), err)
		})
		n += len(col)
	}
	if n > 0 {
		p.sample("compress.encode_ns_per_value", encNs/float64(n))
		p.sample("compress.decode_ns_per_value", decNs/float64(n))
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// pointColumns splits points into non-NULL value columns per tag.
func pointColumns(points []model.Point) [][]float64 {
	var cols [][]float64
	for _, pt := range points {
		for t, v := range pt.Values {
			for len(cols) <= t {
				cols = append(cols, nil)
			}
			if !math.IsNaN(v) {
				cols[t] = append(cols[t], v)
			}
		}
	}
	return cols
}

// rowColumns extracts the float columns of an in-process result, capped
// per column.
func rowColumns(rows []sqlexec.Row, limit int) [][]float64 {
	var cols [][]float64
	for _, row := range rows {
		for j, v := range row {
			for len(cols) <= j {
				cols = append(cols, nil)
			}
			if v.Kind == relational.KindFloat && len(cols[j]) < limit {
				cols[j] = append(cols[j], v.F)
			}
		}
	}
	return cols
}

// seekIndex is a B-tree over the workload's own record keys, for timing
// btree.Tree seeks outside the historian.
type seekIndex struct {
	tree *btree.Tree
	keys [][]byte
	rng  *rand.Rand
}

// seekKeysPerOp is how many seeks each traced operation times.
const seekKeysPerOp = 8

func newSeekIndex(points []model.Point, every int, seed int64) (*seekIndex, error) {
	store, err := pagestore.Open(pagestore.NewMemFile(), pagestore.Options{PoolPages: 4096})
	if err != nil {
		return nil, err
	}
	tree, err := btree.Open(store, "seek")
	if err != nil {
		return nil, err
	}
	idx := &seekIndex{tree: tree, rng: rand.New(rand.NewSource(seed))}
	val := make([]byte, 16)
	for i := 0; i < len(points); i += every {
		k := keyenc.SourceTime(points[i].Source, points[i].TS)
		if err := tree.Put(k, val); err != nil {
			return nil, err
		}
		idx.keys = append(idx.keys, k)
	}
	return idx, nil
}

// replaySeeks times seekKeysPerOp seeks and counts a miss as a failure.
func (s *seekIndex) replaySeeks(p *phase, root *openSpan, op int64, rep *report) {
	if s == nil || len(s.keys) == 0 {
		return
	}
	keys := make([][]byte, seekKeysPerOp)
	for i := range keys {
		keys[i] = s.keys[s.rng.Intn(len(s.keys))]
	}
	found := 0
	d := p.tr.timed("btree.seek", root, op, func() {
		for _, k := range keys {
			c := s.tree.Seek(k)
			if c.Valid() && bytes.Equal(c.Key(), k) {
				found++
			}
		}
	})
	rep.check("btree_seek_finds_key", found == len(keys), func() string { return "seek missed an inserted key" })
	p.sample("btree.seek_us", float64(d.Nanoseconds())/1e3/float64(len(keys)))
}
