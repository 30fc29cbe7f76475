package tsstore

import (
	"context"
	"math"

	"odh/internal/model"
)

// The aggregate scan answers COUNT/SUM/AVG/MIN/MAX (optionally grouped by
// source id and/or time bucket) from ValueBlob header summaries instead of
// decoded rows. Each batch record is classified against the query window
// and predicates:
//
//   - excluded: the summary (or zone maps) proves no row can contribute —
//     the blob is skipped without decoding;
//   - fully covered: every row provably lies inside the window, inside one
//     time bucket (when bucketing), and satisfies every predicate — the
//     header summary is folded into the group, zero decode;
//   - sub-bucket foldable: predicates are provable but the blob straddles
//     the bucket grid (or a window edge that lands on the sub-bucket base
//     grid) — when the query grid is a positive integral multiple of the
//     base width, the blob folds from its per-sub-bucket mini-summaries
//     (v3 header block, or lazily computed and cached for v1/v2 blobs),
//     still zero decode;
//   - boundary: anything unprovable — the blob is decoded (through the
//     decoded-blob cache when enabled) and its rows folded one by one.
//
// Summaries are written from the same round-tripped values a decode
// returns, so a fold is bit-identical to decoding and aggregating, except
// that SUM folds add per-blob subtotals rather than individual values
// (floating-point addition is not associative; exact for integral data).
// Legacy pre-summary blobs always take the boundary path, but the decode
// lazily computes their summary and caches it, so repeated aggregate scans
// over old data fold from the cache.

// TagPred is one pushed-down predicate bound on a tag, kept exact
// (strictness preserved) so full coverage can be proven from a summary.
// Rows where the tag is NULL never match. Use ±Inf for open sides.
type TagPred struct {
	Tag                int
	Lo, Hi             float64
	LoStrict, HiStrict bool // true = exclusive bound
}

// AggSpec describes one aggregate scan.
type AggSpec struct {
	// T1, T2 bound the window: rows with T1 <= ts < T2 contribute.
	T1, T2 int64
	// NTags is the schema's tag count (sizes per-group arrays).
	NTags int
	// WantTags selects the tags to aggregate (nil = all). Must include
	// every tag named by Preds, like a scan's wantTags must cover the
	// residual filter.
	WantTags []int
	// Preds are conjunctive tag predicates applied to every row.
	Preds []TagPred
	// BucketMs, when positive, groups rows by bucketFloor(ts, BucketMs)
	// (the executor's TIME_BUCKET grid).
	BucketMs int64
	// ByID groups rows by source id.
	ByID bool
	// Opts carries the scan tuning (parallel workers, cache bypass).
	Opts ScanOptions
}

// AggGroup is one output group. Slices are indexed by tag; tags outside
// WantTags hold zeros/sentinels. Min > Max means no non-NULL value was
// seen (SQL MIN/MAX of nothing is NULL).
type AggGroup struct {
	ID      int64 // source id when AggSpec.ByID, else 0
	Bucket  int64 // bucket base when AggSpec.BucketMs > 0, else 0
	Rows    int64 // rows matching window + predicates (COUNT(*))
	NonNull []int64
	Sum     []float64
	Min     []float64
	Max     []float64
}

// AggResult is the outcome of one aggregate scan. Groups appear in
// first-contribution order (deterministic for a given store state and
// spec, parallel or serial).
type AggResult struct {
	Groups []AggGroup
	// SummaryHits counts records answered from a header summary alone
	// (folded or excluded); BytesNotDecoded totals their encoded bytes —
	// the decode work the pushdown avoided.
	SummaryHits     int64
	BytesNotDecoded int64
	// SubBucketFolds counts records that straddled the bucket grid (or a
	// window edge) and folded from per-sub-bucket mini-summaries instead
	// of a boundary decode; SubBucketBytesNotDecoded totals their encoded
	// bytes. Disjoint from SummaryHits/BytesNotDecoded.
	SubBucketFolds           int64
	SubBucketBytesNotDecoded int64
	// BlobBytesRead totals bytes actually decoded (boundary blobs) plus
	// the estimated bytes of buffered points, matching scan accounting.
	BlobBytesRead int64
	// BlobsSkipped counts zone-map exclusions (same meaning as scans).
	BlobsSkipped int64
}

// bucketFloor floor-aligns ts to the bucket grid. It must match the
// executor's TIME_BUCKET evaluation exactly: both delegate to
// model.BucketFloor, so a summary fold replaces that evaluation for
// whole blobs without any grid drift.
func bucketFloor(ts, width int64) int64 {
	if width <= 0 {
		return ts
	}
	return model.BucketFloor(ts, width)
}

// matchPreds applies the conjunctive predicates to one row's tag values.
func matchPreds(vals []float64, preds []TagPred) bool {
	for _, p := range preds {
		if p.Tag < 0 || p.Tag >= len(vals) {
			return false
		}
		v := vals[p.Tag]
		if model.IsNull(v) {
			return false
		}
		if p.LoStrict {
			if !(v > p.Lo) {
				return false
			}
		} else if !(v >= p.Lo) {
			return false
		}
		if p.HiStrict {
			if !(v < p.Hi) {
				return false
			}
		} else if !(v <= p.Hi) {
			return false
		}
	}
	return true
}

// aggSpecEx is an AggSpec with derived scan state precomputed once.
type aggSpecEx struct {
	spec  *AggSpec
	cache *blobCache
	tags  []int      // tags to fold (sorted, deduped, in [0, NTags))
	zones []TagRange // inclusive hull of Preds for zone-map skipping
	ntags int
	ctx   context.Context // from Opts.Ctx; observed between records
}

func (s *Store) prepAggSpec(spec *AggSpec) *aggSpecEx {
	sp := &aggSpecEx{spec: spec, ntags: spec.NTags, ctx: spec.Opts.Ctx, cache: s.scanCache(spec.Opts)}
	if spec.WantTags == nil {
		sp.tags = make([]int, spec.NTags)
		for t := range sp.tags {
			sp.tags[t] = t
		}
	} else {
		seen := make(map[int]bool, len(spec.WantTags))
		for _, t := range spec.WantTags {
			if t >= 0 && t < spec.NTags && !seen[t] {
				seen[t] = true
				sp.tags = append(sp.tags, t)
			}
		}
	}
	for _, p := range spec.Preds {
		// Exclusive bounds loosen to inclusive: safe for skipping, never
		// used to prove coverage (classifySummary keeps the strictness).
		sp.zones = append(sp.zones, TagRange{Tag: p.Tag, Lo: p.Lo, Hi: p.Hi})
	}
	return sp
}

// summaryClass is the fold decision for one record.
type summaryClass int

const (
	classBoundary    summaryClass = iota // must decode
	classExcluded                        // contributes nothing, skip decode
	classCovered                         // fold whole summary, skip decode
	classSubFoldable                     // fold per-sub-bucket summaries, skip decode
)

// classifySummary decides how a record folds within one part range
// [t1, t2). foldable gates summary folding entirely (false for MG records
// whose rows need per-member attribution or filtering); allowSub
// additionally gates the sub-bucket outcome (false for MG records, whose
// rows are slot-ordered and never carry sub-summaries).
//
// classSubFoldable means the whole-blob predicate proof held but the blob
// straddles the bucket grid or a window edge: the record can fold from
// per-sub-bucket mini-summaries PROVIDED the caller verifies the base
// width of the summaries it actually has via subFoldAligned (a persisted
// v3 block may carry a different base than the store's current config).
func classifySummary(sum *blobSummary, t1, t2 int64, sp *aggSpecEx, foldable, allowSub bool) summaryClass {
	if sum.rows == 0 || sum.lastTS < t1 || sum.firstTS >= t2 {
		return classExcluded
	}
	if !foldable {
		return classBoundary
	}
	for _, tag := range sp.tags {
		if tag >= len(sum.nonNull) {
			return classBoundary
		}
	}
	// Predicates hold for every row only when the tag is never NULL and
	// the blob's min/max sit strictly inside the (exact) bounds.
	for _, p := range sp.spec.Preds {
		if p.Tag < 0 || p.Tag >= len(sum.nonNull) {
			return classBoundary
		}
		if sum.nonNull[p.Tag] != sum.rows {
			return classBoundary
		}
		mn, mx := sum.min[p.Tag], sum.max[p.Tag]
		if mn > mx {
			return classBoundary
		}
		if p.LoStrict {
			if !(mn > p.Lo) {
				return classBoundary
			}
		} else if !(mn >= p.Lo) {
			return classBoundary
		}
		if p.HiStrict {
			if !(mx < p.Hi) {
				return classBoundary
			}
		} else if !(mx <= p.Hi) {
			return classBoundary
		}
	}
	if sum.firstTS >= t1 && sum.lastTS < t2 {
		if w := sp.spec.BucketMs; w <= 0 || bucketFloor(sum.firstTS, w) == bucketFloor(sum.lastTS, w) {
			return classCovered
		}
	}
	if allowSub {
		return classSubFoldable
	}
	return classBoundary
}

// subFoldAligned reports whether a sub-fold-candidate record may actually
// fold from sub-summaries of the given base width: the query's bucket
// grid (if any) must be a positive integral multiple of the base, and any
// window edge that cuts into the blob's span must land on the base grid —
// then every sub-bucket is provably either entirely inside or entirely
// outside both the window and one query bucket.
func subFoldAligned(sum *blobSummary, t1, t2, base int64, sp *aggSpecEx) bool {
	if base <= 0 {
		return false
	}
	if w := sp.spec.BucketMs; w > 0 && w%base != 0 {
		return false
	}
	if sum.firstTS < t1 && model.BucketFloor(t1, base) != t1 {
		return false
	}
	if sum.lastTS >= t2 && model.BucketFloor(t2, base) != t2 {
		return false
	}
	return true
}

// aggKey identifies one output group.
type aggKey struct{ id, bucket int64 }

// aggPartial is one part's accumulation state; parts never share one.
type aggPartial struct {
	groups map[aggKey]*AggGroup
	order  []aggKey

	summaryHits              int64
	bytesNotDecoded          int64
	subBucketFolds           int64
	subBucketBytesNotDecoded int64
	blobBytesRead            int64
	blobsSkipped             int64
}

func newAggPartial() *aggPartial {
	return &aggPartial{groups: make(map[aggKey]*AggGroup)}
}

func (pt *aggPartial) keyFor(src, ts int64, sp *aggSpecEx) aggKey {
	var k aggKey
	if sp.spec.ByID {
		k.id = src
	}
	if sp.spec.BucketMs > 0 {
		k.bucket = bucketFloor(ts, sp.spec.BucketMs)
	}
	return k
}

func (pt *aggPartial) group(k aggKey, sp *aggSpecEx) *AggGroup {
	if g, ok := pt.groups[k]; ok {
		return g
	}
	g := &AggGroup{
		ID: k.id, Bucket: k.bucket,
		NonNull: make([]int64, sp.ntags),
		Sum:     make([]float64, sp.ntags),
		Min:     make([]float64, sp.ntags),
		Max:     make([]float64, sp.ntags),
	}
	for i := range g.Min {
		g.Min[i] = math.Inf(1)
		g.Max[i] = math.Inf(-1)
	}
	pt.groups[k] = g
	pt.order = append(pt.order, k)
	return g
}

// foldSummary folds a fully-covered record's summary into its group.
func (pt *aggPartial) foldSummary(src int64, sum *blobSummary, sp *aggSpecEx) {
	// classifySummary proved every row shares one bucket, so the first
	// timestamp names it.
	g := pt.group(pt.keyFor(src, sum.firstTS, sp), sp)
	g.Rows += sum.rows
	for _, tag := range sp.tags {
		if tag >= len(sum.nonNull) {
			continue
		}
		g.NonNull[tag] += sum.nonNull[tag]
		g.Sum[tag] += sum.sum[tag]
		if sum.nonNull[tag] > 0 {
			if sum.min[tag] < g.Min[tag] {
				g.Min[tag] = sum.min[tag]
			}
			if sum.max[tag] > g.Max[tag] {
				g.Max[tag] = sum.max[tag]
			}
		}
	}
}

// foldSubSummaries folds the sub-buckets of one record that lie inside
// [t1, t2) into their groups, in ascending bucket order — the same group
// first-contribution order a row-by-row decode of the (time-ordered)
// blob would produce. subFoldAligned proved each bucket lies entirely
// inside or entirely outside the window, and that every bucket maps to a
// single query bucket; classifySummary proved the predicates hold for
// every row of the blob.
func (pt *aggPartial) foldSubSummaries(src int64, sum *blobSummary, sub *subSummaries, t1, t2 int64, sp *aggSpecEx) {
	for i := range sub.buckets {
		b := &sub.buckets[i]
		if b.rows == 0 {
			continue
		}
		start := sub.start + int64(i)*sub.base
		// In-window test per the alignment proof: an edge inside the blob's
		// span sits on the base grid, so a bucket is out iff it starts
		// before an aligned t1 or ends after an aligned t2.
		if sum.firstTS < t1 && start < t1 {
			continue
		}
		if sum.lastTS >= t2 && start+sub.base > t2 {
			continue
		}
		g := pt.group(pt.keyFor(src, start, sp), sp)
		g.Rows += b.rows
		for _, tag := range sp.tags {
			if tag >= len(b.nonNull) {
				continue
			}
			g.NonNull[tag] += b.nonNull[tag]
			g.Sum[tag] += b.sum[tag]
			if b.nonNull[tag] > 0 {
				if b.min[tag] < g.Min[tag] {
					g.Min[tag] = b.min[tag]
				}
				if b.max[tag] > g.Max[tag] {
					g.Max[tag] = b.max[tag]
				}
			}
		}
	}
}

// foldRow folds one decoded (or buffered) row.
func (pt *aggPartial) foldRow(src, ts int64, vals []float64, sp *aggSpecEx) {
	if !matchPreds(vals, sp.spec.Preds) {
		return
	}
	g := pt.group(pt.keyFor(src, ts, sp), sp)
	g.Rows++
	for _, tag := range sp.tags {
		if tag >= len(vals) {
			continue
		}
		v := vals[tag]
		if model.IsNull(v) {
			continue
		}
		g.NonNull[tag]++
		g.Sum[tag] += v
		if v < g.Min[tag] {
			g.Min[tag] = v
		}
		if v > g.Max[tag] {
			g.Max[tag] = v
		}
	}
}

// foldRows folds a decoded batch's rows inside the part range. MG rows
// get per-member attribution through the same slot/source filters as the
// row emitter; RTS/IRTS rows belong to the part's source.
func (pt *aggPartial) foldRows(p *blobPart, batch *DecodedBatch, members []int64, sp *aggSpecEx) {
	for i, ts := range batch.Timestamps {
		if src, ok := p.rowOwner(batch, i, members); ok {
			pt.foldRow(src, ts, batch.Rows[i], sp)
		}
	}
}

// foldPart folds one part into pt. A buffer part folds its snapshot with
// the same estimated cost a scan charges for buffered points.
func (s *Store) foldPart(t aggTask, sp *aggSpecEx, pt *aggPartial) error {
	if t.p.buffer {
		for _, p := range t.buf {
			pt.blobBytesRead += pointBlobBytes(len(p.Values))
			pt.foldRow(p.Source, p.TS, p.Values, sp)
		}
		return nil
	}
	return s.foldRecords(s.newBlobWalker(sp.ctx, t.p, sp.cache, sp.spec.WantTags, sp.zones), sp, pt)
}

// foldRecords is the aggregate folder over the blob-visit kernel: it
// classifies each record the walker visits against its summary and
// decodes only boundary records.
//
// An MG record may fold from its summary only when rows need no
// per-member attribution: no source filter, no GROUP BY id, and every
// stored slot maps to a known member (the row emitter drops unknown
// slots, so a fold must too). MG records never sub-fold: their rows are
// slot-ordered and carry no sub-summaries.
func (s *Store) foldRecords(w *blobWalker, sp *aggSpecEx, pt *aggPartial) error {
	p := w.part
	mg := p.tree == cacheTreeMG
	var members []int64
	if mg {
		members = s.cat.GroupMembers(p.id)
	}
	for {
		v, ok := w.next()
		if !ok {
			break
		}
		if sum := v.summary(); sum != nil {
			src, foldable := p.id, true
			if mg {
				src, foldable = 0, p.onlySource == 0 && !sp.spec.ByID && sum.members <= len(members)
			}
			switch classifySummary(sum, p.r.t1, p.r.t2, sp, foldable, !mg) {
			case classExcluded:
				pt.summaryHits++
				pt.bytesNotDecoded += v.blobLen
				continue
			case classCovered:
				pt.summaryHits++
				pt.bytesNotDecoded += v.blobLen
				pt.foldSummary(src, sum, sp)
				continue
			case classSubFoldable:
				// A v3 blob (or a cached entry) folds from its
				// mini-summaries with zero decode, stubs included: the
				// block survives stubbing. A v1/v2 blob falls through to
				// the decode; its cache entry yields them on the next hit.
				if sub := w.subSummaries(v); sub != nil && subFoldAligned(sum, p.r.t1, p.r.t2, sub.base, sp) {
					pt.subBucketFolds++
					pt.subBucketBytesNotDecoded += v.blobLen
					pt.foldSubSummaries(src, sum, sub, p.r.t1, p.r.t2, sp)
					continue
				}
			}
		}
		// A boundary stub needs per-row resolution and its rows are gone:
		// batch fails loudly with StubbedRangeError, never under-counts.
		if batch, ok := w.batch(v); ok {
			pt.foldRows(&w.part, batch, members, sp)
		}
	}
	pt.blobBytesRead += w.bytesRead
	pt.blobsSkipped += w.skipped
	return w.err
}

// aggTask is one part of an aggregate with its buffer snapshot, taken
// when the aggregate is planned.
type aggTask struct {
	p   blobPart
	buf []model.Point
}

// foldParts runs the parts (on the worker pool when allowed) and merges
// their partials in part order, which keeps group emission order
// identical between serial and parallel runs. Empty buffer parts are
// dropped before the fan-out.
func (s *Store) foldParts(parts []blobPart, sp *aggSpecEx, workers int) (*AggResult, error) {
	tasks := make([]aggTask, 0, len(parts))
	for _, p := range parts {
		t := aggTask{p: p}
		if p.buffer {
			if t.buf = s.bufferPoints(p); len(t.buf) == 0 {
				continue
			}
		}
		tasks = append(tasks, t)
	}
	partials := make([]*aggPartial, len(tasks))
	errs := make([]error, len(tasks))
	run := func(i int) {
		// Parts observe ctx before they start: a canceled query stops
		// folding instead of racing the pool to completion.
		partials[i] = newAggPartial()
		if errs[i] = ctxErr(sp.ctx); errs[i] == nil {
			errs[i] = s.foldPart(tasks[i], sp, partials[i])
		}
	}
	if workers > 1 && len(tasks) > 1 {
		s.fanOut(len(tasks), workers, run).Wait()
	} else {
		for i := range tasks {
			if run(i); errs[i] != nil {
				break
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res := &AggResult{}
	idx := make(map[aggKey]int)
	for _, pt := range partials {
		res.SummaryHits += pt.summaryHits
		res.BytesNotDecoded += pt.bytesNotDecoded
		res.SubBucketFolds += pt.subBucketFolds
		res.SubBucketBytesNotDecoded += pt.subBucketBytesNotDecoded
		res.BlobBytesRead += pt.blobBytesRead
		res.BlobsSkipped += pt.blobsSkipped
		for _, k := range pt.order {
			g := pt.groups[k]
			j, ok := idx[k]
			if !ok {
				idx[k] = len(res.Groups)
				res.Groups = append(res.Groups, *g)
				continue
			}
			dst := &res.Groups[j]
			dst.Rows += g.Rows
			for t := range dst.NonNull {
				dst.NonNull[t] += g.NonNull[t]
				dst.Sum[t] += g.Sum[t]
				if g.Min[t] < dst.Min[t] {
					dst.Min[t] = g.Min[t]
				}
				if g.Max[t] > dst.Max[t] {
					dst.Max[t] = g.Max[t]
				}
			}
		}
	}
	s.summaryHits.Add(res.SummaryHits)
	s.bytesNotDecoded.Add(res.BytesNotDecoded)
	s.subBucketFolds.Add(res.SubBucketFolds)
	s.subBucketBytesNotDecoded.Add(res.SubBucketBytesNotDecoded)
	return res, nil
}

// AggregateHistorical computes the aggregates of one source over
// [spec.T1, spec.T2), the pushdown twin of HistoricalScanOpts.
func (s *Store) AggregateHistorical(source int64, spec AggSpec) (*AggResult, error) {
	sp := s.prepAggSpec(&spec)
	workers := clampWorkers(spec.Opts.Workers)
	parts, err := s.planSource(source, spec.T1, spec.T2, workers)
	if err != nil {
		return nil, err
	}
	return s.foldParts(parts, sp, workers)
}

// AggregateMulti aggregates an explicit source list (the id IN (...)
// pushdown). Each source is planned serially; the fan-out is across all
// their parts. Unknown ids contribute nothing.
func (s *Store) AggregateMulti(sources []int64, spec AggSpec) (*AggResult, error) {
	sp := s.prepAggSpec(&spec)
	var parts []blobPart
	for _, src := range sources {
		p, err := s.planSource(src, spec.T1, spec.T2, 1)
		if err != nil {
			continue
		}
		parts = append(parts, p...)
	}
	return s.foldParts(parts, sp, clampWorkers(spec.Opts.Workers))
}

// AggregateSlice aggregates every source of a schema over the window, the
// pushdown twin of SliceScanOpts (including its partition elimination).
func (s *Store) AggregateSlice(schemaID int64, spec AggSpec) (*AggResult, error) {
	sp := s.prepAggSpec(&spec)
	return s.foldParts(s.planSlice(schemaID, spec.T1, spec.T2), sp, clampWorkers(spec.Opts.Workers))
}
