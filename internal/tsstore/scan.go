package tsstore

import (
	"bytes"
	"context"
	"sort"

	"odh/internal/model"
)

// Iterator yields operational points. Implementations are not safe for
// concurrent use; create one per query. The caller owns every Point it
// receives: buffered points are cloned out of the ingest buffers, and
// rows backed by the shared decoded-blob cache are copied on emission,
// so mutating Point.Values never corrupts concurrent or future scans.
type Iterator interface {
	// Next returns the next point; ok is false when exhausted.
	Next() (p model.Point, ok bool)
	// Err returns the first error the iterator hit, if any.
	Err() error
	// BlobBytes returns the total ValueBlob bytes decoded so far — the
	// paper's query cost unit, surfaced to the executor for reporting.
	BlobBytes() int64
	// BlobsSkipped returns the number of batch records whose zone maps
	// excluded every pushed tag range, so they were never decoded.
	BlobsSkipped() int64
}

// pointBlobBytes estimates the ValueBlob bytes one in-memory point stands
// for: an 8-byte timestamp plus one float64 per tag. Buffered points that
// a dirty read serves never touch a blob, but they still carry real cost
// and must feed the blob-bytes accounting (the paper's cost unit), so the
// estimate cannot be zero.
func pointBlobBytes(ntags int) int64 { return 8 + 8*int64(ntags) }

// sliceIterAdapter iterates a materialized point slice, accruing the
// estimated blob bytes of each point it serves.
type sliceIterAdapter struct {
	points   []model.Point
	i        int
	perPoint int64
	accrued  int64
}

// newSliceIter wraps buffered points, sizing the per-point byte estimate
// from the row width.
func newSliceIter(points []model.Point) *sliceIterAdapter {
	it := &sliceIterAdapter{points: points}
	if len(points) > 0 {
		it.perPoint = pointBlobBytes(len(points[0].Values))
	}
	return it
}

func (it *sliceIterAdapter) Next() (model.Point, bool) {
	if it.i >= len(it.points) {
		return model.Point{}, false
	}
	p := it.points[it.i]
	it.i++
	it.accrued += it.perPoint
	return p, true
}

func (it *sliceIterAdapter) Err() error          { return nil }
func (it *sliceIterAdapter) BlobBytes() int64    { return it.accrued }
func (it *sliceIterAdapter) BlobsSkipped() int64 { return 0 }

// emptyIter yields nothing; zero blob bytes is its true cost.
type emptyIter struct{}

func (emptyIter) Next() (model.Point, bool) { return model.Point{}, false }
func (emptyIter) Err() error                { return nil }
func (emptyIter) BlobBytes() int64          { return 0 }
func (emptyIter) BlobsSkipped() int64       { return 0 }

// concatIter drains each input in turn.
type concatIter struct {
	iters []Iterator
	i     int
	err   error
}

func (it *concatIter) Next() (model.Point, bool) {
	for it.i < len(it.iters) {
		p, ok := it.iters[it.i].Next()
		if ok {
			return p, true
		}
		if err := it.iters[it.i].Err(); err != nil && it.err == nil {
			it.err = err
			return model.Point{}, false
		}
		it.i++
	}
	return model.Point{}, false
}

func (it *concatIter) Err() error { return it.err }

func (it *concatIter) BlobBytes() int64 {
	var total int64
	for _, sub := range it.iters {
		total += sub.BlobBytes()
	}
	return total
}

func (it *concatIter) BlobsSkipped() int64 {
	var total int64
	for _, sub := range it.iters {
		total += sub.BlobsSkipped()
	}
	return total
}

// mergeIter k-way merges timestamp-sorted inputs.
type mergeIter struct {
	iters []Iterator
	heads []model.Point
	live  []bool
	err   error
	init  bool
}

func newMergeIter(iters []Iterator) *mergeIter {
	return &mergeIter{
		iters: iters,
		heads: make([]model.Point, len(iters)),
		live:  make([]bool, len(iters)),
	}
}

func (it *mergeIter) prime() {
	for i, sub := range it.iters {
		p, ok := sub.Next()
		it.heads[i], it.live[i] = p, ok
		if !ok && sub.Err() != nil && it.err == nil {
			it.err = sub.Err()
		}
	}
	it.init = true
}

func (it *mergeIter) Next() (model.Point, bool) {
	if !it.init {
		it.prime()
	}
	if it.err != nil {
		return model.Point{}, false
	}
	best := -1
	for i, ok := range it.live {
		if !ok {
			continue
		}
		if best == -1 || it.heads[i].TS < it.heads[best].TS ||
			(it.heads[i].TS == it.heads[best].TS && it.heads[i].Source < it.heads[best].Source) {
			best = i
		}
	}
	if best == -1 {
		return model.Point{}, false
	}
	out := it.heads[best]
	p, ok := it.iters[best].Next()
	it.heads[best], it.live[best] = p, ok
	if !ok && it.iters[best].Err() != nil && it.err == nil {
		it.err = it.iters[best].Err()
	}
	return out, true
}

func (it *mergeIter) Err() error { return it.err }

func (it *mergeIter) BlobBytes() int64 {
	var total int64
	for _, sub := range it.iters {
		total += sub.BlobBytes()
	}
	return total
}

func (it *mergeIter) BlobsSkipped() int64 {
	var total int64
	for _, sub := range it.iters {
		total += sub.BlobsSkipped()
	}
	return total
}

// rowIter is the row emitter over the blob-visit kernel: it yields the
// points of one part inside its range. RTS/IRTS batches are keyed by
// their first timestamp but may overlap (out-of-order ingest splits a
// batch), so batch rows are held back until every batch that could
// precede them has been loaded and emitted in timestamp order. An MG
// record's rows are emitted record by record in member-slot order, for
// every member or only part.onlySource.
type rowIter struct {
	w       *blobWalker
	mg      bool
	members []int64 // MG: slot -> source id
	queue   []model.Point
	qi      int
}

func (s *Store) newRowIter(ctx context.Context, p blobPart, cache *blobCache, wantTags []int, tagRanges []TagRange) *rowIter {
	it := &rowIter{w: s.newBlobWalker(ctx, p, cache, wantTags, tagRanges)}
	if it.mg = p.tree == cacheTreeMG; it.mg {
		it.members = s.cat.GroupMembers(p.id)
	}
	return it
}

// enqueue appends the batch's in-range rows to the pending queue. When a
// cache is attached the batch is (or may become) shared across readers,
// so row values are copied on emission — callers own the Points an
// Iterator yields and may mutate them.
func (it *rowIter) enqueue(batch *DecodedBatch) {
	// Compact the emitted prefix before appending.
	if it.qi > 0 {
		it.queue = append(it.queue[:0], it.queue[it.qi:]...)
		it.qi = 0
	}
	part, shared := &it.w.part, it.w.cache != nil
	before := len(it.queue)
	for i, ts := range batch.Timestamps {
		src, ok := part.rowOwner(batch, i, it.members)
		if !ok {
			continue
		}
		vals := batch.Rows[i]
		if shared {
			vals = append([]float64(nil), vals...)
		}
		it.queue = append(it.queue, model.Point{Source: src, TS: ts, Values: vals})
	}
	// Batches rarely overlap; only re-sort when they do. MG records never
	// get here with rows pending: their queue drains before the next load.
	if before > 0 && len(it.queue) > before && it.queue[before].TS < it.queue[before-1].TS {
		sort.SliceStable(it.queue, func(a, b int) bool { return it.queue[a].TS < it.queue[b].TS })
	}
}

func (it *rowIter) Next() (model.Point, bool) {
	w := it.w
	for w.err == nil {
		if it.qi < len(it.queue) {
			// A batch row is safe to emit only when no unloaded batch
			// could still start before it.
			if it.mg || w.done || it.queue[it.qi].TS < w.nextTS {
				p := it.queue[it.qi]
				it.qi++
				return p, true
			}
		} else if w.done {
			break
		}
		if v, ok := w.next(); ok {
			if batch, ok := w.batch(v); ok {
				it.enqueue(batch)
			}
		}
	}
	return model.Point{}, false
}

func (it *rowIter) Err() error          { return it.w.err }
func (it *rowIter) BlobBytes() int64    { return it.w.bytesRead }
func (it *rowIter) BlobsSkipped() int64 { return it.w.skipped }

func keyCompare(a, b []byte) int { return bytes.Compare(a, b) }

// groupWindow returns the bucketing window of an MG group (its first
// member's sampling interval).
func (s *Store) groupWindow(group int64) int64 {
	members := s.cat.GroupMembers(group)
	if len(members) == 0 {
		return 1
	}
	ds, ok := s.cat.Source(members[0])
	if !ok || ds.IntervalMs <= 0 {
		return 1
	}
	return ds.IntervalMs
}

// snapshotSourceBuffer copies the buffered points of one source that fall
// in [t1, t2) — the dirty-read path ("the query component adopts a 'dirty
// read' isolation level to access uncommitted rows from concurrent
// insertions").
func (s *Store) snapshotSourceBuffer(source, t1, t2 int64) []model.Point {
	sh := s.shardFor(source)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	buf, ok := sh.buffers[source]
	if !ok {
		return nil
	}
	var out []model.Point
	for _, p := range buf.points {
		if p.TS >= t1 && p.TS < t2 {
			out = append(out, p.Clone())
		}
	}
	return out
}

// snapshotGroupBuffer copies buffered MG rows of a group in [t1, t2),
// optionally restricted to one source.
func (s *Store) snapshotGroupBuffer(group, t1, t2, onlySource int64) []model.Point {
	sh := s.shardFor(group)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	gb, ok := sh.groups[group]
	if !ok {
		return nil
	}
	var out []model.Point
	for _, row := range gb.rows {
		for slot, present := range row.present {
			if !present {
				continue
			}
			pts := row.tss[slot]
			if pts < t1 || pts >= t2 {
				continue
			}
			src := gb.members[slot]
			if onlySource != 0 && src != onlySource {
				continue
			}
			vals := make([]float64, len(row.values[slot]))
			copy(vals, row.values[slot])
			out = append(out, model.Point{Source: src, TS: pts, Values: vals})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		return out[i].Source < out[j].Source
	})
	return out
}

// HistoricalScan returns the points of one source with t1 <= ts < t2, in
// timestamp order, decoding only wantTags (nil = all). It merges persisted
// batches, still-unreorganized MG records, and the in-memory ingest buffer
// (dirty read).
func (s *Store) HistoricalScan(source, t1, t2 int64, wantTags []int, tagRanges ...TagRange) (Iterator, error) {
	return s.HistoricalScanOpts(source, t1, t2, wantTags, ScanOptions{}, tagRanges...)
}

// HistoricalScanOpts is HistoricalScan with scan tuning. With Workers > 1
// the batch walk (and the MG record walk, for group-ingesting sources) is
// split into ts-disjoint sub-ranges drained on the worker pool; because
// the sub-ranges partition the window by timestamp and the merge is
// stable, the output is identical to the serial scan.
func (s *Store) HistoricalScanOpts(source, t1, t2 int64, wantTags []int, opts ScanOptions, tagRanges ...TagRange) (Iterator, error) {
	workers := clampWorkers(opts.Workers)
	parts, err := s.planSource(source, t1, t2, workers)
	if err != nil {
		return nil, err
	}
	its := s.drainParts(opts.Ctx, s.partIters(parts, opts, wantTags, tagRanges), workers, maxPartBufferBytes)
	switch len(its) {
	case 0:
		return emptyIter{}, nil
	case 1:
		return its[0], nil
	}
	return newMergeIter(its), nil
}

// partIters opens every part as its serial iterator, in plan order. A
// buffer part snapshots the ingest buffer now — after the tree parts
// before it have seeked — and is dropped when empty.
func (s *Store) partIters(parts []blobPart, opts ScanOptions, wantTags []int, tagRanges []TagRange) []Iterator {
	cache := s.scanCache(opts)
	its := make([]Iterator, 0, len(parts))
	for _, p := range parts {
		if !p.buffer {
			its = append(its, s.newRowIter(opts.Ctx, p, cache, wantTags, tagRanges))
		} else if buf := s.bufferPoints(p); len(buf) > 0 {
			its = append(its, newSliceIter(buf))
		}
	}
	return its
}

// concatOf concatenates parts in order.
func concatOf(its []Iterator) Iterator {
	if len(its) == 0 {
		return emptyIter{}
	}
	return &concatIter{iters: its}
}

// SliceScan returns points of every source of a schema in [t1, t2) —
// the paper's slice query ("data generated by multiple data sources for a
// short time window"). MG groups serve slices directly from their
// time-keyed records; RTS/IRTS sources are visited per source. Output is
// grouped per source/group, not globally time-sorted.
func (s *Store) SliceScan(schemaID int64, t1, t2 int64, wantTags []int, tagRanges ...TagRange) (Iterator, error) {
	return s.SliceScanOpts(schemaID, t1, t2, wantTags, ScanOptions{}, tagRanges...)
}

// SliceScanOpts is SliceScan with scan tuning. With Workers > 1 the
// per-source and per-group parts are drained concurrently on the worker
// pool and concatenated in their original order, so the output matches
// the serial scan exactly.
func (s *Store) SliceScanOpts(schemaID int64, t1, t2 int64, wantTags []int, opts ScanOptions, tagRanges ...TagRange) (Iterator, error) {
	its := s.partIters(s.planSlice(schemaID, t1, t2), opts, wantTags, tagRanges)
	return concatOf(s.drainParts(opts.Ctx, its, clampWorkers(opts.Workers), maxPartBufferBytes)), nil
}

// MultiHistoricalScan concatenates historical scans for an explicit list
// of sources (the id IN (...) pushdown). Output is grouped per source.
func (s *Store) MultiHistoricalScan(sources []int64, t1, t2 int64, wantTags []int, tagRanges ...TagRange) (Iterator, error) {
	return s.MultiHistoricalScanOpts(sources, t1, t2, wantTags, ScanOptions{}, tagRanges...)
}

// MultiHistoricalScanOpts is MultiHistoricalScan with scan tuning. With
// Workers > 1 each source's (serial) historical scan becomes one part on
// the worker pool; parts are concatenated in list order.
func (s *Store) MultiHistoricalScanOpts(sources []int64, t1, t2 int64, wantTags []int, opts ScanOptions, tagRanges ...TagRange) (Iterator, error) {
	its := make([]Iterator, 0, len(sources))
	for _, src := range sources {
		// Each part stays serial inside; the fan-out is across sources.
		it, err := s.HistoricalScanOpts(src, t1, t2, wantTags, ScanOptions{NoCache: opts.NoCache, Ctx: opts.Ctx}, tagRanges...)
		if err != nil {
			// Unknown ids in the IN list simply contribute no rows.
			continue
		}
		its = append(its, it)
	}
	return concatOf(s.drainParts(opts.Ctx, its, clampWorkers(opts.Workers), maxPartBufferBytes)), nil
}

// bufferEmpty reports whether a source has no buffered points.
func (s *Store) bufferEmpty(source int64) bool {
	sh := s.shardFor(source)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	buf, ok := sh.buffers[source]
	return !ok || len(buf.points) == 0
}
