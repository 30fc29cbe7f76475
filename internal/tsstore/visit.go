package tsstore

import (
	"context"
	"fmt"
	"math"

	"odh/internal/btree"
	"odh/internal/keyenc"
	"odh/internal/model"
)

// Every read of persisted history — row scans and aggregate folds alike —
// comes down to one blob-visit kernel: the blobWalker below walks the
// records of one (tree, id, range) part and hands each surviving record
// to its consumer as a blobVisit. The walker owns every per-record
// decision that does not depend on what the consumer does with the rows:
//
//   - the seek (widened by the batch lookback, or by one group window for
//     MG records, so records starting before the range are found),
//   - the key-range and id bound, and the ctx check before every record,
//   - the cache lookup, with the cache versions snapshotted at leaf load,
//   - the raw value fetch, lenient quarantine, and the zone-map skip,
//   - the stub check, DecodeBlob, and building the cache entry.
//
// Two consumers sit on top: the row emitter behind Iterator (rowIter in
// scan.go) and the aggregate folder (foldPart in aggscan.go). Both get
// their parts from one planner (planSource, planSlice) and run them on
// one worker pool (fanOut in parallel.go).

// treeNames is the on-disk name of each batch tree, indexed by its cache
// tree id — the one mapping Open, integrity reports and StubbedRangeError
// share.
var treeNames = [...]string{cacheTreeRTS: "ts.rts", cacheTreeIRTS: "ts.irts", cacheTreeMG: "ts.mg"}

// treeFor maps a batch structure to its tree id.
func treeFor(st model.Structure) uint8 {
	switch st {
	case model.RTS:
		return cacheTreeRTS
	case model.IRTS:
		return cacheTreeIRTS
	default:
		return cacheTreeMG
	}
}

// blobPart is one independently runnable slice of a read: the records of
// one source (RTS/IRTS) or group (MG) in one tree over one ts range, or,
// when buffer is set, the dirty-read ingest buffer of that source or group.
type blobPart struct {
	tree       uint8 // cacheTree*: the tree the records (or buffered points) belong to
	id         int64 // source id, or group id for MG
	r          scanRange
	lookback   int64 // RTS/IRTS: widest batch span, widens the seek
	onlySource int64 // MG: member filter (0 = every member)
	buffer     bool
}

// rowOwner attributes row i of a decoded record to its source: the part's
// source for RTS/IRTS, the slot's group member for MG. ok is false when
// the row lies outside the part's range, belongs to an unknown slot, or
// fails the MG member filter. Both kernel consumers use it, so row scans
// and aggregate folds see exactly the same rows.
func (p *blobPart) rowOwner(batch *DecodedBatch, i int, members []int64) (src int64, ok bool) {
	if ts := batch.Timestamps[i]; ts < p.r.t1 || ts >= p.r.t2 {
		return 0, false
	}
	if p.tree != cacheTreeMG {
		return p.id, true
	}
	slot := batch.Slots[i]
	if slot >= len(members) {
		return 0, false
	}
	src = members[slot]
	return src, p.onlySource == 0 || src == p.onlySource
}

// bufferPoints snapshots a buffer part's points inside its range. The
// snapshot is taken when the part is opened, not when it is planned.
func (s *Store) bufferPoints(p blobPart) []model.Point {
	if p.tree == cacheTreeMG {
		return s.snapshotGroupBuffer(p.id, p.r.t1, p.r.t2, p.onlySource)
	}
	return s.snapshotSourceBuffer(p.id, p.r.t1, p.r.t2)
}

// planSource decomposes one source's read over [t1, t2): its batch records
// split into up to workers ts-disjoint ranges, its group's MG records over
// the same ranges (group-ingesting sources), and the dirty-read buffer.
// Reorganized history lives per-source in RTS/IRTS while the remainder is
// still in the group's MG records and buffer; every point lives in exactly
// one structure, so the parts partition the read.
func (s *Store) planSource(source, t1, t2 int64, workers int) ([]blobPart, error) {
	ds, ok := s.cat.Source(source)
	if !ok {
		return nil, fmt.Errorf("tsstore: unknown data source %d", source)
	}
	stats := s.cat.Stats(source)
	ranges := splitScanRange(t1, t2, stats, workers)
	var parts []blobPart
	if ds.IngestStructure() != model.MG {
		for _, r := range ranges {
			parts = append(parts, blobPart{tree: treeFor(ds.IngestStructure()), id: source, r: r, lookback: stats.MaxSpanMs})
		}
		return append(parts, blobPart{tree: cacheTreeRTS, id: source, r: scanRange{t1, t2}, buffer: true}), nil
	}
	if stats.BatchCount > 0 {
		for _, r := range ranges {
			parts = append(parts, blobPart{tree: treeFor(ds.HistoricalStructure()), id: source, r: r, lookback: stats.MaxSpanMs})
		}
	}
	for _, r := range ranges {
		parts = append(parts, blobPart{tree: cacheTreeMG, id: ds.Group, r: r, onlySource: source})
	}
	return append(parts, blobPart{tree: cacheTreeMG, id: ds.Group, r: scanRange{t1, t2}, onlySource: source, buffer: true}), nil
}

// planSlice decomposes a slice read of every source of a schema: each MG
// group (its members' reorganized batches, its records, its buffer), then
// each RTS/IRTS source with data in range (partition elimination).
func (s *Store) planSlice(schemaID, t1, t2 int64) []blobPart {
	full := scanRange{t1, t2}
	var parts []blobPart
	for _, g := range s.cat.GroupsBySchema(schemaID) {
		for _, src := range s.cat.GroupMembers(g) {
			ds, ok := s.cat.Source(src)
			if !ok {
				continue
			}
			if stats := s.cat.Stats(src); stats.BatchCount > 0 {
				parts = append(parts, blobPart{tree: treeFor(ds.HistoricalStructure()), id: src, r: full, lookback: stats.MaxSpanMs})
			}
		}
		parts = append(parts, blobPart{tree: cacheTreeMG, id: g, r: full}, blobPart{tree: cacheTreeMG, id: g, r: full, buffer: true})
	}
	for _, src := range s.cat.SourcesBySchema(schemaID) {
		ds, ok := s.cat.Source(src)
		if !ok || ds.IngestStructure() == model.MG {
			continue
		}
		stats := s.cat.Stats(src)
		if stats.PointCount > 0 && (stats.LastTS < t1 || stats.FirstTS >= t2) && s.bufferEmpty(src) {
			continue // partition elimination: source has no data in range
		}
		parts = append(parts,
			blobPart{tree: treeFor(ds.IngestStructure()), id: src, r: full, lookback: stats.MaxSpanMs},
			blobPart{tree: cacheTreeRTS, id: src, r: full, buffer: true})
	}
	return parts
}

// blobWalker is the blob-visit kernel: a pull-based walk over the records
// of one part. It is not safe for concurrent use.
type blobWalker struct {
	s        *Store
	part     blobPart
	cur      *btree.Cursor
	hi       []byte
	wantTags []int
	zones    []TagRange // zone-map skip ranges (nil = no skipping)
	ctx      context.Context
	cache    *blobCache // nil = bypass
	sig      string     // cache variant: canonical wantTags signature
	// vers is the cache version array snapshotted by the cursor's
	// leaf-load hook — pinned no later than the moment the current cell's
	// bytes were copied out of the tree, which is what makes the put-time
	// version check sound (see blobCache.vers).
	vers [cacheVerSlots]uint64

	nextTS int64 // base timestamp of the record under the cursor
	done   bool  // the cursor left the part's key range
	err    error
	visit  blobVisit // reused for every record

	// bytesRead totals decoded blob bytes (cache hits add nothing — they
	// count in the cache's BytesSaved); skipped counts zone-map exclusions.
	bytesRead, skipped int64
}

// blobVisit is one record the walker stopped at: either a cache hit or
// the raw blob bytes. The summary, sub-summaries and rows are produced
// on demand (blobVisit.summary, blobWalker.subSummaries and
// blobWalker.batch), so a consumer pays only for what it uses.
type blobVisit struct {
	ts      int64 // record base timestamp
	blobLen int64
	hit     *cacheEntry // non-nil on a cache hit
	raw     []byte      // the blob on a miss
	ver     uint64      // cache version guarding the miss's insert

	sum       *blobSummary
	afterSum  []byte // the raw header bytes after the summary block
	sumParsed bool
}

// newBlobWalker seeks to the first record of p that can hold rows of its
// range. A batch may start up to lookback before the range and spill into
// it; an MG record's members carry offsets up to one group window.
func (s *Store) newBlobWalker(ctx context.Context, p blobPart, cache *blobCache, wantTags []int, zones []TagRange) *blobWalker {
	lo := p.r.t1
	if p.tree == cacheTreeMG {
		if w := s.groupWindow(p.id); lo > math.MinInt64+w {
			lo -= w
		}
	} else if p.lookback > 0 {
		if lo > math.MinInt64+p.lookback+1 {
			lo -= p.lookback + 1
		} else {
			lo = math.MinInt64
		}
	}
	w := &blobWalker{s: s, part: p, hi: keyenc.SourceTime(p.id, p.r.t2), wantTags: wantTags, zones: zones, ctx: ctx, cache: cache}
	tree, seekKey := s.trees[p.tree], keyenc.SourceTime(p.id, lo)
	if cache != nil {
		w.sig = tagsSig(wantTags)
		w.cur = tree.SeekWithLoadHook(seekKey, func() { cache.snapshotAll(&w.vers) })
	} else {
		w.cur = tree.Seek(seekKey)
	}
	w.peek()
	return w
}

// peek records the base timestamp of the record under the cursor, or marks
// the walk done when the cursor left the (id, [lo, t2)) range.
func (w *blobWalker) peek() {
	if !w.cur.Valid() {
		w.err = w.cur.Err()
		w.done = true
		return
	}
	key := w.cur.Key()
	if keyCompare(key, w.hi) >= 0 {
		w.done = true
		return
	}
	id, ts, err := keyenc.DecodeSourceTime(key)
	if err != nil {
		w.err = err
	}
	if err != nil || id != w.part.id {
		w.done = true
		return
	}
	w.nextTS = ts
}

// advance moves past the record under the cursor.
func (w *blobWalker) advance() {
	w.cur.Next()
	w.peek()
}

// fail ends the walk with err unless lenient mode quarantines it, in
// which case the record is counted as corrupt and skipped.
func (w *blobWalker) fail(err error) {
	if w.s.lenient() {
		w.s.noteCorruptBlob()
		return
	}
	w.err = err
	w.done = true
}

// next returns the next record that survives the zone-map skip, or false
// when the walk is over (check err). The visit is reused by the next call,
// which first drops the previous record's bytes: a finished walker that a
// query still holds (a drained part of a concatenation) pins no blob.
func (w *blobWalker) next() (*blobVisit, bool) {
	v := &w.visit
	*v = blobVisit{}
	for !w.done && w.err == nil {
		if err := ctxErr(w.ctx); err != nil {
			w.err = err
			break
		}
		*v = blobVisit{ts: w.nextTS}
		bk := blobKey{tree: w.part.tree, source: w.part.id, ts: v.ts}
		if w.cache != nil {
			if e, ok := w.cache.get(bk, w.sig); ok {
				w.advance()
				// The skip decision replays against the zone maps captured
				// at decode time, so hits behave exactly like the raw path.
				if !e.overlaps(w.zones) {
					w.skipped++
					continue
				}
				v.hit, v.blobLen = e, e.blobLen
				v.sum, v.sumParsed = e.summary, true
				return v, true
			}
			// The version guarding the insert was snapshotted when the
			// cursor copied this cell's leaf, so it predates the bytes
			// Value() returns; read it before Next() can reload it.
			v.ver = w.vers[bk.slot()]
		}
		blob, err := w.cur.Value()
		if err != nil {
			if w.fail(err); !w.done {
				w.advance()
			}
			continue
		}
		w.advance()
		if !BlobOverlaps(blob, w.zones) {
			w.skipped++
			continue
		}
		v.raw, v.blobLen = blob, int64(len(blob))
		return v, true
	}
	return nil, false
}

// summary returns the record's whole-blob summary: parsed from the header
// on a miss, the cached one on a hit; nil for a legacy blob not cached yet.
func (v *blobVisit) summary() *blobSummary {
	if !v.sumParsed {
		v.sum, v.afterSum, _ = parseBlobSummaryRest(v.raw, v.ts)
		v.sumParsed = true
	}
	return v.sum
}

// subSummaries returns the record's per-sub-bucket summaries: the v3
// header block on a miss, the cache entry's on a hit; nil when absent.
func (w *blobWalker) subSummaries(v *blobVisit) *subSummaries {
	if v.hit != nil {
		return v.hit.subSummaries(w.s.cfg.SubBucketMs)
	}
	if v.raw[0]&flagSubBuckets == 0 || v.summary() == nil {
		return nil
	}
	sub, _ := parseSubBucketBlock(v.sum, v.afterSum)
	return sub
}

// batch returns the record's decoded rows, or false when the record must
// be skipped (lenient quarantine, or a stub whose rows all fall outside
// the part's range) or the walk failed (check err). A miss is decoded and
// cached together with its summary (sub-summaries follow on first use),
// so every later reader — scan or aggregate — finds the same entry.
func (w *blobWalker) batch(v *blobVisit) (*DecodedBatch, bool) {
	if v.hit != nil {
		w.cache.noteSaved(v.blobLen)
		return v.hit.batch, true
	}
	if IsStubBlob(v.raw) {
		sum := v.summary()
		if sum == nil {
			// A stub without a readable summary is corruption, not policy.
			w.fail(fmt.Errorf("tsstore: corrupt stub blob %s id=%d ts=%d", treeNames[w.part.tree], w.part.id, v.ts))
			return nil, false
		}
		if sum.rows == 0 || sum.lastTS < w.part.r.t1 || sum.firstTS >= w.part.r.t2 {
			return nil, false // every stubbed row falls outside the range: nothing lost
		}
		// Rows inside the range were dropped by tier policy: degrade
		// loudly rather than silently return fewer rows. Lenient mode never
		// swallows this — a stub is not a corrupt record.
		w.err = &StubbedRangeError{Tree: treeNames[w.part.tree], Source: w.part.id, TS: v.ts, FirstTS: sum.firstTS, LastTS: sum.lastTS}
		w.done = true
		return nil, false
	}
	batch, err := DecodeBlob(v.raw, v.ts, w.wantTags)
	if err != nil {
		w.fail(err)
		return nil, false
	}
	w.bytesRead += v.blobLen
	if w.cache != nil {
		sum := v.summary()
		if sum == nil {
			// Legacy blob: the decode pays for a summary that later
			// aggregates fold from the cache (lazy upgrade).
			ntags := 0
			if len(batch.Rows) > 0 {
				ntags = len(batch.Rows[0])
			}
			sum = summaryFromBatch(batch, ntags)
		}
		zones, hasZones := blobZoneMaps(v.raw)
		w.cache.put(blobKey{tree: w.part.tree, source: w.part.id, ts: v.ts}, w.sig, v.ver, batch, zones, hasZones, v.blobLen, sum)
	}
	return batch, true
}
