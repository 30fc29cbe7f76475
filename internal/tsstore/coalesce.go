package tsstore

import (
	"odh/internal/keyenc"
	"odh/internal/model"
)

// CoalesceResult summarizes one compaction pass.
type CoalesceResult struct {
	// BatchesBefore and BatchesAfter count the source's records around
	// the pass.
	BatchesBefore, BatchesAfter int
	// BytesBefore and BytesAfter measure the blob payload.
	BytesBefore, BytesAfter int64
}

// CoalesceSource rewrites a source's persisted RTS/IRTS history so runs of
// undersized batches merge into full ones. Out-of-order ingest splits and
// the MG duplicate-overflow path leave single-point batches behind; this
// maintenance pass restores the b-points-per-record invariant that the
// data model's I/O amortization depends on. Only batches below
// batchSize/2 trigger a rewrite; the pass is a no-op on healthy history.
func (s *Store) CoalesceSource(source int64) (CoalesceResult, error) {
	res := CoalesceResult{}
	ds, ok := s.cat.Source(source)
	if !ok {
		return res, nil
	}
	schema, ok := s.cat.SchemaByID(ds.SchemaID)
	if !ok {
		return res, nil
	}
	structure := ds.IngestStructure()
	if structure == model.MG {
		structure = ds.HistoricalStructure()
	}
	treeID := treeFor(structure)
	tree := s.trees[treeID]

	// Collect the source's batches and find undersized ones.
	lo := keyenc.SourceTime(source, -1<<62)
	hi := keyenc.PrefixSuccessor(keyenc.PrefixInt64(source))
	type rec struct {
		key    []byte
		count  int
		bytes  int
		points []model.Point
	}
	var recs []rec
	small := 0
	err := tree.Scan(lo, hi, func(k, v []byte) bool {
		_, baseTS, err := keyenc.DecodeSourceTime(k)
		if err != nil {
			return true
		}
		if BlobTier(v) != TierHot {
			// Cold blobs were already compacted at a larger granularity and
			// stubs have no payload; both stay where the tier pass put them.
			return true
		}
		batch, err := DecodeBlob(v, baseTS, nil)
		if err != nil {
			return true
		}
		pts := make([]model.Point, len(batch.Timestamps))
		for i := range pts {
			pts[i] = model.Point{Source: source, TS: batch.Timestamps[i], Values: batch.Rows[i]}
		}
		recs = append(recs, rec{
			key:    append([]byte(nil), k...),
			count:  len(pts),
			bytes:  len(v),
			points: pts,
		})
		if len(pts)*2 < s.cfg.BatchSize {
			small++
		}
		return true
	})
	if err != nil {
		return res, err
	}
	res.BatchesBefore = len(recs)
	for _, r := range recs {
		res.BytesBefore += int64(r.bytes)
	}
	res.BatchesAfter = res.BatchesBefore
	res.BytesAfter = res.BytesBefore
	if small == 0 || len(recs) < 2 {
		return res, nil
	}

	// Rebuild the full history: merge all points in timestamp order (a
	// source's total history fits the maintenance window by assumption;
	// callers with huge histories run DropBefore first or coalesce after
	// retention).
	var all []model.Point
	for _, r := range recs {
		all = append(all, r.points...)
	}
	// Batches can overlap after out-of-order ingest; restore global order
	// with a stable merge (mostly-sorted input).
	insertionSortPoints(all)
	for _, r := range recs {
		err := tree.Delete(r.key)
		if _, ts, derr := keyenc.DecodeSourceTime(r.key); derr == nil {
			s.invalidateBlob(treeID, source, ts)
		}
		if err != nil {
			return res, err
		}
	}
	// Reset stats contributions from the deleted batches.
	if err := s.cat.UpdateStats(source, model.SourceStats{
		BatchCount: -int64(len(recs)),
		PointCount: -int64(len(all)),
		BlobBytes:  -res.BytesBefore,
	}); err != nil {
		return res, err
	}
	n, err := s.writeHistoricalBatches(ds, schema, all)
	if err != nil {
		return res, err
	}
	res.BatchesAfter = n
	res.BytesAfter = 0
	err = tree.Scan(lo, hi, func(k, v []byte) bool {
		res.BytesAfter += int64(len(v))
		return true
	})
	return res, err
}

// insertionSortPoints sorts nearly-sorted point slices in place.
func insertionSortPoints(pts []model.Point) {
	for i := 1; i < len(pts); i++ {
		j := i
		for j > 0 && pts[j].TS < pts[j-1].TS {
			pts[j], pts[j-1] = pts[j-1], pts[j]
			j--
		}
	}
}

// Coalesce runs CoalesceSource over every source of a schema.
func (s *Store) Coalesce(schemaID int64) (CoalesceResult, error) {
	total := CoalesceResult{}
	for _, src := range s.cat.SourcesBySchema(schemaID) {
		res, err := s.CoalesceSource(src)
		if err != nil {
			return total, err
		}
		total.BatchesBefore += res.BatchesBefore
		total.BatchesAfter += res.BatchesAfter
		total.BytesBefore += res.BytesBefore
		total.BytesAfter += res.BytesAfter
	}
	return total, nil
}
