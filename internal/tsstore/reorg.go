package tsstore

import (
	"odh/internal/keyenc"
	"odh/internal/model"
)

// The reorganizer implements the third and fourth rows of the paper's
// Table 1: low-frequency data ingests through MG (one record per
// timestamp per group) but historical queries over a single source want
// per-source sequential batches, so older MG records are converted into
// RTS (regular sources) or IRTS (irregular sources) batches. Slice
// queries keep using MG for the unconverted recent stripe; the per-group
// watermark separates the two regimes.

// ReorgResult summarizes one reorganization pass.
type ReorgResult struct {
	// Groups is the number of groups touched.
	Groups int
	// RecordsConverted is the number of MG records consumed.
	RecordsConverted int
	// BatchesWritten is the number of RTS/IRTS batches produced.
	BatchesWritten int
	// PointsMoved is the number of operational points rehomed.
	PointsMoved int
}

// ReorganizeGroup converts the MG records of one group with ts < upTo into
// per-source RTS/IRTS batches, deletes them from the MG tree, and advances
// the group's watermark. It is safe to run while ingest continues; the
// affected stripe is strictly below any timestamps still being written
// when upTo is chosen below the oldest open buffer row.
func (s *Store) ReorganizeGroup(group int64, upTo int64) (ReorgResult, error) {
	res := ReorgResult{}
	members := s.cat.GroupMembers(group)
	if len(members) == 0 {
		return res, nil
	}
	wm := s.watermark(group)
	if upTo <= wm {
		return res, nil // stripe already converted
	}
	ds0, ok := s.cat.Source(members[0])
	if !ok {
		return res, nil
	}
	schema, ok := s.cat.SchemaByID(ds0.SchemaID)
	if !ok {
		return res, nil
	}

	// Gather the stripe per member.
	perSource := make(map[int64][]model.Point, len(members))
	var keys [][]byte
	var reclaimedBlobBytes, reclaimedPoints int64
	lo := keyenc.SourceTime(group, wm)
	hi := keyenc.SourceTime(group, upTo)
	err := s.trees[cacheTreeMG].Scan(lo, hi, func(k, v []byte) bool {
		_, ts, err := keyenc.DecodeSourceTime(k)
		if err != nil {
			return true
		}
		batch, err := DecodeBlob(v, ts, nil)
		if err != nil {
			return true
		}
		for i, slot := range batch.Slots {
			if slot >= len(members) {
				continue
			}
			src := members[slot]
			// Each member's exact timestamp is the window base plus its
			// stored offset, carried in the decoded batch.
			perSource[src] = append(perSource[src], model.Point{Source: src, TS: batch.Timestamps[i], Values: batch.Rows[i]})
			reclaimedPoints++
		}
		reclaimedBlobBytes += int64(len(v))
		keys = append(keys, append([]byte(nil), k...))
		res.RecordsConverted++
		return true
	})
	if err != nil {
		return res, err
	}
	if res.RecordsConverted == 0 {
		return res, s.setWatermark(group, upTo)
	}

	// Write per-source batches. MG scans are time-ordered, so each
	// member's points arrive sorted.
	for _, src := range members {
		pts := perSource[src]
		if len(pts) == 0 {
			continue
		}
		ds, ok := s.cat.Source(src)
		if !ok {
			continue
		}
		n, err := s.writeHistoricalBatches(ds, schema, pts)
		if err != nil {
			return res, err
		}
		res.BatchesWritten += n
		res.PointsMoved += len(pts)
	}

	// Remove the converted MG records and advance the watermark.
	for _, k := range keys {
		err := s.trees[cacheTreeMG].Delete(k)
		if _, ts, derr := keyenc.DecodeSourceTime(k); derr == nil {
			s.invalidateBlob(cacheTreeMG, group, ts)
		}
		if err != nil {
			return res, err
		}
	}
	if err := s.cat.UpdateGroupStats(group, model.SourceStats{
		BatchCount: -int64(res.RecordsConverted),
		PointCount: -reclaimedPoints,
		BlobBytes:  -reclaimedBlobBytes,
	}); err != nil {
		return res, err
	}
	res.Groups = 1
	return res, s.setWatermark(group, upTo)
}

// writeHistoricalBatches packs a sorted per-source point run into RTS or
// IRTS batches of at most batchSize points, splitting RTS runs at gaps.
func (s *Store) writeHistoricalBatches(ds *model.DataSource, schema *model.SchemaType, pts []model.Point) (int, error) {
	n, _, err := s.writeBatchesOpts(ds, schema, pts, ds.HistoricalStructure(), s.encodeOptsFor(schema), s.cfg.BatchSize)
	return n, err
}

// writeBatchesOpts is the parameterized batch writer behind both the
// reorganizer (store defaults) and the cold compaction pass, which rewrites
// aged history at a larger batch granularity with max-effort encoding. It
// returns the batch count and the blob bytes written.
func (s *Store) writeBatchesOpts(ds *model.DataSource, schema *model.SchemaType, pts []model.Point, structure model.Structure, opts encodeOpts, batchSize int) (int, int64, error) {
	ntags := len(schema.Tags)
	treeID := treeFor(structure)
	batches := 0
	var blobBytes int64
	flush := func(run []model.Point) error {
		if len(run) == 0 {
			return nil
		}
		var blob []byte
		if structure == model.RTS {
			blob = EncodeRTS(run, ntags, ds.IntervalMs, opts)
		} else {
			blob = EncodeIRTS(run, ntags, opts)
		}
		err := s.trees[treeID].Put(keyenc.SourceTime(ds.ID, run[0].TS), blob)
		s.invalidateBlob(treeID, ds.ID, run[0].TS)
		if err != nil {
			return err
		}
		first, last := run[0].TS, run[len(run)-1].TS
		if err := s.cat.UpdateStats(ds.ID, model.SourceStats{
			BatchCount: 1,
			PointCount: int64(len(run)),
			BlobBytes:  int64(len(blob)),
			FirstTS:    first,
			LastTS:     last,
			MaxSpanMs:  last - first,
		}); err != nil {
			return err
		}
		batches++
		blobBytes += int64(len(blob))
		return nil
	}
	for _, run := range splitBatchRuns(pts, structure, ds.IntervalMs, batchSize) {
		if err := flush(run); err != nil {
			return batches, blobBytes, err
		}
	}
	return batches, blobBytes, nil
}

// splitBatchRuns partitions a sorted point slice into batch runs of at
// most batchSize points, splitting RTS runs at sampling gaps and capping
// each run's time span at batchSize sampling intervals so batches stay
// aligned with the data's natural cadence; retention (which drops whole
// batches) then keeps working after reorganization, coalescing, and cold
// compaction. The returned runs alias pts. The split is deterministic:
// the cold pass dry-runs it for key-collision checks before the writer
// replays it.
func splitBatchRuns(pts []model.Point, structure model.Structure, intervalMs int64, batchSize int) [][]model.Point {
	maxSpan := int64(0)
	if intervalMs > 0 {
		maxSpan = int64(batchSize) * intervalMs
	}
	var runs [][]model.Point
	start := 0
	for i := 1; i < len(pts); i++ {
		gap := structure == model.RTS && pts[i].TS != pts[i-1].TS+intervalMs
		tooWide := maxSpan > 0 && pts[i].TS-pts[start].TS >= maxSpan
		if gap || tooWide || i-start >= batchSize {
			runs = append(runs, pts[start:i])
			start = i
		}
	}
	if start < len(pts) {
		runs = append(runs, pts[start:])
	}
	return runs
}

// writeHistoricalPoint stores a single point directly in the source's
// historical structure (the MG duplicate-sample overflow path).
func (s *Store) writeHistoricalPoint(ds *model.DataSource, schema *model.SchemaType, p model.Point) error {
	_, err := s.writeHistoricalBatches(ds, schema, []model.Point{p.Clone()})
	return err
}

// Reorganize converts every group of a schema up to the given timestamp.
// Historians typically run it periodically with upTo = now - retention of
// the "recent" slice-query window.
func (s *Store) Reorganize(schemaID int64, upTo int64) (ReorgResult, error) {
	total := ReorgResult{}
	for _, g := range s.cat.GroupsBySchema(schemaID) {
		res, err := s.ReorganizeGroup(g, upTo)
		if err != nil {
			return total, err
		}
		total.Groups += res.Groups
		total.RecordsConverted += res.RecordsConverted
		total.BatchesWritten += res.BatchesWritten
		total.PointsMoved += res.PointsMoved
	}
	return total, nil
}
