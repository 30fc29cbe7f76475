package tsstore

import (
	"odh/internal/keyenc"
	"odh/internal/model"
)

// DropResult summarizes a retention pass.
type DropResult struct {
	// RecordsDropped counts deleted batch records across structures.
	RecordsDropped int
	// BytesReclaimed is the ValueBlob payload removed.
	BytesReclaimed int64
}

// DropBefore deletes all persisted batches of a schema whose data lies
// entirely before the cutoff — the retention pass an operational
// historian runs to age out data past its lifecycle. Batches straddling
// the cutoff are kept whole (retention is batch-granular, like the
// paper's storage model). In-memory buffers are untouched: they only hold
// recent data.
func (s *Store) DropBefore(schemaID int64, cutoff int64) (DropResult, error) {
	res := DropResult{}
	// Per-source RTS/IRTS batches.
	for _, src := range s.cat.SourcesBySchema(schemaID) {
		ds, ok := s.cat.Source(src)
		if !ok {
			continue
		}
		for _, structure := range []model.Structure{model.RTS, model.IRTS} {
			n, bytes, err := s.dropSourceRange(treeFor(structure), src, cutoff)
			if err != nil {
				return res, err
			}
			if n > 0 {
				res.RecordsDropped += n
				res.BytesReclaimed += bytes
				if err := s.cat.UpdateStats(src, model.SourceStats{
					BatchCount: -int64(n),
					BlobBytes:  -bytes,
				}); err != nil {
					return res, err
				}
			}
		}
		_ = ds
	}
	// MG records per group; a record's window must end before the cutoff.
	for _, g := range s.cat.GroupsBySchema(schemaID) {
		window := s.groupWindow(g)
		effective := cutoff - window
		if effective <= 0 {
			continue
		}
		n, bytes, err := s.dropSourceRange(cacheTreeMG, g, effective)
		if err != nil {
			return res, err
		}
		if n > 0 {
			res.RecordsDropped += n
			res.BytesReclaimed += bytes
			if err := s.cat.UpdateGroupStats(g, model.SourceStats{
				BatchCount: -int64(n),
				BlobBytes:  -bytes,
			}); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// dropSourceRange deletes records of one key prefix whose batch data ends
// before the cutoff: a batch is dropped only when its last timestamp is
// below the cutoff. The last timestamp comes straight from the v2 summary
// header — no payload decode; only legacy (pre-summary) blobs pay for a
// full decode. Summary-only stubs qualify like any other blob: retention
// is the tier lifecycle's final stage.
func (s *Store) dropSourceRange(treeID uint8, prefix int64, cutoff int64) (int, int64, error) {
	tree := s.trees[treeID]
	lo := keyenc.SourceTime(prefix, -1<<62)
	hi := keyenc.SourceTime(prefix, cutoff)
	var keys [][]byte
	var sizes []int64
	err := tree.Scan(lo, hi, func(k, v []byte) bool {
		_, baseTS, err := keyenc.DecodeSourceTime(k)
		if err != nil {
			return true
		}
		last, ok := blobLastTS(v, baseTS)
		if !ok {
			batch, err := DecodeBlob(v, baseTS, []int{})
			if err != nil {
				return true
			}
			last = baseTS
			// MG offsets are stored in slot order, so take the maximum
			// rather than trusting the final entry.
			for _, ts := range batch.Timestamps {
				if ts > last {
					last = ts
				}
			}
		}
		if last >= cutoff {
			return true // straddles the cutoff; keep whole
		}
		keys = append(keys, append([]byte(nil), k...))
		sizes = append(sizes, int64(len(v)))
		return true
	})
	if err != nil {
		return 0, 0, err
	}
	deleted := 0
	var deletedBytes int64
	for i, k := range keys {
		err := tree.Delete(k)
		if _, ts, derr := keyenc.DecodeSourceTime(k); derr == nil {
			s.invalidateBlob(treeID, prefix, ts)
		}
		if err != nil {
			// Count only what actually came out of the tree: a failed
			// Delete must not inflate DropResult or drive catalog stats
			// negative for records that are still there.
			return deleted, deletedBytes, err
		}
		deleted++
		deletedBytes += sizes[i]
	}
	return deleted, deletedBytes, nil
}
