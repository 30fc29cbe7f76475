// Package tsstore implements the ODH storage component: the three batch
// structures of the paper's hybrid data model (Figure 1) — Regular Time
// Series (RTS), Irregular Time Series (IRTS), and Mixed Grouping (MG) —
// together with the ingest buffers, the flush path that packs b
// operational points into one indexed ValueBlob record, dirty-read scans,
// and the MG→RTS/IRTS reorganizer that Table 1 prescribes for historical
// queries over low-frequency sources.
package tsstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"odh/internal/compress"
	"odh/internal/model"
)

// ErrCorruptBlob reports an undecodable ValueBlob.
var ErrCorruptBlob = errors.New("tsstore: corrupt value blob")

// Blob format bytes. The tag-oriented flag is set when values are stored
// as per-tag columns (the paper's "tag-oriented approach"); without it the
// blob holds one row-major column (the layout ablation).
const (
	blobRTS  = 1
	blobIRTS = 2
	blobMG   = 3

	flagRowOriented = 0x80
	flagZoneMaps    = 0x40
	flagSummaries   = 0x20
	// The tier bits live in the low-5 format field: the three structures
	// only ever used values 1-3, so 0x10 and 0x08 were always zero, and
	// pre-tier readers (whose structure switch covers the whole 0x1F
	// field) reject tiered blobs as unknown formats instead of silently
	// misreading them.
	flagStub = 0x10 // summary-only stub: header kept, payload dropped
	flagCold = 0x08 // cold tier: recompacted at maximum codec effort
	// flagSubBuckets reuses the same carve-out trick: the structure values
	// never exceeded 3, so bit 0x04 was always zero and pre-v3 readers
	// (whose structure switch still covers it) reject sub-bucketed blobs
	// as unknown formats rather than misparsing the extra block.
	flagSubBuckets = 0x04 // v3: per-sub-bucket mini-summaries follow the summary block
	structMask     = 0x03
	formatMask     = 0x1F // the full pre-tier field (error reporting only)
)

// ErrStubbedBlob reports a payload decode attempted against a summary-only
// stub: the rows were dropped by the tier policy, so raw scans over the
// range fail explicitly — degradation is never a silent wrong answer.
// Aggregates keep folding from the surviving header summary.
var ErrStubbedBlob = errors.New("tsstore: blob aged to summary-only stub (raw rows dropped by tier policy)")

// Tier classifies a blob's storage lifecycle stage.
type Tier uint8

// Blob lifecycle tiers, in aging order.
const (
	TierHot  Tier = iota // as flushed by ingest or maintenance
	TierCold             // recompacted at maximum codec effort
	TierStub             // summary-only; payload dropped
)

// String names the tier for stats and CLI output.
func (t Tier) String() string {
	switch t {
	case TierHot:
		return "hot"
	case TierCold:
		return "cold"
	case TierStub:
		return "stub"
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// BlobTier reports which lifecycle tier a stored blob is in. A stub that
// was made from a cold blob reports TierStub (stub is the later stage).
func BlobTier(b []byte) Tier {
	if len(b) == 0 {
		return TierHot
	}
	switch {
	case b[0]&flagStub != 0:
		return TierStub
	case b[0]&flagCold != 0:
		return TierCold
	}
	return TierHot
}

// IsStubBlob reports whether b is a summary-only stub.
func IsStubBlob(b []byte) bool { return len(b) > 0 && b[0]&flagStub != 0 }

// TagRange is a pushed-down predicate bound on one tag: rows outside
// [Lo, Hi] cannot match. Zone maps let scans skip whole blobs whose
// per-tag min/max ranges do not overlap — the paper's future-work item
// "adding proper indexing to reduce BLOB scanning for queries on
// attribute values".
type TagRange struct {
	Tag    int
	Lo, Hi float64
}

// zoneMap holds one tag's min/max over a blob's present values. A column
// with no present values stores the empty sentinel (min > max).
type zoneMap struct {
	min, max float64
}

// tagStat accumulates one tag's statistics over the values a decode of
// the blob will return. For lossy compression policies the stored column
// deviates from the originals, so stats are computed from round-tripped
// values — folding a summary must be bit-identical to decoding and
// aggregating the rows.
type tagStat struct {
	nonNull  int64
	sum      float64
	min, max float64
}

func newTagStats(ntags int) []tagStat {
	stats := make([]tagStat, ntags)
	for i := range stats {
		stats[i].min = math.Inf(1)
		stats[i].max = math.Inf(-1)
	}
	return stats
}

// note folds one present value into the stat in row order (sum order must
// match the order a decode-then-aggregate pass would use).
func (s *tagStat) note(v float64) {
	s.nonNull++
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
}

// appendZoneMapsFromStats writes per-tag min/max. Empty columns keep the
// sentinel (min > max) that zonesOverlap treats as never matching.
func appendZoneMapsFromStats(dst []byte, stats []tagStat) []byte {
	for i := range stats {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(stats[i].min))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(stats[i].max))
	}
	return dst
}

// readZoneMaps parses ntags zone maps and returns the remaining bytes.
func readZoneMaps(b []byte, ntags int) ([]zoneMap, []byte, error) {
	if len(b) < ntags*16 {
		return nil, nil, ErrCorruptBlob
	}
	zones := make([]zoneMap, ntags)
	for i := range zones {
		zones[i].min = math.Float64frombits(binary.LittleEndian.Uint64(b[i*16:]))
		zones[i].max = math.Float64frombits(binary.LittleEndian.Uint64(b[i*16+8:]))
	}
	return zones, b[ntags*16:], nil
}

// zonesOverlap reports whether a blob with the given zone maps could
// contain a row satisfying every range. An empty-column sentinel never
// overlaps (all values are NULL, and NULL fails any comparison).
func zonesOverlap(zones []zoneMap, ranges []TagRange) bool {
	for _, r := range ranges {
		if r.Tag < 0 || r.Tag >= len(zones) {
			continue
		}
		z := zones[r.Tag]
		if z.min > z.max || z.max < r.Lo || z.min > r.Hi {
			return false
		}
	}
	return true
}

// blobZoneMaps parses the header zone maps of a blob without decoding its
// columns. It returns (nil, false) when the blob carries no zone maps or
// its header is unparseable — callers must then treat every tag range as
// potentially overlapping. The blob cache stores the result so hits keep
// exactly the skip behavior of the raw-blob path.
func blobZoneMaps(b []byte) ([]zoneMap, bool) {
	if len(b) < 1 || b[0]&flagZoneMaps == 0 {
		return nil, false
	}
	format := b[0] & structMask
	rest := b[1:]
	ntagsU, n := binary.Uvarint(rest)
	if n <= 0 || ntagsU > 1<<16 {
		return nil, false
	}
	rest = rest[n:]
	// Skip the structure-specific fields that precede the zone maps.
	switch format {
	case blobRTS:
		if _, n := binary.Uvarint(rest); n > 0 { // count
			rest = rest[n:]
		} else {
			return nil, false
		}
		if _, n := binary.Varint(rest); n > 0 { // interval
			rest = rest[n:]
		} else {
			return nil, false
		}
	case blobIRTS, blobMG:
		if _, n := binary.Uvarint(rest); n > 0 { // count / memberCount
			rest = rest[n:]
		} else {
			return nil, false
		}
	default:
		return nil, false
	}
	zones, _, err := readZoneMaps(rest, int(ntagsU))
	if err != nil {
		return nil, false
	}
	return zones, true
}

// BlobOverlaps reports whether a blob could contain rows satisfying every
// tag range, by peeking only at the header's zone maps — no column
// decode. It returns true (cannot skip) for blobs without zone maps or
// with unparseable headers.
func BlobOverlaps(b []byte, ranges []TagRange) bool {
	if len(ranges) == 0 {
		return true
	}
	zones, ok := blobZoneMaps(b)
	if !ok {
		return true
	}
	return zonesOverlap(zones, ranges)
}

// blobLayout controls how tag values are arranged inside a blob.
type blobLayout uint8

const (
	layoutTagOriented blobLayout = iota // per-tag columns, skippable
	layoutRowOriented                   // single interleaved column (ablation)
)

// encodeOpts carries per-store encoding configuration into the blob codec.
type encodeOpts struct {
	layout      blobLayout
	policies    []compress.Policy // per tag; nil means lossless for all
	disable     bool              // raw storage (compression ablation)
	legacy      bool              // write the pre-summary format (compat tests)
	cold        bool              // cold tier: max-effort lossless columns
	subBucketMs int64             // v3 sub-bucket base width; <=0 writes v2
}

func (o encodeOpts) policy(tag int) compress.Policy {
	p := compress.Policy{}
	if tag < len(o.policies) {
		p = o.policies[tag]
	}
	if o.disable {
		p.Disable = true
	}
	return p
}

// --- bitmaps ---

func bitmapLen(bits int) int { return (bits + 7) / 8 }

func setBit(bm []byte, i int)      { bm[i/8] |= 1 << (i % 8) }
func getBit(bm []byte, i int) bool { return bm[i/8]&(1<<(i%8)) != 0 }

// encodeColumns encodes the tag values of rows (each row has ntags values,
// NaN = NULL) with a presence bitmap and either tag-oriented columns or a
// single row-major column. It also returns per-tag statistics over the
// values a later decode will yield: for a lossy policy the freshly encoded
// column is round-tripped so the stats (and the zone maps and summary
// built from them) agree bit-for-bit with the decode path.
//
// When opts.subBucketMs > 0 the third return value holds the effective
// per-row values a decode will produce (the originals unless a lossy
// policy adjusted a column) so the sub-bucket block is built from the same
// values as the whole-blob summary; it is nil otherwise.
func encodeColumns(rows [][]float64, ntags int, opts encodeOpts) ([]byte, []tagStat, [][]float64) {
	count := len(rows)
	bm := make([]byte, bitmapLen(count*ntags))
	// Tag-major bit order so per-tag decode only needs its own stripe.
	for tag := 0; tag < ntags; tag++ {
		for row := 0; row < count; row++ {
			if !model.IsNull(rows[row][tag]) {
				setBit(bm, tag*count+row)
			}
		}
	}
	stats := newTagStats(ntags)
	var effRows [][]float64
	if opts.subBucketMs > 0 {
		effRows = rows // replaced lazily if a lossy policy adjusts values
	}
	dst := append([]byte(nil), bm...)
	if opts.layout == layoutRowOriented {
		// One interleaved column of all present values in row-major order.
		// The interleaved column is always lossless (or raw), so the
		// original values are exactly what decodes back.
		var vals []float64
		for row := 0; row < count; row++ {
			for tag := 0; tag < ntags; tag++ {
				if !model.IsNull(rows[row][tag]) {
					vals = append(vals, rows[row][tag])
				}
			}
		}
		var col []byte
		if opts.cold && !opts.disable {
			col = compress.EncodeColumnMaxEffort(nil, vals)
		} else {
			col = compress.EncodeColumn(nil, vals, compress.Policy{Disable: opts.disable})
		}
		dst = binary.AppendUvarint(dst, uint64(len(col)))
		dst = append(dst, col...)
		for tag := 0; tag < ntags; tag++ {
			for row := 0; row < count; row++ {
				if !model.IsNull(rows[row][tag]) {
					stats[tag].note(rows[row][tag])
				}
			}
		}
		// The interleaved column is lossless, so effRows stays the input.
		return dst, stats, effRows
	}
	for tag := 0; tag < ntags; tag++ {
		var vals []float64
		for row := 0; row < count; row++ {
			if getBit(bm, tag*count+row) {
				vals = append(vals, rows[row][tag])
			}
		}
		pol := opts.policy(tag)
		var col []byte
		eff := vals
		adjusted := false
		if opts.cold && !pol.Disable {
			// Cold recompaction is always lossless at maximum effort; the
			// inputs are already the round-tripped values earlier lossy
			// encodes produced, so decoded rows — and the stats below —
			// stay bit-identical across the tier transition.
			col = compress.EncodeColumnMaxEffort(nil, vals)
		} else {
			col = compress.EncodeColumn(nil, vals, pol)
			if !pol.Lossless() && !pol.Disable {
				if dec, err := compress.DecodeColumn(col); err == nil && len(dec) == len(vals) {
					eff = dec
					adjusted = true
				}
			}
		}
		for _, v := range eff {
			stats[tag].note(v)
		}
		if adjusted && effRows != nil {
			// Scatter the round-tripped column back into a private copy of
			// the rows so sub-bucket stats see decode-identical values.
			if sameRows(effRows, rows) {
				backing := make([]float64, count*ntags)
				cp := make([][]float64, count)
				for i := 0; i < count; i++ {
					cp[i] = backing[i*ntags : (i+1)*ntags]
					copy(cp[i], rows[i][:ntags])
				}
				effRows = cp
			}
			vi := 0
			for row := 0; row < count; row++ {
				if getBit(bm, tag*count+row) {
					effRows[row][tag] = eff[vi]
					vi++
				}
			}
		}
		dst = binary.AppendUvarint(dst, uint64(len(col)))
		dst = append(dst, col...)
	}
	return dst, stats, effRows
}

// sameRows reports whether a is still the identical slice header as b
// (used to detect whether effRows has already been copied).
func sameRows(a, b [][]float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// --- summary block ---

// The summary block sits between the zone maps and the structure extras
// when flagSummaries is set: uvarint row count, varint(firstTS-baseTS),
// varint(lastTS-firstTS), then per tag a uvarint non-NULL count and the
// float64 sum (little-endian bits). Together with the zone-map min/max it
// answers COUNT/SUM/AVG/MIN/MAX over the whole blob without touching the
// columns.

// appendSummaryBlock writes the summary for rows/stats computed by
// encodeColumns. baseTS is the record-key timestamp the reader will pass
// to parseBlobSummary; first/last bound the rows' decoded timestamps.
func appendSummaryBlock(dst []byte, stats []tagStat, rows, baseTS, firstTS, lastTS int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(rows))
	dst = binary.AppendVarint(dst, firstTS-baseTS)
	dst = binary.AppendVarint(dst, lastTS-firstTS)
	for i := range stats {
		dst = binary.AppendUvarint(dst, uint64(stats[i].nonNull))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(stats[i].sum))
	}
	return dst
}

// skipSummaryBlock advances past a summary block (used by DecodeBlob,
// which reconstructs everything the summary holds anyway).
func skipSummaryBlock(b []byte, ntags int) ([]byte, error) {
	for i := 0; i < 3; i++ {
		_, n := binary.Varint(b) // same wire length as Uvarint for field 0
		if n <= 0 {
			return nil, ErrCorruptBlob
		}
		b = b[n:]
	}
	for tag := 0; tag < ntags; tag++ {
		_, n := binary.Uvarint(b)
		if n <= 0 || len(b) < n+8 {
			return nil, ErrCorruptBlob
		}
		b = b[n+8:]
	}
	return b, nil
}

// blobSummary is the decoded summary of one ValueBlob: everything needed
// to fold the blob into COUNT/SUM/AVG/MIN/MAX aggregates without decoding
// its columns. min/max come from the zone maps (computed from the same
// round-tripped values as the sums), so every field is bit-identical to
// what a decode-and-aggregate pass over the blob would produce.
type blobSummary struct {
	rows     int64
	firstTS  int64 // earliest decoded timestamp
	lastTS   int64 // latest decoded timestamp
	members  int   // MG header member count; 0 for RTS/IRTS
	nonNull  []int64
	sum      []float64
	min, max []float64 // empty-column sentinel: min > max
}

// parseBlobSummary peeks a blob's header summary without decoding columns.
// It returns (nil, false) for legacy blobs (no flagSummaries) or damaged
// headers — callers then fall back to decoding.
func parseBlobSummary(b []byte, baseTS int64) (*blobSummary, bool) {
	s, _, ok := parseBlobSummaryRest(b, baseTS)
	return s, ok
}

// parseBlobSummaryRest parses the header summary and additionally returns
// the bytes that follow the summary block (the sub-bucket block for v3
// blobs, the payload otherwise).
func parseBlobSummaryRest(b []byte, baseTS int64) (*blobSummary, []byte, bool) {
	if len(b) < 1 || b[0]&flagSummaries == 0 || b[0]&flagZoneMaps == 0 {
		return nil, nil, false
	}
	format := b[0] & structMask
	rest := b[1:]
	ntagsU, n := binary.Uvarint(rest)
	if n <= 0 || ntagsU > 1<<16 {
		return nil, nil, false
	}
	ntags := int(ntagsU)
	rest = rest[n:]
	members := 0
	switch format {
	case blobRTS:
		if _, n := binary.Uvarint(rest); n > 0 { // count
			rest = rest[n:]
		} else {
			return nil, nil, false
		}
		if _, n := binary.Varint(rest); n > 0 { // interval
			rest = rest[n:]
		} else {
			return nil, nil, false
		}
	case blobIRTS:
		if _, n := binary.Uvarint(rest); n > 0 { // count
			rest = rest[n:]
		} else {
			return nil, nil, false
		}
	case blobMG:
		m, n := binary.Uvarint(rest)
		if n <= 0 || m > 1<<20 {
			return nil, nil, false
		}
		members = int(m)
		rest = rest[n:]
	default:
		return nil, nil, false
	}
	zones, rest, err := readZoneMaps(rest, ntags)
	if err != nil {
		return nil, nil, false
	}
	rowsU, n := binary.Uvarint(rest)
	if n <= 0 || rowsU > 1<<24 {
		return nil, nil, false
	}
	rest = rest[n:]
	firstDelta, n := binary.Varint(rest)
	if n <= 0 {
		return nil, nil, false
	}
	rest = rest[n:]
	span, n := binary.Varint(rest)
	if n <= 0 {
		return nil, nil, false
	}
	rest = rest[n:]
	s := &blobSummary{
		rows:    int64(rowsU),
		firstTS: baseTS + firstDelta,
		members: members,
		nonNull: make([]int64, ntags),
		sum:     make([]float64, ntags),
		min:     make([]float64, ntags),
		max:     make([]float64, ntags),
	}
	s.lastTS = s.firstTS + span
	for tag := 0; tag < ntags; tag++ {
		nn, n := binary.Uvarint(rest)
		if n <= 0 || len(rest) < n+8 {
			return nil, nil, false
		}
		s.nonNull[tag] = int64(nn)
		s.sum[tag] = math.Float64frombits(binary.LittleEndian.Uint64(rest[n:]))
		rest = rest[n+8:]
		s.min[tag] = zones[tag].min
		s.max[tag] = zones[tag].max
	}
	return s, rest, true
}

// summaryFromBatch rebuilds a summary from an already-decoded batch — the
// lazy upgrade path for legacy (pre-summary) blobs: the first decode pays
// full cost, the result is cached alongside the batch, and later aggregate
// scans fold it without decoding again. Only the tags that were actually
// decoded carry valid stats, which is safe because cache entries are keyed
// by the decode's tag signature.
func summaryFromBatch(batch *DecodedBatch, ntags int) *blobSummary {
	s := &blobSummary{
		rows:    int64(len(batch.Timestamps)),
		nonNull: make([]int64, ntags),
		sum:     make([]float64, ntags),
		min:     make([]float64, ntags),
		max:     make([]float64, ntags),
	}
	for tag := 0; tag < ntags; tag++ {
		s.min[tag] = math.Inf(1)
		s.max[tag] = math.Inf(-1)
	}
	for i, ts := range batch.Timestamps {
		if i == 0 || ts < s.firstTS {
			s.firstTS = ts
		}
		if i == 0 || ts > s.lastTS {
			s.lastTS = ts
		}
	}
	for _, row := range batch.Rows {
		for tag := 0; tag < ntags && tag < len(row); tag++ {
			v := row[tag]
			if model.IsNull(v) {
				continue
			}
			s.nonNull[tag]++
			s.sum[tag] += v
			if v < s.min[tag] {
				s.min[tag] = v
			}
			if v > s.max[tag] {
				s.max[tag] = v
			}
		}
	}
	if batch.Structure == model.MG {
		for _, slot := range batch.Slots {
			if slot >= s.members {
				s.members = slot + 1
			}
		}
	}
	return s
}

// summaryMatches reports whether a parsed header summary agrees with a
// full decode of the same blob (the fsck cross-check). Float fields
// compare by bit pattern: summaries must be exact, not approximately
// right, or aggregate pushdown would silently change query results.
func summaryMatches(s *blobSummary, batch *DecodedBatch) bool {
	ntags := len(s.nonNull)
	ref := summaryFromBatch(batch, ntags)
	if s.rows != ref.rows {
		return false
	}
	if s.rows > 0 && (s.firstTS != ref.firstTS || s.lastTS != ref.lastTS) {
		return false
	}
	for tag := 0; tag < ntags; tag++ {
		if s.nonNull[tag] != ref.nonNull[tag] ||
			math.Float64bits(s.sum[tag]) != math.Float64bits(ref.sum[tag]) ||
			math.Float64bits(s.min[tag]) != math.Float64bits(ref.min[tag]) ||
			math.Float64bits(s.max[tag]) != math.Float64bits(ref.max[tag]) {
			return false
		}
	}
	return true
}

// --- sub-bucket block (format v3) ---

// The sub-bucket block sits between the summary block and the payload when
// flagSubBuckets is set (which requires flagSummaries): varint base width
// (ms), uvarint bucket count K, then for each of the K consecutive base
// buckets starting at BucketFloor(firstTS, base): uvarint row count, and
// per tag a uvarint non-NULL count followed — only when non-zero — by the
// raw float64 bits of sum, min, max. Aggregate scans whose bucket grid is
// a positive integral multiple of the base width fold blobs that straddle
// bucket edges from these mini-summaries with zero payload decode.
//
// Sub-bucket stats are accumulated in row order, so for the time-ordered
// structures (RTS, and IRTS whose persisted blobs are non-decreasing) a
// fold is bit-identical to decoding and aggregating the rows. MG blobs
// store rows in slot order, not time order, so they never carry the block.

const (
	// maxSubBucketsWrite caps how many sub-buckets a writer will emit: a
	// blob whose span crosses more base buckets than this (sparse IRTS
	// data against a narrow base width) skips the block and relies on the
	// lazy decode-time path, keeping the header overhead bounded.
	maxSubBucketsWrite = 512
	// maxSubBucketsRead bounds what a parser will accept before declaring
	// the header corrupt.
	maxSubBucketsRead = 4096
)

// subBucketStat holds one base bucket's mini-summary.
type subBucketStat struct {
	rows     int64
	nonNull  []int64
	sum      []float64
	min, max []float64 // empty sentinel (min > max) when nonNull == 0
}

// subSummaries is the decoded sub-bucket block of one blob: K consecutive
// base buckets covering [start, start+K*base).
type subSummaries struct {
	base    int64 // base bucket width in ms
	start   int64 // grid start of buckets[0]: BucketFloor(firstTS, base)
	buckets []subBucketStat
}

// end returns the exclusive grid end of the last bucket.
func (s *subSummaries) end() int64 { return s.start + int64(len(s.buckets))*s.base }

// subSummariesFromRows builds per-sub-bucket stats from row-ordered
// timestamps and (round-tripped) values. It returns nil when base is not
// positive, there are no rows, or the span crosses more than max buckets.
func subSummariesFromRows(ts []int64, rows [][]float64, ntags int, base int64, max int) *subSummaries {
	if base <= 0 || len(ts) == 0 || len(ts) != len(rows) {
		return nil
	}
	first, last := ts[0], ts[0]
	for _, t := range ts[1:] {
		if t < first {
			first = t
		}
		if t > last {
			last = t
		}
	}
	start := model.BucketFloor(first, base)
	k64 := (model.BucketFloor(last, base)-start)/base + 1
	if k64 < 1 || k64 > int64(max) {
		return nil
	}
	sub := newSubSummaries(base, start, int(k64), ntags)
	for i, t := range ts {
		b := &sub.buckets[(model.BucketFloor(t, base)-start)/base]
		b.rows++
		row := rows[i]
		for tag := 0; tag < ntags && tag < len(row); tag++ {
			v := row[tag]
			if model.IsNull(v) {
				continue
			}
			b.nonNull[tag]++
			b.sum[tag] += v
			if v < b.min[tag] {
				b.min[tag] = v
			}
			if v > b.max[tag] {
				b.max[tag] = v
			}
		}
	}
	return sub
}

// newSubSummaries allocates k empty buckets of ntags tags over one
// shared backing array, min/max at the empty sentinel.
func newSubSummaries(base, start int64, k, ntags int) *subSummaries {
	sub := &subSummaries{base: base, start: start, buckets: make([]subBucketStat, k)}
	nn := make([]int64, k*ntags)
	fl := make([]float64, 3*k*ntags)
	for i := range sub.buckets {
		b := &sub.buckets[i]
		b.nonNull = nn[i*ntags : (i+1)*ntags]
		b.sum = fl[i*3*ntags : i*3*ntags+ntags]
		b.min = fl[i*3*ntags+ntags : i*3*ntags+2*ntags]
		b.max = fl[i*3*ntags+2*ntags : i*3*ntags+3*ntags]
		for tag := 0; tag < ntags; tag++ {
			b.min[tag] = math.Inf(1)
			b.max[tag] = math.Inf(-1)
		}
	}
	return sub
}

// subSummariesFromBatch lazily rebuilds sub-bucket stats from a decoded
// batch — the upgrade path for v1/v2 blobs: the first decode pays full
// cost and the result rides in the blob cache next to the parsed zone
// maps. MG batches return nil (slot order is not time order, so a fold
// would emit groups in a different order than a row-by-row decode).
func subSummariesFromBatch(batch *DecodedBatch, ntags int, base int64) *subSummaries {
	if batch == nil || batch.Structure == model.MG {
		return nil
	}
	return subSummariesFromRows(batch.Timestamps, batch.Rows, ntags, base, maxSubBucketsRead)
}

// appendSubBucketBlock writes the block for a non-nil subSummaries.
func appendSubBucketBlock(dst []byte, sub *subSummaries) []byte {
	dst = binary.AppendVarint(dst, sub.base)
	dst = binary.AppendUvarint(dst, uint64(len(sub.buckets)))
	for i := range sub.buckets {
		b := &sub.buckets[i]
		dst = binary.AppendUvarint(dst, uint64(b.rows))
		for tag := range b.nonNull {
			dst = binary.AppendUvarint(dst, uint64(b.nonNull[tag]))
			if b.nonNull[tag] > 0 {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.sum[tag]))
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.min[tag]))
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.max[tag]))
			}
		}
	}
	return dst
}

// skipSubBucketBlock advances past a sub-bucket block (DecodeBlob and
// stubHeaderLen reconstruct or preserve it without interpreting it). A
// truncated or over-long block is a typed ErrCorruptBlob, never a panic.
func skipSubBucketBlock(b []byte, ntags int) ([]byte, error) {
	base, n := binary.Varint(b)
	if n <= 0 || base <= 0 {
		return nil, ErrCorruptBlob
	}
	b = b[n:]
	kU, n := binary.Uvarint(b)
	if n <= 0 || kU < 1 || kU > maxSubBucketsRead {
		return nil, ErrCorruptBlob
	}
	b = b[n:]
	for k := uint64(0); k < kU; k++ {
		rows, n := binary.Uvarint(b)
		if n <= 0 || rows > 1<<24 {
			return nil, ErrCorruptBlob
		}
		b = b[n:]
		for tag := 0; tag < ntags; tag++ {
			nn, n := binary.Uvarint(b)
			if n <= 0 || nn > rows {
				return nil, ErrCorruptBlob
			}
			b = b[n:]
			if nn > 0 {
				if len(b) < 24 {
					return nil, ErrCorruptBlob
				}
				b = b[24:]
			}
		}
	}
	return b, nil
}

// parseBlobSubSummaries peeks a v3 blob's sub-bucket block without
// decoding columns. It returns (nil, false) for blobs without the flag or
// with damaged headers — callers then fall back to the whole-blob summary
// or a payload decode. The block is cross-validated against the summary
// (bucket range covers [firstTS, lastTS]; row and non-NULL totals agree),
// so a corrupt block can never mis-fold: it fails parse instead.
func parseBlobSubSummaries(b []byte, baseTS int64) (*subSummaries, bool) {
	if len(b) < 1 || b[0]&flagSubBuckets == 0 {
		return nil, false
	}
	sum, rest, ok := parseBlobSummaryRest(b, baseTS)
	if !ok {
		return nil, false
	}
	return parseSubBucketBlock(sum, rest)
}

// parseSubBucketBlock parses the sub-bucket block that follows a parsed
// whole-blob summary and cross-checks it against that summary.
func parseSubBucketBlock(sum *blobSummary, rest []byte) (*subSummaries, bool) {
	ntags := len(sum.nonNull)
	base, n := binary.Varint(rest)
	if n <= 0 || base <= 0 {
		return nil, false
	}
	rest = rest[n:]
	kU, n := binary.Uvarint(rest)
	if n <= 0 || kU < 1 || kU > maxSubBucketsRead {
		return nil, false
	}
	rest = rest[n:]
	start := model.BucketFloor(sum.firstTS, base)
	if wantK := (model.BucketFloor(sum.lastTS, base)-start)/base + 1; sum.rows == 0 || wantK != int64(kU) {
		return nil, false
	}
	sub := newSubSummaries(base, start, int(kU), ntags)
	var totalRows int64
	totalNN := make([]int64, ntags)
	for i := range sub.buckets {
		bk := &sub.buckets[i]
		rowsU, n := binary.Uvarint(rest)
		if n <= 0 || rowsU > 1<<24 {
			return nil, false
		}
		rest = rest[n:]
		bk.rows = int64(rowsU)
		totalRows += bk.rows
		for tag := 0; tag < ntags; tag++ {
			nn, n := binary.Uvarint(rest)
			if n <= 0 || int64(nn) > bk.rows {
				return nil, false
			}
			rest = rest[n:]
			bk.nonNull[tag] = int64(nn)
			totalNN[tag] += int64(nn)
			if nn > 0 {
				if len(rest) < 24 {
					return nil, false
				}
				bk.sum[tag] = math.Float64frombits(binary.LittleEndian.Uint64(rest))
				bk.min[tag] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8:]))
				bk.max[tag] = math.Float64frombits(binary.LittleEndian.Uint64(rest[16:]))
				rest = rest[24:]
			}
		}
	}
	if totalRows != sum.rows {
		return nil, false
	}
	for tag := 0; tag < ntags; tag++ {
		if totalNN[tag] != sum.nonNull[tag] {
			return nil, false
		}
	}
	return sub, true
}

// subSummariesMatch reports whether a parsed sub-bucket block agrees with
// a full decode of the same blob (the fsck cross-check). Like
// summaryMatches, float fields compare by bit pattern.
func subSummariesMatch(sub *subSummaries, batch *DecodedBatch, ntags int) bool {
	ref := subSummariesFromBatch(batch, ntags, sub.base)
	if ref == nil || ref.start != sub.start || len(ref.buckets) != len(sub.buckets) {
		return false
	}
	for i := range sub.buckets {
		a, b := &sub.buckets[i], &ref.buckets[i]
		if a.rows != b.rows {
			return false
		}
		for tag := 0; tag < ntags; tag++ {
			if a.nonNull[tag] != b.nonNull[tag] ||
				math.Float64bits(a.sum[tag]) != math.Float64bits(b.sum[tag]) ||
				math.Float64bits(a.min[tag]) != math.Float64bits(b.min[tag]) ||
				math.Float64bits(a.max[tag]) != math.Float64bits(b.max[tag]) {
				return false
			}
		}
	}
	return true
}

// decodeColumns reconstructs rows from the layout written by encodeColumns.
// wantTags selects which tag indexes to decode (nil = all); unselected tags
// come back NULL. Row-oriented blobs always decode every tag (that is the
// cost the tag-oriented layout avoids).
func decodeColumns(b []byte, count, ntags int, rowOriented bool, wantTags []int) ([][]float64, error) {
	bmLen := bitmapLen(count * ntags)
	if len(b) < bmLen {
		return nil, ErrCorruptBlob
	}
	bm := b[:bmLen]
	b = b[bmLen:]
	rows := make([][]float64, count)
	backing := make([]float64, count*ntags)
	for i := range rows {
		rows[i] = backing[i*ntags : (i+1)*ntags]
		for j := range rows[i] {
			rows[i][j] = model.NullValue
		}
	}
	if rowOriented {
		colLen, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b[n:])) < colLen {
			return nil, ErrCorruptBlob
		}
		vals, err := compress.DecodeColumn(b[n : n+int(colLen)])
		if err != nil {
			return nil, err
		}
		vi := 0
		for row := 0; row < count; row++ {
			for tag := 0; tag < ntags; tag++ {
				if getBit(bm, tag*count+row) {
					if vi >= len(vals) {
						return nil, ErrCorruptBlob
					}
					rows[row][tag] = vals[vi]
					vi++
				}
			}
		}
		return rows, nil
	}
	want := make([]bool, ntags)
	if wantTags == nil {
		for i := range want {
			want[i] = true
		}
	} else {
		for _, t := range wantTags {
			if t >= 0 && t < ntags {
				want[t] = true
			}
		}
	}
	for tag := 0; tag < ntags; tag++ {
		colLen, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b[n:])) < colLen {
			return nil, ErrCorruptBlob
		}
		col := b[n : n+int(colLen)]
		b = b[n+int(colLen):]
		if !want[tag] {
			continue // the tag-oriented win: skip without decoding
		}
		vals, err := compress.DecodeColumn(col)
		if err != nil {
			return nil, err
		}
		vi := 0
		for row := 0; row < count; row++ {
			if getBit(bm, tag*count+row) {
				if vi >= len(vals) {
					return nil, ErrCorruptBlob
				}
				rows[row][tag] = vals[vi]
				vi++
			}
		}
	}
	return rows, nil
}

// EncodeRTS packs a run of regular points (identical intervals, contiguous
// slots) into an RTS ValueBlob. The record key carries (source, baseTS);
// the blob stores the interval and per-tag columns, so timestamps cost
// zero bytes per point.
func EncodeRTS(points []model.Point, ntags int, intervalMs int64, opts encodeOpts) []byte {
	dst := make([]byte, 0, 64+len(points)*ntags)
	format := byte(blobRTS)
	if opts.layout == layoutRowOriented {
		format |= flagRowOriented
	}
	format |= flagZoneMaps
	if !opts.legacy {
		format |= flagSummaries
	}
	if opts.cold && !opts.legacy {
		format |= flagCold
	}
	dst = append(dst, format)
	dst = binary.AppendUvarint(dst, uint64(ntags))
	dst = binary.AppendUvarint(dst, uint64(len(points)))
	dst = binary.AppendVarint(dst, intervalMs)
	rows := make([][]float64, len(points))
	for i, p := range points {
		rows[i] = p.Values
	}
	cols, stats, effRows := encodeColumns(rows, ntags, opts)
	dst = appendZoneMapsFromStats(dst, stats)
	if !opts.legacy {
		// RTS decode reconstructs timestamps from the record key and the
		// interval; summarize the same arithmetic, not the input points.
		var base, last int64
		if len(points) > 0 {
			base = points[0].TS
			last = base + int64(len(points)-1)*intervalMs
		}
		dst = appendSummaryBlock(dst, stats, int64(len(points)), base, base, last)
		if opts.subBucketMs > 0 && len(points) > 0 {
			ts := make([]int64, len(points))
			for i := range ts {
				ts[i] = base + int64(i)*intervalMs
			}
			if sub := subSummariesFromRows(ts, effRows, ntags, opts.subBucketMs, maxSubBucketsWrite); sub != nil {
				dst[0] |= flagSubBuckets
				dst = appendSubBucketBlock(dst, sub)
			}
		}
	}
	return append(dst, cols...)
}

// EncodeIRTS packs irregular points into an IRTS ValueBlob; timestamps are
// delta-of-delta encoded.
func EncodeIRTS(points []model.Point, ntags int, opts encodeOpts) []byte {
	dst := make([]byte, 0, 64+len(points)*ntags)
	format := byte(blobIRTS)
	if opts.layout == layoutRowOriented {
		format |= flagRowOriented
	}
	format |= flagZoneMaps
	if !opts.legacy {
		format |= flagSummaries
	}
	if opts.cold && !opts.legacy {
		format |= flagCold
	}
	dst = append(dst, format)
	dst = binary.AppendUvarint(dst, uint64(ntags))
	dst = binary.AppendUvarint(dst, uint64(len(points)))
	rows := make([][]float64, len(points))
	for i, p := range points {
		rows[i] = p.Values
	}
	cols, stats, effRows := encodeColumns(rows, ntags, opts)
	dst = appendZoneMapsFromStats(dst, stats)
	if !opts.legacy {
		// IRTS timestamps ride inline and need not be sorted; bound them.
		var base, first, last int64
		if len(points) > 0 {
			base, first, last = points[0].TS, points[0].TS, points[0].TS
			for _, p := range points[1:] {
				if p.TS < first {
					first = p.TS
				}
				if p.TS > last {
					last = p.TS
				}
			}
		}
		dst = appendSummaryBlock(dst, stats, int64(len(points)), base, first, last)
		if opts.subBucketMs > 0 && len(points) > 0 {
			pts := make([]int64, len(points))
			for i, p := range points {
				pts[i] = p.TS
			}
			if sub := subSummariesFromRows(pts, effRows, ntags, opts.subBucketMs, maxSubBucketsWrite); sub != nil {
				dst[0] |= flagSubBuckets
				dst = appendSubBucketBlock(dst, sub)
			}
		}
	}
	ts := make([]int64, len(points))
	for i, p := range points {
		ts[i] = p.TS
	}
	dst = compress.AppendDeltaOfDeltas(dst, ts)
	return append(dst, cols...)
}

// EncodeMG packs one time window's values from an MG group into an MG
// ValueBlob. present[slot] reports which members delivered a record;
// rows[slot] holds each member's tag values and tsOffsets[slot] the
// member's timestamp offset from the record's window base (low-frequency
// sources rarely sample at exactly the same instant, so MG records bucket
// a window and keep per-member offsets).
func EncodeMG(present []bool, rows [][]float64, tsOffsets []int64, ntags int, opts encodeOpts) []byte {
	memberCount := len(present)
	dst := make([]byte, 0, 64+memberCount*ntags)
	format := byte(blobMG)
	if opts.layout == layoutRowOriented {
		format |= flagRowOriented
	}
	format |= flagZoneMaps
	if !opts.legacy {
		format |= flagSummaries
	}
	dst = append(dst, format)
	dst = binary.AppendUvarint(dst, uint64(ntags))
	dst = binary.AppendUvarint(dst, uint64(memberCount))
	memberBM := make([]byte, bitmapLen(memberCount))
	var reported [][]float64
	var offsets []int64
	for slot, ok := range present {
		if ok {
			setBit(memberBM, slot)
			reported = append(reported, rows[slot])
			if slot < len(tsOffsets) {
				offsets = append(offsets, tsOffsets[slot])
			} else {
				offsets = append(offsets, 0)
			}
		}
	}
	// MG rows are stored in slot order, not time order, so the blob never
	// carries a sub-bucket block (a sub-fold would emit groups in a
	// different order than a row-by-row decode).
	opts.subBucketMs = 0
	cols, stats, _ := encodeColumns(reported, ntags, opts)
	dst = appendZoneMapsFromStats(dst, stats)
	if !opts.legacy {
		// MG timestamps are offsets from the record's window base, which is
		// the key timestamp the reader passes as baseTS — summarize offsets
		// against base 0 so the parse reconstructs absolute bounds.
		var first, last int64
		for i, off := range offsets {
			if i == 0 || off < first {
				first = off
			}
			if i == 0 || off > last {
				last = off
			}
		}
		dst = appendSummaryBlock(dst, stats, int64(len(reported)), 0, first, last)
	}
	dst = append(dst, memberBM...)
	dst = binary.AppendUvarint(dst, uint64(len(reported)))
	dst = compress.AppendDeltas(dst, offsets)
	return append(dst, cols...)
}

// DecodedBatch is the result of decoding any ValueBlob.
type DecodedBatch struct {
	// Structure reports which batch structure the blob used.
	Structure model.Structure
	// Timestamps holds one entry per row. RTS rows reconstruct them from
	// the base and interval; IRTS rows carry them inline; MG rows are the
	// record's window base plus each member's stored offset.
	Timestamps []int64
	// Rows holds decoded tag values (selected tags only; others NULL).
	Rows [][]float64
	// Slots maps MG rows to group member slots; nil for RTS/IRTS.
	Slots []int
}

// DecodeBlob decodes a ValueBlob of any structure. baseTS is the timestamp
// from the record key (the batch's first timestamp for RTS, unused for
// IRTS which carries timestamps inline, the record timestamp for MG).
// wantTags selects tag columns (nil = all).
func DecodeBlob(b []byte, baseTS int64, wantTags []int) (*DecodedBatch, error) {
	if len(b) < 1 {
		return nil, ErrCorruptBlob
	}
	if b[0]&flagStub != 0 {
		// The payload is gone by design, not by damage: surface the typed
		// error so scans can distinguish tier degradation from corruption
		// (lenient recovery must never quarantine a stub).
		return nil, ErrStubbedBlob
	}
	format := b[0] & structMask
	rowOriented := b[0]&flagRowOriented != 0
	hasZones := b[0]&flagZoneMaps != 0
	hasSummary := b[0]&flagSummaries != 0
	hasSub := b[0]&flagSubBuckets != 0
	if hasSub && !hasSummary {
		// The sub-bucket block rides behind the summary block; a blob
		// claiming one without the other was never written by any encoder.
		return nil, ErrCorruptBlob
	}
	b = b[1:]
	ntagsU, n := binary.Uvarint(b)
	if n <= 0 || ntagsU > 1<<16 {
		return nil, ErrCorruptBlob
	}
	ntags := int(ntagsU)
	b = b[n:]
	switch format {
	case blobRTS:
		countU, n := binary.Uvarint(b)
		if n <= 0 || countU > 1<<24 {
			return nil, ErrCorruptBlob
		}
		count := int(countU)
		b = b[n:]
		interval, n := binary.Varint(b)
		if n <= 0 {
			return nil, ErrCorruptBlob
		}
		b = b[n:]
		if hasZones {
			var err error
			if _, b, err = readZoneMaps(b, ntags); err != nil {
				return nil, err
			}
		}
		if hasSummary {
			var err error
			if b, err = skipSummaryBlock(b, ntags); err != nil {
				return nil, err
			}
			if hasSub {
				if b, err = skipSubBucketBlock(b, ntags); err != nil {
					return nil, err
				}
			}
		}
		rows, err := decodeColumns(b, count, ntags, rowOriented, wantTags)
		if err != nil {
			return nil, err
		}
		ts := make([]int64, count)
		for i := range ts {
			ts[i] = baseTS + int64(i)*interval
		}
		return &DecodedBatch{Structure: model.RTS, Timestamps: ts, Rows: rows}, nil
	case blobIRTS:
		countU, n := binary.Uvarint(b)
		if n <= 0 || countU > 1<<24 {
			return nil, ErrCorruptBlob
		}
		count := int(countU)
		b = b[n:]
		if hasZones {
			var err error
			if _, b, err = readZoneMaps(b, ntags); err != nil {
				return nil, err
			}
		}
		if hasSummary {
			var err error
			if b, err = skipSummaryBlock(b, ntags); err != nil {
				return nil, err
			}
			if hasSub {
				if b, err = skipSubBucketBlock(b, ntags); err != nil {
					return nil, err
				}
			}
		}
		ts, rest, err := compress.DeltaOfDeltas(b)
		if err != nil || len(ts) != count {
			return nil, ErrCorruptBlob
		}
		rows, err := decodeColumns(rest, count, ntags, rowOriented, wantTags)
		if err != nil {
			return nil, err
		}
		return &DecodedBatch{Structure: model.IRTS, Timestamps: ts, Rows: rows}, nil
	case blobMG:
		memberU, n := binary.Uvarint(b)
		if n <= 0 || memberU > 1<<20 {
			return nil, ErrCorruptBlob
		}
		memberCount := int(memberU)
		b = b[n:]
		if hasZones {
			var err error
			if _, b, err = readZoneMaps(b, ntags); err != nil {
				return nil, err
			}
		}
		if hasSummary {
			var err error
			if b, err = skipSummaryBlock(b, ntags); err != nil {
				return nil, err
			}
			if hasSub {
				if b, err = skipSubBucketBlock(b, ntags); err != nil {
					return nil, err
				}
			}
		}
		bmLen := bitmapLen(memberCount)
		if len(b) < bmLen {
			return nil, ErrCorruptBlob
		}
		memberBM := b[:bmLen]
		b = b[bmLen:]
		reportedU, n := binary.Uvarint(b)
		if n <= 0 || reportedU > uint64(memberCount) {
			return nil, ErrCorruptBlob
		}
		reported := int(reportedU)
		b = b[n:]
		offsets, rest, err := compress.Deltas(b)
		if err != nil || len(offsets) != reported {
			return nil, ErrCorruptBlob
		}
		rows, err := decodeColumns(rest, reported, ntags, rowOriented, wantTags)
		if err != nil {
			return nil, err
		}
		slots := make([]int, 0, reported)
		for slot := 0; slot < memberCount; slot++ {
			if getBit(memberBM, slot) {
				slots = append(slots, slot)
			}
		}
		if len(slots) != reported {
			return nil, ErrCorruptBlob
		}
		ts := make([]int64, reported)
		for i, off := range offsets {
			ts[i] = baseTS + off
		}
		return &DecodedBatch{Structure: model.MG, Timestamps: ts, Rows: rows, Slots: slots}, nil
	}
	return nil, fmt.Errorf("%w: unknown format %d", ErrCorruptBlob, format)
}

// blobSpan returns the timestamp span covered by a decoded RTS/IRTS batch.
func (d *DecodedBatch) blobSpan() int64 {
	if len(d.Timestamps) == 0 {
		return 0
	}
	return d.Timestamps[len(d.Timestamps)-1] - d.Timestamps[0]
}

// stubHeaderLen returns the length of a v2/v3 blob's header through the
// end of the summary block — and, for v3, the sub-bucket block — the
// prefix a stub keeps. It requires zone maps and a summary (every
// non-legacy blob carries both); sub-summaries survive stubbing, so stubs
// keep folding at sub-bucket granularity after the payload is gone.
func stubHeaderLen(b []byte) (int, bool) {
	if len(b) < 1 || b[0]&flagZoneMaps == 0 || b[0]&flagSummaries == 0 {
		return 0, false
	}
	off := 1
	ntagsU, n := binary.Uvarint(b[off:])
	if n <= 0 || ntagsU > 1<<16 {
		return 0, false
	}
	ntags := int(ntagsU)
	off += n
	extras := 1 // IRTS count / MG memberCount
	switch b[0] & structMask {
	case blobRTS:
		extras = 2 // count, interval
	case blobIRTS, blobMG:
	default:
		return 0, false
	}
	for i := 0; i < extras; i++ {
		// Varint and Uvarint share continuation bits, so the skip length
		// is the same whichever wrote the field.
		if _, n := binary.Varint(b[off:]); n > 0 {
			off += n
		} else {
			return 0, false
		}
	}
	if len(b) < off+ntags*16 {
		return 0, false
	}
	off += ntags * 16 // zone maps
	rest, err := skipSummaryBlock(b[off:], ntags)
	if err != nil {
		return 0, false
	}
	if b[0]&flagSubBuckets != 0 {
		if rest, err = skipSubBucketBlock(rest, ntags); err != nil {
			return 0, false
		}
	}
	return len(b) - len(rest), true
}

// makeStubBlob returns the summary-only stub of a v2 blob: the header is
// preserved byte for byte — zone maps and summary survive, so aggregate
// folds over the stub stay bit-identical to decoding the payload — and
// everything after it is dropped. ok is false for blobs that are already
// stubs and for legacy blobs (nothing to keep): callers re-encode those
// with the summary format first.
func makeStubBlob(b []byte) ([]byte, bool) {
	if IsStubBlob(b) {
		return nil, false
	}
	n, ok := stubHeaderLen(b)
	if !ok {
		return nil, false
	}
	stub := make([]byte, n)
	copy(stub, b)
	stub[0] |= flagStub
	return stub, true
}

// blobLastTS reads a blob's newest row timestamp from its summary header
// without decoding the payload; ok is false for legacy (pre-summary)
// blobs. Unlike a payload decode's Timestamps[len-1], the summary lastTS
// is the true maximum even for MG blobs, whose member offsets are stored
// in slot order, not time order.
func blobLastTS(b []byte, baseTS int64) (int64, bool) {
	sum, ok := parseBlobSummary(b, baseTS)
	if !ok {
		return 0, false
	}
	return sum.lastTS, true
}
