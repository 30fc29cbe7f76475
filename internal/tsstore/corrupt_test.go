package tsstore

import (
	"math"
	"testing"

	"odh/internal/keyenc"
	"odh/internal/model"
)

// writeRTSRun ingests n regular points for src starting at t0.
func writeRTSRun(t *testing.T, f *fixture, src *model.DataSource, t0 int64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p := model.Point{Source: src.ID, TS: t0 + int64(i)*src.IntervalMs, Values: []float64{float64(i), float64(i) * 2}}
		if err := f.store.Write(p); err != nil {
			t.Fatal(err)
		}
	}
}

// corruptOneBlob replaces the stored record at (src, ts) with garbage that
// fails decode, simulating blob-level rot below the page checksums.
func corruptOneBlob(t *testing.T, f *fixture, src, ts int64) {
	t.Helper()
	key := keyenc.SourceTime(src, ts)
	if _, err := f.store.trees[cacheTreeRTS].Get(key); err != nil {
		t.Fatalf("expected record at ts=%d: %v", ts, err)
	}
	if err := f.store.trees[cacheTreeRTS].Put(key, []byte{0xFF, 0xEE, 0xDD}); err != nil {
		t.Fatal(err)
	}
}

func TestStrictScanFailsOnCorruptBlob(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 8}, 0)
	sch := f.schema(t, "pmu", 2)
	src := f.source(t, sch.ID, true, 10)
	writeRTSRun(t, f, src, 0, 32) // 4 full batches at ts 0, 80, 160, 240
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	corruptOneBlob(t, f, src.ID, 80)
	it, err := f.store.HistoricalScan(src.ID, 0, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if it.Err() == nil {
		t.Fatal("strict scan over a corrupt blob reported no error")
	}
	aggFailsOnCorrupt(t, f, src.ID, sch.ID, 2)
}

// aggFailsOnCorrupt asserts both aggregate entry points surface a strict
// store's corrupt record as an error, like the scan did.
func aggFailsOnCorrupt(t *testing.T, f *fixture, source, schemaID int64, ntags int) {
	t.Helper()
	spec := AggSpec{T1: math.MinInt64 / 2, T2: math.MaxInt64 / 2, NTags: ntags}
	if _, err := f.store.AggregateHistorical(source, spec); err == nil {
		t.Fatal("strict AggregateHistorical over a corrupt blob reported no error")
	}
	if _, err := f.store.AggregateSlice(schemaID, spec); err == nil {
		t.Fatal("strict AggregateSlice over a corrupt blob reported no error")
	}
}

// aggMatchesLenientScan asserts a lenient store's aggregates fold exactly
// the rows its lenient scans return: AggregateHistorical against the
// source scan, AggregateSlice against the slice scan. Each read must
// quarantine the same number of records (CorruptBlobsSkipped delta) as
// the scan of the same shape.
func aggMatchesLenientScan(t *testing.T, f *fixture, source, schemaID int64, ntags int) {
	t.Helper()
	spec := AggSpec{T1: math.MinInt64 / 2, T2: math.MaxInt64 / 2, NTags: ntags, ByID: true}
	skipped := func() int64 { return f.store.Stats().CorruptBlobsSkipped }
	for _, shape := range []string{"historical", "slice"} {
		before := skipped()
		var it Iterator
		var err error
		if shape == "historical" {
			it, err = f.store.HistoricalScan(source, spec.T1, spec.T2, nil)
		} else {
			it, err = f.store.SliceScan(schemaID, spec.T1, spec.T2, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		want := refFold(collect(t, it), spec)
		scanSkipped := skipped() - before
		if scanSkipped == 0 {
			t.Fatalf("%s: lenient scan quarantined nothing", shape)
		}
		before = skipped()
		var res *AggResult
		if shape == "historical" {
			res, err = f.store.AggregateHistorical(source, spec)
		} else {
			res, err = f.store.AggregateSlice(schemaID, spec)
		}
		if err != nil {
			t.Fatalf("%s: lenient aggregate failed: %v", shape, err)
		}
		compareAgg(t, "lenient "+shape, res, want, spec)
		if got := skipped() - before; got != scanSkipped {
			t.Fatalf("%s: aggregate quarantined %d records, scan %d", shape, got, scanSkipped)
		}
	}
}

func TestLenientScanQuarantinesCorruptBlob(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 8, LenientScan: true}, 0)
	sch := f.schema(t, "pmu", 2)
	src := f.source(t, sch.ID, true, 10)
	writeRTSRun(t, f, src, 0, 32)
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	corruptOneBlob(t, f, src.ID, 80)
	it, err := f.store.HistoricalScan(src.ID, 0, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, it) // collect fails the test on iterator error
	// The corrupt batch held ts 80..150; everything else must survive.
	if len(got) != 24 {
		t.Fatalf("lenient scan yielded %d points, want 24", len(got))
	}
	for _, p := range got {
		if p.TS >= 80 && p.TS < 160 {
			t.Fatalf("point ts=%d from the quarantined batch leaked through", p.TS)
		}
	}
	if n := f.store.Stats().CorruptBlobsSkipped; n != 1 {
		t.Fatalf("CorruptBlobsSkipped = %d, want 1", n)
	}
	aggMatchesLenientScan(t, f, src.ID, sch.ID, 2)
}

// corruptMGFixture builds a two-member MG group with four windows and
// truncates the record at window 2000.
func corruptMGFixture(t *testing.T, lenient bool) (*fixture, *model.SchemaType, *model.DataSource) {
	t.Helper()
	f := newFixture(t, Config{BatchSize: 8, LenientScan: lenient}, 2)
	sch := f.schema(t, "env", 1)
	a := f.source(t, sch.ID, true, 1000)
	b := f.source(t, sch.ID, true, 1000)
	if a.Group != b.Group {
		t.Fatalf("sources not grouped: %d vs %d", a.Group, b.Group)
	}
	for i := int64(0); i < 4; i++ {
		for _, src := range []*model.DataSource{a, b} {
			if err := f.store.Write(model.Point{Source: src.ID, TS: i * 1000, Values: []float64{float64(i)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the MG record at window 2000.
	key := keyenc.SourceTime(a.Group, 2000)
	if _, err := f.store.trees[cacheTreeMG].Get(key); err != nil {
		t.Fatalf("expected MG record: %v", err)
	}
	if err := f.store.trees[cacheTreeMG].Put(key, []byte{0x03}); err != nil { // truncated MG header
		t.Fatal(err)
	}
	return f, sch, a
}

func TestStrictAggregateFailsOnCorruptMGBlob(t *testing.T) {
	f, sch, a := corruptMGFixture(t, false)
	aggFailsOnCorrupt(t, f, a.ID, sch.ID, 1)
}

func TestLenientScanQuarantinesCorruptMGBlob(t *testing.T) {
	f, sch, a := corruptMGFixture(t, true)
	it, err := f.store.HistoricalScan(a.ID, 0, 10_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, it)
	if len(got) != 3 {
		t.Fatalf("lenient MG scan yielded %d points, want 3", len(got))
	}
	if n := f.store.Stats().CorruptBlobsSkipped; n == 0 {
		t.Fatal("CorruptBlobsSkipped not incremented for MG record")
	}
	aggMatchesLenientScan(t, f, a.ID, sch.ID, 1)
}

func TestVerifyBlobs(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 8}, 0)
	sch := f.schema(t, "pmu", 2)
	src := f.source(t, sch.ID, true, 10)
	writeRTSRun(t, f, src, 0, 32)
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	checked, corrupt, err := f.store.VerifyBlobs()
	if err != nil {
		t.Fatal(err)
	}
	if checked != 4 || len(corrupt) != 0 {
		t.Fatalf("clean store: checked=%d corrupt=%v, want 4 clean", checked, corrupt)
	}
	corruptOneBlob(t, f, src.ID, 160)
	checked, corrupt, err = f.store.VerifyBlobs()
	if err != nil {
		t.Fatal(err)
	}
	if checked != 4 || len(corrupt) != 1 {
		t.Fatalf("checked=%d corrupt=%v, want exactly 1 corrupt of 4", checked, corrupt)
	}
	if corrupt[0].Tree != "ts.rts" || corrupt[0].Source != src.ID || corrupt[0].TS != 160 {
		t.Fatalf("corrupt ref = %+v, want ts.rts/%d/160", corrupt[0], src.ID)
	}
}

func TestWALPointDecodeRejectsHugeCount(t *testing.T) {
	// A varint count near 2^61 makes count*8 wrap; the decoder must reject
	// it instead of passing the length check and blowing up on allocation.
	b := []byte{
		0x02,                                                       // source
		0x02,                                                       // ts
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x1F, // count
	}
	if _, err := DecodePointWAL(b); err == nil {
		t.Fatal("huge count accepted")
	}
}
