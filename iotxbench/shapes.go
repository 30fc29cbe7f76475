package main

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"odh/internal/iotx"
)

func runHistory(cfg *config, rep *report) error {
	rd, err := genReadData(cfg.sc, cfg.seed, cfg.sc.readTDPoints, cfg.sc.readLDPoints)
	if err != nil {
		return err
	}
	i := 0
	return readWorkload(cfg, rep, rd, func(rng *rand.Rand) readQuery {
		tpl := historyTemplates[i%len(historyTemplates)] // equal shares
		i++
		sql := iotx.Templates[tpl](rng, &rd.params)
		return readQuery{shape: "history." + tpl, sql: sql, check: func(r *reply) error { return rd.checkHistory(tpl, sql, r) }}
	})
}

func runRollup(cfg *config, rep *report) error {
	rd, err := genReadData(cfg.sc, cfg.seed, cfg.sc.readTDPoints, cfg.sc.readLDPoints)
	if err != nil {
		return err
	}
	i := 0
	return readWorkload(cfg, rep, rd, func(rng *rand.Rand) readQuery {
		shape := rollupShapes[i%len(rollupShapes)] // equal shares
		i++
		return rd.rollupQuery(shape, rng)
	})
}

var numRe = regexp.MustCompile(`-?[0-9]+(\.[0-9]+)?`)

// whereNumbers returns the numeric literals after WHERE, in order.
func whereNumbers(sql string) []float64 {
	_, where, _ := strings.Cut(sql, " WHERE ")
	var out []float64
	for _, m := range numRe.FindAllString(where, -1) {
		v, _ := strconv.ParseFloat(m, 64)
		out = append(out, v)
	}
	return out
}

// checkHistory checks a WS2 template's answer: its row count always,
// and the summed trade price where the template returns it.
func (rd *readData) checkHistory(tpl, sql string, r *reply) error {
	nums := whereNumbers(sql)
	want := 0
	switch tpl {
	case "TQ1", "TQ3":
		id := int64(nums[0])
		want = rd.td.count[id]
		if tpl == "TQ1" {
			var sum float64
			for i, s := range rd.td.src {
				if s == id {
					sum += rd.td.vals[0][i]
				}
			}
			if r.nrows > keptRows {
				return fmt.Errorf("%d rows, more than the %d summed for checking", r.nrows, keptRows)
			}
			if got := r.sums["T_TRADE_PRICE"]; !near(got, sum) {
				return fmt.Errorf("price sum %v, want %v", got, sum)
			}
		}
	case "TQ2":
		want = countRange(rd.td.ts, int64(nums[0]), int64(nums[1]))
	case "TQ4":
		lo, hi := int64(nums[0]), int64(nums[1])
		custs := map[int64]bool{}
		for _, c := range rd.custs {
			if c.DOB >= lo && c.DOB <= hi {
				custs[c.CID] = true
			}
		}
		for _, a := range rd.accts {
			if custs[a.CCID] {
				want += rd.td.count[a.CAID]
			}
		}
	case "LQ1":
		want = rd.ld.count[int64(nums[0])]
	case "LQ2":
		lo, hi := int64(nums[0]), int64(nums[1])
		want = countRange(rd.ld.ts, lo, hi)
		nonNull := 0
		for i := lowerBound(rd.ld.ts, lo); i < len(rd.ld.ts) && rd.ld.ts[i] <= hi; i++ {
			if !math.IsNaN(rd.ld.vals[0][i]) {
				nonNull++
			}
		}
		if got := r.nonNullOf("AirTemperature"); got != nonNull {
			return fmt.Errorf("%d non-NULL AirTemperature values, want %d", got, nonNull)
		}
	case "LQ3":
		want = rd.ld.count[rd.ldIDs[int(nums[0])-1]]
	case "LQ4":
		for _, s := range rd.sensors {
			if s.Lat > nums[0] && s.Lat < nums[1] && s.Lon > nums[2] && s.Lon < nums[3] {
				want += rd.ld.count[s.SensorID]
			}
		}
	}
	if r.nrows != want {
		return fmt.Errorf("%d rows, want %d", r.nrows, want)
	}
	return nil
}

// bucketRow is one expected group of a TIME_BUCKET or GROUP BY answer.
type bucketRow struct {
	key   int64
	count int
	sum   float64
	null  bool // the value column is NULL (no non-NULL input)
}

// rollupQuery draws one dashboard aggregate of the given shape and binds
// the check that recomputes its answer from the generated stream.
func (rd *readData) rollupQuery(shape string, rng *rand.Rand) readQuery {
	td := &rd.td
	lo, hi := td.ts[0], td.ts[len(td.ts)-1]
	tdTags := truthTags[schemaTD]
	q := readQuery{shape: "rollup." + shape}
	switch shape {
	case "grand":
		tag := tdTags[rng.Intn(len(tdTags))]
		q.sql = fmt.Sprintf("SELECT COUNT(*), SUM(%s), MIN(%s), MAX(%s) FROM TRADE", tag, tag, tag)
		q.check = func(r *reply) error { return checkGrand(td, tag, r) }
	case "groupby":
		span := int64(60_000 + rng.Intn(120_000))
		a := lo + rng.Int63n(max(hi-lo-span, 1))
		minCount := int(float64(span) / 1000 * 0.98 * float64(len(td.ts)) / float64(len(td.count)) / (float64(hi-lo) / 1000))
		q.sql = fmt.Sprintf("SELECT T_CA_ID, COUNT(*), AVG(T_TRADE_PRICE) FROM TRADE WHERE T_DTS BETWEEN %d AND %d GROUP BY T_CA_ID HAVING COUNT(*) > %d ORDER BY AVG(T_TRADE_PRICE) DESC LIMIT 10", a, a+span, minCount)
		q.check = func(r *reply) error { return checkGroupBy(td, a, a+span, minCount, r) }
	case "bucket_aligned", "bucket_unaligned":
		var width, a, b int64
		if shape == "bucket_aligned" {
			width = []int64{60_000, 120_000, 300_000}[rng.Intn(3)]
			a = bucketFloor(lo+rng.Int63n(hi-lo), width)
			b = a + width*int64(2+rng.Intn(4)) - 1
		} else {
			width = []int64{45_000, 90_000, 100_000}[rng.Intn(3)]
			a = lo + rng.Int63n(hi-lo)
			b = a + int64(120_000+rng.Intn(240_000))
		}
		q.sql = fmt.Sprintf("SELECT TIME_BUCKET(%d, T_DTS), COUNT(*), SUM(T_TRADE_PRICE) FROM TRADE WHERE T_DTS BETWEEN %d AND %d GROUP BY TIME_BUCKET(%d, T_DTS)", width, a, b, width)
		q.check = func(r *reply) error {
			return checkBuckets(r, 1, expectBuckets(td, 0, width, a, b, false))
		}
	case "ld_sparse":
		width := int64(10+rng.Intn(21)) * 60_000
		sparse := truthTags[schemaLD][1:]
		cols := make([]string, 0, 2*len(sparse))
		for _, tag := range sparse {
			cols = append(cols, "COUNT("+tag+")", "AVG("+tag+")")
		}
		q.sql = fmt.Sprintf("SELECT TIME_BUCKET(%d, Timestamp), %s FROM Observation GROUP BY TIME_BUCKET(%d, Timestamp)", width, strings.Join(cols, ", "), width)
		q.check = func(r *reply) error {
			for i, tag := range sparse {
				want := expectBuckets(&rd.ld, rd.ld.tagIdx[tag], width, math.MinInt64, math.MaxInt64, true)
				if err := checkBuckets(r, 1+2*i, want); err != nil {
					return fmt.Errorf("%s: %w", tag, err)
				}
			}
			return nil
		}
	}
	return q
}

func checkGrand(td *streamTruth, tag string, r *reply) error {
	vals := td.vals[td.tagIdx[tag]]
	var sum float64
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		sum += v
		mn, mx = math.Min(mn, v), math.Max(mx, v)
	}
	if len(r.rows) != 1 || len(r.rows[0]) != 4 {
		return fmt.Errorf("got %d rows, want 1 row of 4 columns", len(r.rows))
	}
	got := parseFloats(r.rows[0])
	if int(got[0]) != len(vals) || !near(got[1], sum) || got[2] != mn || got[3] != mx {
		return fmt.Errorf("got %v, want [%d %v %v %v]", r.rows[0], len(vals), sum, mn, mx)
	}
	return nil
}

func checkGroupBy(td *streamTruth, a, b int64, minCount int, r *reply) error {
	groups := map[int64]*bucketRow{}
	for i := lowerBound(td.ts, a); i < len(td.ts) && td.ts[i] <= b; i++ {
		g := groups[td.src[i]]
		if g == nil {
			g = &bucketRow{key: td.src[i]}
			groups[td.src[i]] = g
		}
		g.count++
		g.sum += td.vals[0][i]
	}
	var want []*bucketRow
	for _, g := range groups {
		if g.count > minCount {
			want = append(want, g)
		}
	}
	sort.Slice(want, func(i, j int) bool {
		return want[i].sum/float64(want[i].count) > want[j].sum/float64(want[j].count)
	})
	want = want[:min(len(want), 10)]
	if len(r.rows) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(r.rows), len(want))
	}
	for i, w := range want {
		got := parseFloats(r.rows[i])
		if int64(got[0]) != w.key || int(got[1]) != w.count || !near(got[2], w.sum/float64(w.count)) {
			return fmt.Errorf("row %d is %v, want id %d count %d avg %v", i, r.rows[i], w.key, w.count, w.sum/float64(w.count))
		}
	}
	return nil
}

// expectBuckets folds one tag of a stream into TIME_BUCKET groups over
// [a, b]. With sparse set, count and value columns skip NULLs (COUNT(tag),
// AVG(tag)); otherwise count is COUNT(*) and the value is SUM(tag).
func expectBuckets(st *streamTruth, tag int, width, a, b int64, sparse bool) []*bucketRow {
	byKey := map[int64]*bucketRow{}
	var out []*bucketRow
	for i := lowerBound(st.ts, a); i < len(st.ts) && st.ts[i] <= b; i++ {
		k := bucketFloor(st.ts[i], width)
		g := byKey[k]
		if g == nil {
			g = &bucketRow{key: k}
			byKey[k] = g
			out = append(out, g)
		}
		v := st.vals[tag][i]
		if sparse && math.IsNaN(v) {
			continue
		}
		g.count++
		g.sum += v
	}
	for _, g := range out {
		if sparse {
			g.null = g.count == 0
			if !g.null {
				g.sum /= float64(g.count)
			}
		}
	}
	return out
}

// checkBuckets compares a grouped answer with the expected groups,
// ignoring row order: column 0 is the group key, column c the count and
// c+1 the value.
func checkBuckets(r *reply, c int, want []*bucketRow) error {
	if len(r.rows) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(r.rows), len(want))
	}
	byKey := map[int64]*bucketRow{}
	for _, w := range want {
		byKey[w.key] = w
	}
	for _, row := range r.rows {
		got := parseFloats(row)
		w := byKey[int64(got[0])]
		switch {
		case w == nil:
			return fmt.Errorf("unexpected group %v", row)
		case int(got[c]) != w.count:
			return fmt.Errorf("group %v: count %v, want %d", row[0], row[c], w.count)
		case w.null != (row[c+1] == "NULL") || (!w.null && !near(got[c+1], w.sum)):
			return fmt.Errorf("group %v: value %v, want %v (null %v)", row[0], row[c+1], w.sum, w.null)
		}
	}
	return nil
}

// parseFloats parses a row's cells; NULL and text cells read as NaN.
func parseFloats(row []string) []float64 {
	out := make([]float64, len(row))
	for i, c := range row {
		v, err := strconv.ParseFloat(c, 64)
		if err != nil {
			v = math.NaN()
		}
		out[i] = v
	}
	return out
}
