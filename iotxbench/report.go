package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// metricDef names one printed metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, reported by every
// workload. error_frac is not among them: it is zero on a correct build,
// and the result line carries its parts as "attempted" and "failed".
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_pts_per_s", "1/s"},
	{"ack_mean_ms", "ms"},
	{"ack_p95_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"dp_per_s", "1/s"},
	{"maint_s", "s"},
	{"bytes_per_pt", "B"},
	{"heap_peak_mb", "MB"},
}

// historyTemplates and rollupShapes key the per-shape latency breakdowns.
var (
	historyTemplates = []string{"TQ1", "TQ2", "TQ3", "TQ4", "LQ1", "LQ2", "LQ3", "LQ4"}
	rollupShapes     = []string{"grand", "groupby", "bucket_aligned", "bucket_unaligned", "ld_sparse"}
)

// perLayer are the metrics of a traced run. A workload that never enters
// a layer reports that layer's work as 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"server.wire_overhead_ms", "ms"},
		{"server.frame_decode_us", "us"},
		{"server.reply_bytes_per_query", "B"},
		{"server.batches_shed", "count"},
		{"sqlparse.parse_us", "us"},
		{"sqlexec.plan_us", "us"},
		{"sqlexec.exec_ms", "ms"},
		{"sqlexec.est_decoded_bytes", "B"},
		{"sqlexec.q_error", "ratio"},
		{"tsstore.write_us_per_frame", "us"},
		{"tsstore.flush_ms", "ms"},
		{"tsstore.summary_hits_per_query", "count"},
		{"tsstore.subbucket_folds_per_query", "count"},
		{"tsstore.bytes_not_decoded_per_query", "B"},
		{"tsstore.blob_cache_hit_rate", "ratio"},
		{"tsstore.parallel_parts_per_query", "count"},
		{"tsstore.tier_ms", "ms"},
		{"tsstore.coalesce_ms", "ms"},
		{"tsstore.retention_ms", "ms"},
		{"tsstore.tier_bytes_reclaimed", "B"},
		{"compress.encode_ns_per_value", "ns"},
		{"compress.decode_ns_per_value", "ns"},
		{"compress.blob_bytes_per_pt", "B"},
		{"btree.seek_us", "us"},
		{"pagestore.pool_hit_rate", "ratio"},
		{"pagestore.bytes_read_per_query", "B"},
		{"pagestore.evictions_per_query", "count"},
		{"pagestore.bytes_written_per_pt", "B"},
		{"walog.records_per_group_commit", "ratio"},
		{"cluster.shard_ms", "ms"},
		{"cluster.gather_ms", "ms"},
		{"cluster.retries", "count"},
		{"runtime.alloc_bytes_per_op", "B"},
		{"runtime.mallocs_per_op", "count"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"trace.overhead_ms", "ms"},
	}
	for _, t := range historyTemplates {
		defs = append(defs, metricDef{"history." + t + ".p50_ms", "ms"})
	}
	for _, s := range rollupShapes {
		defs = append(defs, metricDef{"rollup." + s + ".p50_ms", "ms"})
	}
	return defs
}()

// report accumulates one run's metrics, operation counts and checks.
type report struct {
	defs   []metricDef
	values map[string]float64

	mu        sync.Mutex
	attempted int64
	failed    int64
	checks    map[string]*checkCount
	order     []string
	firstErr  []string

	tr         *tracer // traced runs only
	overheadMs float64
}

type checkCount struct{ passed, failed int64 }

func newReport(traced bool) *report {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	return &report{defs: defs, values: map[string]float64{}, checks: map[string]*checkCount{}}
}

// set records a metric; names outside the run's metric list are a bug.
func (r *report) set(name string, v float64) {
	for _, d := range r.defs {
		if d.name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			r.values[name] = v
			return
		}
	}
	panic("iotxbench: unknown metric " + name)
}

// has reports whether name belongs to this run's metric list.
func (r *report) has(name string) bool {
	for _, d := range r.defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// op counts one attempted operation and, when err is non-nil, a failure.
func (r *report) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		r.noteLocked(err.Error())
	}
}

// check counts one correctness check under name; a failed check is a
// failed operation.
func (r *report) check(name string, ok bool, detail func() string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.checks[name]
	if c == nil {
		c = &checkCount{}
		r.checks[name] = c
		r.order = append(r.order, name)
	}
	r.attempted++
	if ok {
		c.passed++
		return
	}
	c.failed++
	r.failed++
	r.noteLocked(name + ": " + detail())
}

func (r *report) noteLocked(msg string) {
	if len(r.firstErr) < 5 {
		r.firstErr = append(r.firstErr, msg)
	}
}

// missing reports metrics the run never set.
func (r *report) missing() error {
	var miss []string
	for _, d := range r.defs {
		if _, ok := r.values[d.name]; !ok {
			miss = append(miss, d.name)
		}
	}
	if len(miss) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(miss, ", "))
	}
	return nil
}

// printChecks writes each check's counts and the first failures.
func (r *report) printChecks(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		c := r.checks[name]
		fmt.Fprintf(w, "check %-28s passed %d failed %d\n", name, c.passed, c.failed)
	}
	for _, e := range r.firstErr {
		fmt.Fprintln(w, "failure:", e)
	}
	fmt.Fprintf(w, "operations attempted %d failed %d\n", r.attempted, r.failed)
}

// json renders the result line.
func (r *report) json() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]val{}
	for _, d := range r.defs {
		if v, ok := r.values[d.name]; ok {
			metrics[d.name] = val{v, d.unit}
		}
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	out, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, attempted, r.failed, metrics})
	return string(out)
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
