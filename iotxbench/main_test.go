package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// tinyScale shrinks every store so each workload runs in about a second.
func tinyScale() scale {
	sc := defaultScale()
	sc.framePts = 500
	sc.flushEvery = 2_000
	sc.setupReps = 2
	sc.tdAccounts = 20
	sc.ldSensors = 200
	sc.readTDPoints = 6_000
	sc.readLDPoints = 6_000
	sc.scatterTDPoints = 3_000
	sc.ingestPreload = 4_000
	sc.maintEvery = 3_000
	sc.maintCycles = 2
	sc.dashThink = 5 * time.Millisecond
	return sc
}

// benchmarkFile is the part of BENCHMARK.json the binary must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, command has %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, command has %v", names, want)
		}
	}
	same := func(kind string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, command prints %d", kind, len(file), len(defs))
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s, command prints %s/%s", kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}

// TestSmoke runs every workload, untraced and traced, at tiny scale: each
// must print every metric of its kind with its unit, run checks, and fail
// none of them.
func TestSmoke(t *testing.T) {
	for _, wl := range []string{"ingest", "history", "rollup", "scatter"} {
		for _, traced := range []bool{false, true} {
			name := wl
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := &config{workload: wl, seed: 3, seconds: 0.6, trace: traced, workDir: t.TempDir(), sc: tinyScale()}
				rep, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var out struct {
					Correct   bool
					Attempted int64
					Failed    int64
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(rep.json()), &out); err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					rep.printChecks(os.Stderr)
					t.Fatalf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				for _, d := range defs {
					m, ok := out.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: printed %v with unit %q, want unit %q", d.name, ok, m.Unit, d.unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if len(out.Metrics) != len(defs) {
					t.Errorf("printed %d metrics, want %d", len(out.Metrics), len(defs))
				}
				if len(rep.checks) == 0 {
					t.Error("no correctness check ran")
				}
				for name, c := range rep.checks {
					if c.passed == 0 {
						t.Errorf("check %s never passed", name)
					}
				}
			})
		}
	}
}
