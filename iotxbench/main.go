// Command iotxbench is the historian's end-to-end benchmark. It drives odh
// through its real surface — odh.Open on a directory store, the TCP server
// on an ephemeral loopback port with binary BATCH frames for ingest and SQL
// commands for reads, and odh.OpenCluster for scatter queries — under
// IoT-X load (TD trades and sparse LD weather stations) seeded from the
// command line, checks every answer against truth derived from the
// generators, and prints one JSON line of metrics as its last output line.
//
// Usage, from the repository root:
//
//	bash iotxbench/run.sh --workload ingest|history|rollup|scatter \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the line carries the end-to-end metrics; with --trace 1
// the run is split into an untraced half and a half in which traced and
// untraced operations alternate, and the line carries the per-layer
// metrics, the tracing overhead among them. metrics.json
// beside this file maps every metric to its layer, unit, the end-to-end
// metric it should move and the workload that shows it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one run's fixed inputs.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workDir holds the run's temporary store directory and, for traced
	// runs, the span dump.
	workDir string
	sc      scale
}

func (c *config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

var workloads = map[string]func(*config, *report) error{
	"ingest":  runIngest,
	"history": runHistory,
	"rollup":  runRollup,
	"scatter": runScatter,
}

func main() {
	var (
		workload = flag.String("workload", "", "ingest, history, rollup or scatter")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer variant")
	)
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: iotxbench --workload ingest|history|rollup|scatter --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	base := filepath.Join(".bench_build", "iotxbench-runs")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "iotxbench:", err)
		os.Exit(1)
	}
	cfg := &config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		workDir:  base,
		sc:       defaultScale(),
	}
	rep, err := run(cfg)
	rep.printChecks(os.Stderr)
	fmt.Println(rep.json())
	if err != nil {
		fmt.Fprintln(os.Stderr, "iotxbench:", err)
		os.Exit(1)
	}
}

// run executes one workload in a fresh temporary directory that is
// removed before it returns. A run that fails part way still returns the
// report with every metric measured so far.
func run(cfg *config) (*report, error) {
	rep := newReport(cfg.trace)
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(dir)
	runCfg := *cfg
	runCfg.workDir = dir
	err = workloads[cfg.workload](&runCfg, rep)
	if cfg.trace && rep.tr != nil {
		self := rep.tr.selfTimes()
		layers := make([]string, 0, len(self))
		for l := range self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(os.Stderr, "self time %-10s %10.1f ms\n", l, self[l])
		}
		fmt.Fprintf(os.Stderr, "tracing overhead %.3f ms per operation\n", rep.overheadMs)
		name := fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed)
		if werr := rep.tr.write(filepath.Join(cfg.workDir, name), rep.overheadMs); werr != nil {
			err = errors.Join(err, werr)
		}
	}
	if err == nil {
		err = rep.missing()
	}
	return rep, err
}
