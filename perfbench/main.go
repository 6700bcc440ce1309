// Command perfbench is the chow88 repository benchmark. One invocation
// runs one workload for a fixed time and prints its metrics, checking the
// outputs it measures:
//
//	perfbench --workload tables --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced quarters with quarters through a stage-by-stage path
// that records a span around each layer's public entry point, and prints
// the per-layer metrics. contract.json records why each workload exists,
// which end-to-end metric each layer metric should move, and the serve
// workload's fixed rate and latency limit.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"chow88/internal/obs"
)

//go:embed contract.json
var contractJSON []byte

// contract holds the constants contract.json fixes for every run.
type contract struct {
	Serve struct {
		RatePerS       float64 `json:"offered_rate_per_s"`
		LatencyLimitMS float64 `json:"p99_latency_limit_ms"`
		TimeoutMS      int     `json:"request_timeout_ms"`
	} `json:"serve"`
	// ReconcileBound is the largest share of traced op time that layer
	// spans may leave unattributed.
	ReconcileBound float64 `json:"trace_reconcile_bound"`
}

// Run shape: setup is repeated and its median reported, so work moved into
// setup shows. It runs at least setupMin times, and a cheap one more often,
// until setupBudget is spent or it ran setupMax times. A short untimed
// warm-up lets lazy caches fill first.
const (
	setupMin    = 3
	setupMax    = 25
	setupBudget = 3 * time.Second
	warmup      = time.Second
)

// env is what every workload gets from the command line and contract.
type env struct {
	seed int64
	dir  string // scratch directory for statefiles, removed at exit
	c    contract
	// closedLoop makes serve send back to back, to measure the capacity
	// its fixed rate is derived from.
	closedLoop bool
}

// workload is one benchmark workload.
type workload interface {
	// setup builds the inputs and oracle from the seed (and, for serve,
	// starts the daemon); it is timed.
	setup(e *env) error
	// run drives ops for d. Untraced, it calls only the public API;
	// traced, it takes the stage-by-stage path and records spans.
	run(d time.Duration, sec section) (*loop, []*tracer, error)
	// check runs the off-clock output checks and returns the paper sums.
	check(rep *report) (*paperSums, error)
	// layerValues fills the per-layer metrics the workload exercises.
	layerValues(agg *layers, vals map[string]float64)
	close() error
}

// section says what a call to run measures: the untimed warm-up, then
// one untraced section, or untraced and traced quarters.
type section int

const (
	warmSection section = iota
	untracedSection
	tracedSection
)

var workloads = map[string]func() workload{
	"tables":  func() workload { return &tables{} },
	"compile": func() workload { return &compileW{} },
	"edit":    func() workload { return &editW{} },
	"serve":   func() workload { return &serveW{} },
}

func main() {
	name := flag.String("workload", "", "workload: tables, compile, edit or serve")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 measures per-layer metrics through the traced stage-by-stage path")
	workdir := flag.String("workdir", ".bench_build", "directory for scratch state and the trace file")
	closedLoop := flag.Bool("closed-loop", false, "serve: send back to back; ops_per_s is then the capacity")
	flag.Parse()
	e := &env{seed: *seed, closedLoop: *closedLoop}
	if err := mainErr(*name, e, time.Duration(*seconds*float64(time.Second)), *trace == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, e *env, d time.Duration, traced bool, workdir string) error {
	mk := workloads[name]
	if mk == nil {
		return fmt.Errorf("unknown workload %q (valid: tables, compile, edit, serve)", name)
	}
	if d <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := json.Unmarshal(contractJSON, &e.c); err != nil {
		return fmt.Errorf("contract.json: %w", err)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e.dir = dir

	rep, err := measure(name, mk, e, d, traced, workdir)
	if err != nil {
		return err
	}
	return rep.print(os.Stdout)
}

// measure sets the workload up, warms it, runs the timed section(s) and
// assembles the report.
func measure(name string, mk func() workload, e *env, d time.Duration, traced bool, workdir string) (*report, error) {
	var w workload
	var setups []float64
	var spent time.Duration
	for i := 0; i < setupMin || (i < setupMax && spent < setupBudget); i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		w = mk()
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		took := time.Since(t0)
		spent += took
		setups = append(setups, took.Seconds())
	}
	defer w.close()

	rep := &report{correct: true}
	warm, _, err := w.run(warmup, warmSection)
	if err != nil {
		return nil, err
	}
	rep.absorb(warm, false)

	// The daemon installs a process-wide tracing obs session by design, so
	// serve is timed with it; anywhere else an installed session would
	// silently trace the untraced section.
	if name != "serve" && obs.Current() != nil {
		return nil, fmt.Errorf("an obs session is active as the untraced timed section starts")
	}
	if !traced {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		l, _, err := w.run(d, untracedSection)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rep.absorb(l, true)
		sums, err := w.check(rep)
		if err != nil {
			return nil, err
		}
		addEndToEnd(rep, setups, l, d, rss)
		sums.report(rep)
		return rep, nil
	}

	// Untraced, traced, traced, untraced: a drift in machine speed over
	// the run weighs on both halves alike, so overhead_ratio compares like
	// with like.
	u, tl := &loop{}, &loop{}
	var ts []*tracer
	for _, sec := range []section{untracedSection, tracedSection, tracedSection, untracedSection} {
		l, t, err := w.run(d/4, sec)
		if err != nil {
			return nil, err
		}
		rep.absorb(l, true)
		if sec == tracedSection {
			tl.merge(l)
			ts = append(ts, t...)
		} else {
			u.merge(l)
		}
	}
	if _, err := w.check(rep); err != nil {
		return nil, err
	}
	agg := aggregate(ts...)
	if agg.ops == 0 {
		return nil, fmt.Errorf("the traced section completed no op")
	}
	vals := map[string]float64{}
	w.layerValues(agg, vals)
	vals["bench.gen_lag_ms"] = ms(tl.lag) / float64(max(tl.attempted, 1))
	vals["trace.unattributed_ms"] = ms(agg.unattributed) / float64(agg.ops)
	vals["trace.overhead_ratio"] = overheadRatio(tl, u)
	if share := agg.unattributedShare(); share > e.c.ReconcileBound {
		rep.mismatch("layer spans leave %.2f%% of traced op time unattributed (bound %.2f%%)",
			100*share, 100*e.c.ReconcileBound)
	}
	if err := writeChrome(filepath.Join(workdir, "trace-"+name+".json"), ts...); err != nil {
		return nil, err
	}
	if err := addLayers(rep, vals); err != nil {
		return nil, err
	}
	return rep, nil
}
