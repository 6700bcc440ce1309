package main

import (
	"fmt"
	"time"

	"chow88/internal/check"
	"chow88/internal/codegen"
	"chow88/internal/core"
	"chow88/internal/ir"
	"chow88/internal/mcode"
	"chow88/internal/sim"
)

// perLayer lists every per-layer metric in report order. A traced run
// reports all of them; one its workload does not exercise reads 0
// (contract.json maps each metric to the workloads that exercise it).
var perLayer = []struct{ name, unit string }{
	{"front.parse_ms", "ms"},
	{"front.sema_ms", "ms"},
	{"front.lower_ms", "ms"},
	{"front.opt_ms", "ms"},
	{"front.ir_instrs", "count"},
	{"front.clone_ms", "ms"},
	{"front.cache_hit_ratio", "ratio"},
	{"core.plan_ms", "ms"},
	{"core.funcs_planned", "count"},
	{"check.plan_ms", "ms"},
	{"check.code_ms", "ms"},
	{"check.violations", "count"},
	{"codegen.emit_ms", "ms"},
	{"codegen.link_ms", "ms"},
	{"codegen.code_words", "count"},
	{"sim.first_run_ms", "ms"},
	{"sim.warm_run_ms", "ms"},
	{"sim.first_run_extra_ms", "ms"},
	{"sim.minstr_per_s", "Minstr/s"},
	{"sim.fallbacks", "count"},
	{"sim.alloc_bytes_per_run", "B"},
	{"incr.load_ms", "ms"},
	{"incr.build_ms", "ms"},
	{"incr.save_ms", "ms"},
	{"incr.reuse_ratio", "ratio"},
	{"incr.full_rebuilds", "count"},
	{"incr.propagated_ratio", "ratio"},
	{"incr.pressure_propagated_ratio", "ratio"},
	{"daemon.run_p50_ms", "ms"},
	{"daemon.compile_p50_ms", "ms"},
	{"daemon.incremental_p50_ms", "ms"},
	{"daemon.queue_rejections", "count"},
	{"daemon.queue_high_water", "count"},
	{"daemon.busy_high_water", "count"},
	{"bench.gen_lag_ms", "ms"},
	{"trace.unattributed_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// addLayers reports vals in perLayer order; a value under any other name
// is a bug in the workload that set it.
func addLayers(rep *report, vals map[string]float64) error {
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.name] = true
		rep.add(m.name, m.unit, vals[m.name])
	}
	for name := range vals {
		if !known[name] {
			return fmt.Errorf("per-layer metric %q is not declared", name)
		}
	}
	return nil
}

// backCounts accumulates what the traced back end and simulator saw.
type backCounts struct {
	compiles, funcsPlanned, codeWords, violations int
	runs, fallbacks                               int
	instrs                                        int64
	allocBytes                                    uint64
	warm                                          []time.Duration
}

// backEnd mirrors pipeline.Build for a compile that needs no repair: plan,
// validate the plan, emit, link, validate the code, each in its own span
// under op. The real pipeline would demote a procedure the validator
// rejects; here any violation fails the op.
func backEnd(tr *tracer, op int, mod *ir.Module, mode core.Mode, c *backCounts) (*mcode.Program, error) {
	s := tr.begin(op, "core.PlanModule")
	pp := core.PlanModule(mod, mode)
	tr.end(s)
	if len(pp.Failed) > 0 {
		return nil, fmt.Errorf("planning panicked in %d functions", len(pp.Failed))
	}
	s = tr.begin(op, "check.Plan")
	pv := check.Plan(pp)
	tr.end(s)
	s = tr.begin(op, "codegen.EmitFuncs")
	codes, err := codegen.EmitFuncs(pp)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin(op, "codegen.Link")
	prog, err := codegen.Link(pp.Module, codes)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin(op, "check.Code")
	cv := check.Code(pp, prog)
	tr.end(s)
	c.compiles++
	c.funcsPlanned += len(pp.Funcs)
	c.codeWords += len(prog.Code)
	if n := len(pv) + len(cv); n > 0 {
		c.violations += n
		return nil, fmt.Errorf("the validator reported %d linkage violations", n)
	}
	return prog, nil
}

// simRun runs prog in a span under op, then once more untimed by any op
// span for the warm (predecoded, translated) time.
func simRun(tr *tracer, op int, prog *mcode.Program, c *backCounts) (*sim.Result, error) {
	a0 := heapAllocs()
	s := tr.begin(op, "sim.Run")
	res, err := sim.Run(prog, sim.Options{})
	tr.end(s)
	c.allocBytes += heapAllocs() - a0
	if err != nil {
		return nil, err
	}
	c.runs++
	c.instrs += res.Stats.Instrs
	if res.FallbackReason != "" {
		c.fallbacks++
	}
	return res, nil
}

// warmRun reruns prog outside every op span and checks it repeats.
func warmRun(prog *mcode.Program, first *sim.Result, c *backCounts) error {
	t0 := time.Now()
	res, err := sim.Run(prog, sim.Options{})
	c.warm = append(c.warm, time.Since(t0))
	if err != nil {
		return err
	}
	if !sameInts(res.Output, first.Output) || res.Stats.Cycles != first.Stats.Cycles {
		return fmt.Errorf("a warm rerun diverged from the first run")
	}
	return nil
}

// backValues derives the back-end and simulator layer metrics.
func (c *backCounts) values(agg *layers, vals map[string]float64) {
	for _, l := range []struct{ metric, span string }{
		{"core.plan_ms", "core.PlanModule"},
		{"check.plan_ms", "check.Plan"},
		{"check.code_ms", "check.Code"},
		{"codegen.emit_ms", "codegen.EmitFuncs"},
		{"codegen.link_ms", "codegen.Link"},
	} {
		vals[l.metric] = agg.meanMS(l.span)
	}
	vals["check.violations"] = float64(c.violations)
	if c.compiles > 0 {
		vals["core.funcs_planned"] = float64(c.funcsPlanned) / float64(c.compiles)
		vals["codegen.code_words"] = float64(c.codeWords) / float64(c.compiles)
	}
	if c.runs == 0 {
		return
	}
	first := agg.meanMS("sim.Run")
	vals["sim.first_run_ms"] = first
	vals["sim.warm_run_ms"] = meanMS(c.warm)
	vals["sim.first_run_extra_ms"] = first - meanMS(c.warm)
	var total time.Duration
	for _, d := range agg.by["sim.Run"] {
		total += d
	}
	vals["sim.minstr_per_s"] = float64(c.instrs) / total.Seconds() / 1e6
	vals["sim.fallbacks"] = float64(c.fallbacks)
	vals["sim.alloc_bytes_per_run"] = float64(c.allocBytes) / float64(c.runs)
}

func sameInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
