package chow88

import (
	"fmt"
	"testing"

	"chow88/internal/benchprog"
	"chow88/internal/codegen"
	"chow88/internal/core"
	"chow88/internal/experiments"
	"chow88/internal/front"
	"chow88/internal/ir"
	"chow88/internal/opt"
	"chow88/internal/pipeline"
	"chow88/internal/sim"
)

// The bench harness regenerates every measurement of the paper's evaluation
// as testing.B benchmarks. Each iteration compiles and executes a benchmark
// program on the cycle-accurate simulator; the paper's metrics are attached
// as custom units so `go test -bench` output reproduces the table rows:
//
//	paper-cycles        executed machine cycles (Table 1/2 column I input)
//	paper-scalarLS      scalar loads+stores     (column II input)
//	paper-saverestore   the save/restore component
//	paper-cyc/call      call intensity (Table 1's cycles/call column)
//
// The metrics are deterministic, so they are pinned where a test can fail
// on them: testdata/paper.golden (TestPaperMetricsGolden). `make
// benchsmoke` runs the compile, simulator, inliner, daemon and convention
// rows once each as a smoke; speed is measured by perfbench/, not here.

func benchProgram(b *testing.B, src string, mode Mode) {
	b.Helper()
	prog, err := Compile(src, mode)
	if err != nil {
		b.Fatalf("compile: %v", err)
	}
	var last *RunResult
	for i := 0; i < b.N; i++ {
		res, err := prog.Run()
		if err != nil {
			b.Fatalf("run: %v", err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(float64(last.Stats.Cycles), "paper-cycles")
		b.ReportMetric(float64(last.Stats.ScalarLS()), "paper-scalarLS")
		b.ReportMetric(float64(last.Stats.SaveRestoreLS()), "paper-saverestore")
		b.ReportMetric(last.Stats.CyclesPerCall(), "paper-cyc/call")
	}
}

// BenchmarkTable1 measures every suite program under the baseline and the
// three Table 1 columns (A = -O2+sw, B = -O3, C = -O3+sw).
func BenchmarkTable1(b *testing.B) {
	modes := map[string]Mode{
		"base": ModeBase(), "A": ModeA(), "B": ModeB(), "C": ModeC(),
	}
	for _, prog := range benchprog.All() {
		for _, key := range []string{"base", "A", "B", "C"} {
			b.Run(fmt.Sprintf("%s/%s", prog.Name, key), func(b *testing.B) {
				benchProgram(b, prog.Source, modes[key])
			})
		}
	}
}

// BenchmarkTable2 measures the register-class restriction columns
// (D = 7 caller-saved, E = 7 callee-saved).
func BenchmarkTable2(b *testing.B) {
	modes := map[string]Mode{"D": ModeD(), "E": ModeE()}
	for _, prog := range benchprog.All() {
		for _, key := range []string{"D", "E"} {
			b.Run(fmt.Sprintf("%s/%s", prog.Name, key), func(b *testing.B) {
				benchProgram(b, prog.Source, modes[key])
			})
		}
	}
}

// BenchmarkFigures runs the Figure 1-4 demonstrations (placement reports
// and per-path/per-frequency measurements).
func BenchmarkFigures(b *testing.B) {
	figs := map[string]func() (string, error){
		"fig1": experiments.Fig1,
		"fig2": experiments.Fig2,
		"fig3": experiments.Fig3,
		"fig4": experiments.Fig4,
	}
	for name, fn := range figs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSim measures raw simulator speed over compiled programs: the
// predecoded block-batched engine ("fast", the default behind Prog.Run)
// against the per-instruction reference interpreter. Both engines produce
// bit-identical Output/Stats/InstrCounts (see
// TestEnginesBitIdenticalOnSuite); this benchmark measures the speed gap
// the predecoding buys. The engines are pinned via sim.Options so the rows
// keep measuring the same engines across changes.
func BenchmarkSim(b *testing.B) {
	benchSimEngines(b, sim.Options{}, []string{"fast", "ref"})
}

// BenchmarkSimProfile is BenchmarkSim with per-instruction profiling on —
// the configuration every CompileProfiled training run pays for.
func BenchmarkSimProfile(b *testing.B) {
	benchSimEngines(b, sim.Options{Profile: true}, []string{"fast", "ref"})
}

func benchSimEngines(b *testing.B, opts sim.Options, engines []string) {
	for _, p := range compileBenchPrograms() {
		prog, err := Compile(p.Source, ModeC())
		if err != nil {
			b.Fatal(err)
		}
		for _, engine := range engines {
			run := sim.Run
			o := opts
			if engine == "ref" {
				run = sim.RunReference
			} else {
				o.Engine = engine
			}
			b.Run(fmt.Sprintf("%s/%s", p.Name, engine), func(b *testing.B) {
				var instrs int64
				for i := 0; i < b.N; i++ {
					res, err := run(prog.Code, o)
					if err != nil {
						b.Fatal(err)
					}
					instrs = res.Stats.Instrs
				}
				if elapsed := b.Elapsed(); elapsed > 0 {
					b.ReportMetric(float64(instrs)*float64(b.N)/elapsed.Seconds()/1e6, "Minstr/s")
				}
			})
		}
	}
}

// compileBenchPrograms are the compile-speed workloads: two real suite
// programs and the synthetic wide-call-graph program built for the pipeline.
func compileBenchPrograms() []benchprog.Benchmark {
	return []benchprog.Benchmark{
		*benchprog.Lookup("nim"),
		*benchprog.Lookup("uopt"),
		benchprog.Large(),
	}
}

// BenchmarkCompile measures end-to-end compilation speed (the paper reports
// the back-end cost of linked-Ucode compilation; this is our analogue).
// Each variant differs from the previous one in exactly one factor: "cold"
// bypasses the front-end cache (mode.Sequential) with the linkage validator
// off; "cached" takes the front end from a warm cache; "cached+validate"
// adds the validator, i.e. the default production configuration (injection
// disarmed). Compare with benchstat.
func BenchmarkCompile(b *testing.B) {
	for _, p := range compileBenchPrograms() {
		for _, variant := range []string{"cold", "cached", "cached+validate"} {
			mode := ModeC()
			mode.Sequential = variant == "cold"
			mode.Validate = variant == "cached+validate"
			b.Run(fmt.Sprintf("%s/%s", p.Name, variant), func(b *testing.B) {
				// Warm the cache off the clock (a no-op for "cold").
				if _, err := Compile(p.Source, mode); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Compile(p.Source, mode); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkIncrementalRecompile measures the single-function-edit rebuild,
// the workload incremental recompilation exists for: each iteration makes
// a never-seen body edit to one function of the large suite program and
// rebuilds. "full" pays the whole pipeline (the new source misses every
// cache); "incremental" carries the state forward and replans only the
// summary-delta frontier. Compare the two interleaved, same session.
func BenchmarkIncrementalRecompile(b *testing.B) {
	base := benchprog.Large()
	mode := ModeC()
	names := definedFuncs(b, base.Source)
	victim := names[0]
	for _, n := range names {
		if n != "main" {
			victim = n
		}
	}
	uniq := 0
	edit := func() string {
		uniq++
		return bodyEdit(b, base.Source, victim, fmt.Sprintf("print(%d);", 500000+uniq))
	}

	// Edit synthesis re-lexes the source to splice the chunk; that is the
	// editor's cost, not the compiler's, so it runs off the clock in both
	// variants.
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			src := edit()
			b.StartTimer()
			if _, err := Compile(src, mode); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		res, err := pipeline.BuildIncremental(base.Source, mode, nil)
		if err != nil {
			b.Fatal(err)
		}
		st := res.State
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			src := edit()
			b.StartTimer()
			res, err := pipeline.BuildIncremental(src, mode, st)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Incremental {
				b.Fatalf("fell back to a full rebuild: %s", res.FallbackReason)
			}
			st = res.State
		}
	})
}

// BenchmarkCompileFrontend isolates the mode-independent prefix of the
// pipeline (parse → sema → lower → -O2). "cold" rebuilds from source every
// iteration; "cached" measures a front-end cache hit, i.e. the cost of deep-
// copying the frozen master module.
func BenchmarkCompileFrontend(b *testing.B) {
	for _, p := range compileBenchPrograms() {
		b.Run(p.Name+"/cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := front.Build(p.Source, true); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(p.Name+"/cached", func(b *testing.B) {
			if _, err := front.Module(p.Source, true, true); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := front.Module(p.Source, true, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompileOpt isolates the -O2 optimizer (opt.Run). The optimizer
// rewrites the IR in place, so each iteration optimizes a fresh clone of the
// unoptimized module, cloned off the clock.
func BenchmarkCompileOpt(b *testing.B) {
	for _, p := range compileBenchPrograms() {
		master, err := front.Build(p.Source, false)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mod := ir.CloneModule(master)
				b.StartTimer()
				opt.Run(mod)
			}
		})
	}
}

// BenchmarkCompilePlan isolates register allocation (PlanModule's bottom-up
// walk). Live-range splitting rewrites the IR, so each iteration plans a
// fresh clone of a prebuilt master module, cloned off the clock.
func BenchmarkCompilePlan(b *testing.B) {
	for _, p := range compileBenchPrograms() {
		master, err := front.Build(p.Source, true)
		if err != nil {
			b.Fatal(err)
		}
		mode := ModeC()
		mode.Validate = false // isolate allocation: no panic containment
		b.Run(p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mod := ir.CloneModule(master)
				b.StartTimer()
				core.PlanModule(mod, mode)
			}
		})
	}
}

// BenchmarkCompileCodegen isolates machine-code emission (Generate) over a
// fixed plan. Generate does not mutate the plan, so one plan serves all
// iterations.
func BenchmarkCompileCodegen(b *testing.B) {
	for _, p := range compileBenchPrograms() {
		mode := ModeC()
		mode.Validate = false // isolate emission: no panic containment
		master, err := front.Build(p.Source, true)
		if err != nil {
			b.Fatal(err)
		}
		plan := core.PlanModule(master, mode)
		b.Run(p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := codegen.Generate(plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInline measures what the procedure integrator buys on the
// BenchmarkSim workloads: each pair of rows compiles under mode C with
// profile feedback — inlining off against inlining on at the default
// budget — and attaches the paper metrics (cycles, save/restore traffic,
// linkage cycles) for benchstat comparison of the on/off columns.
func BenchmarkInline(b *testing.B) {
	for _, p := range compileBenchPrograms() {
		for _, variant := range []string{"off", "on"} {
			b.Run(fmt.Sprintf("%s/%s", p.Name, variant), func(b *testing.B) {
				var prog *Program
				var err error
				if variant == "on" {
					prog, err = CompileInlined(p.Source, ModeC(), 0)
				} else {
					prog, err = CompileProfiled(p.Source, ModeC())
				}
				if err != nil {
					b.Fatalf("compile: %v", err)
				}
				var last *RunResult
				for i := 0; i < b.N; i++ {
					res, err := prog.Run()
					if err != nil {
						b.Fatalf("run: %v", err)
					}
					last = res
				}
				if last != nil {
					b.ReportMetric(float64(last.Stats.Cycles), "paper-cycles")
					b.ReportMetric(float64(last.Stats.SaveRestoreLS()), "paper-saverestore")
					b.ReportMetric(float64(last.Stats.LinkageCycles), "paper-linkage")
				}
			})
		}
	}
}

// BenchmarkHeightSweep is the ablation the paper's analysis calls for: "the
// relevant parameter is the height of the call graph". It builds synthetic
// call chains of growing depth, with register pressure at every level, and
// reports the save/restore traffic of the two restricted register classes.
// As the chain outgrows the register file, the callee-saved configuration's
// ability to migrate saves up the graph becomes the deciding factor.
func BenchmarkHeightSweep(b *testing.B) {
	for _, depth := range []int{2, 6, 12} {
		src := experiments.ChainProgram(depth, 3)
		for key, mode := range map[string]Mode{"D": ModeD(), "E": ModeE()} {
			b.Run(fmt.Sprintf("depth%d/%s", depth, key), func(b *testing.B) {
				benchProgram(b, src, mode)
			})
		}
	}
}

// BenchmarkConvention measures the calling-convention auto-tuner's
// headline: a sampled sweep over a 3-program workload selects a winner, and
// the default convention and that winner are then compiled and run side by
// side. TestPaperMetricsGolden pins both rows' metrics.
func BenchmarkConvention(b *testing.B) {
	var wl []experiments.Workload
	for _, p := range benchprog.All()[:3] {
		wl = append(wl, experiments.Workload{Name: p.Name, Source: p.Source})
	}
	rep, err := experiments.Sweep(experiments.SampleConventions(8), wl, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range []struct {
		key string
		row *experiments.SweepRow
	}{{"default", rep.Base}, {"winner", rep.Winner()}} {
		b.Run(r.key, func(b *testing.B) {
			var cycles, saveLS, linkage int64
			for i := 0; i < b.N; i++ {
				cycles, saveLS, linkage = 0, 0, 0
				for _, w := range wl {
					prog, err := Compile(w.Source, ModeConv(r.row.Cfg))
					if err != nil {
						b.Fatalf("%s: %v", w.Name, err)
					}
					res, err := prog.Run()
					if err != nil {
						b.Fatalf("%s: %v", w.Name, err)
					}
					cycles += res.Stats.Cycles
					saveLS += res.Stats.SaveRestoreLS()
					linkage += res.Stats.LinkageCycles
				}
			}
			b.ReportMetric(float64(cycles), "paper-cycles")
			b.ReportMetric(float64(saveLS), "paper-saverestore")
			b.ReportMetric(float64(linkage), "conv-linkage")
		})
	}
}
