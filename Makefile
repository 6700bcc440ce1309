# chow88 — build and verification entry points.

GO ?= go

.PHONY: all build test race bench benchsmoke ci fmt-check vet chaos incr sim inline chowd sweep mem opt plan paper entry fuzz trace clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full test suite under the race detector (includes the concurrent-compile
# race test on the shared front cache and obs session).
race:
	$(GO) test -race ./...

# Compile-speed and simulator benchmarks; run twice into old.txt/new.txt and
# compare with benchstat (see README "Benchmarking the compiler").
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkCompile|BenchmarkSim' -benchmem ./

# One-iteration smoke of the compile, simulator, inliner, daemon-saturation
# and convention benchmarks: each row must still build and run. The rows are
# single cold iterations, not evidence of speed (perfbench/ measures that),
# and the paper metrics the inliner and convention rows report are pinned by
# TestPaperMetricsGolden (make paper).
benchsmoke:
	$(GO) test -run '^$$' -bench 'BenchmarkCompile|BenchmarkSim|BenchmarkInline|BenchmarkDaemon|BenchmarkConvention' -benchmem -benchtime 1x ./

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Fault-injection differential suite: every registered injection point
# against every suite program, plus the strict-mode and determinism checks
# (see DESIGN.md §9). Also exercised by plain `make test`; this target runs
# it alone, verbosely.
chaos:
	$(GO) test -run 'TestChaos|TestDemotionReplan' -v ./

# Incremental-recompilation differential suite: byte-identity against
# from-scratch compiles over the benchmark corpus, randomized edit
# sequences (the stress matrix), frontier-exactness counters, statefile
# corruption tolerance and mode-change fallback (see DESIGN.md §10), plus
# the incr/front unit tests. Also exercised by plain `make test`; this
# target runs the suite alone, verbosely, with the edit-speedup benchmark.
incr:
	$(GO) test -run 'TestIncremental' -v ./
	$(GO) test ./internal/incr ./internal/front
	$(GO) test -run '^$$' -bench 'BenchmarkIncrementalRecompile' -benchtime 1x ./

# Simulator gate: the fast-vs-reference differential slice (every engine
# test holds the fast engine bit-identical to the reference oracle, plus
# the predecode-memo concurrency and retention tests, run isolation, the
# refused-mapping check and the deadline partial-stats checks) and a
# one-iteration smoke of the simulator benchmark rows (see DESIGN.md §7).
# Also exercised by plain `make test`; the race-detector run of
# ./internal/sim lives in `make mem`.
sim:
	$(GO) test -run 'TestEngines|TestConcurrentRuns|TestRunDoesNotRetainPrograms|TestRunIsolation|TestBadMemWords|TestXopNames|TestWallClockDeadline|TestDeadlinePartialStatsExact' ./internal/sim ./
	$(GO) test -run '^$$' -bench 'BenchmarkSim' -benchtime 1x ./

# Procedure-integrator gate: the inline pass unit tests, the inlined-corpus
# slice (clean validator run across all modes, fast-vs-reference differential,
# cold/cached front-end determinism, the mode-C cycles-win acceptance bar and
# the statefile mode-skew fallback) and a one-iteration smoke of the inline
# on/off benchmark rows (see DESIGN.md §12). Also exercised by plain
# `make test`; this target runs the inlining slice alone.
inline:
	$(GO) test ./internal/inline
	$(GO) test -run 'TestInline' -v ./ ./internal/ir
	$(GO) test -run '^$$' -bench 'BenchmarkInline' -benchtime 1x ./

# Daemon gate: the chowd end-to-end test — build the real chowd and
# chowload binaries, serve a loopback unix socket, drive a mixed workload
# with slowloris and oversized abuse alongside healthy clients, and
# require zero healthy 5xx, zero oracle mismatches and a clean SIGTERM
# drain (see DESIGN.md §14). The daemon's unit and chaos suites
# (./internal/daemon) also run under plain `make test` / `make race`.
chowd:
	$(GO) test -run TestChowdE2E -count=1 -v ./cmd/chowd
	$(GO) test ./internal/daemon ./internal/loadgen

# Convention gate: the enumerator/spec/validator unit tests, the
# differential suite at the partition-space extremes (0- and 6-parameter
# conventions, all-caller and all-callee partitions, validator in strict
# mode), and the sweep smoke — a sampled convention set over a 3-program
# workload with explain-journal attribution and byte-determinism across
# candidate worker counts, plus the per-program profile-guided selection gate
# (never regress vs the default convention, beat it somewhere) — and the
# experiments binary's convention flags (-conv exit code 12, -sample/-gen).
# Also exercised by plain `make test`; this target runs the slice alone.
sweep:
	$(GO) test ./internal/mach
	$(GO) test -run 'TestConvention|TestExperimentsConventionFlags' ./
	$(GO) test -run 'TestSweep|TestSampleConventions|TestTune' -v ./internal/experiments

# Simulator-memory gate: a run's memory is a demand-zero mapping on unix
# and a heap slice elsewhere (see DESIGN.md §7), so both sides of that
# build-tag split must compile, and concurrent runs and daemon requests map
# and unmap under the race detector.
mem:
	GOOS=windows $(GO) build ./...
	GOOS=darwin $(GO) vet ./internal/sim
	$(GO) test -race ./internal/sim ./internal/daemon

# Optimizer gate: the opt unit tests (folding, CSE, the value-number key's
# meaning, the round cap never binding over the corpus), the liveness unit
# tests and the differential test holding the block-ID-indexed live sets
# equal to a map-keyed fixpoint before and after opt, and the optimized-IR
# goldens under testdata/opt (see DESIGN.md §16). Also exercised by plain
# `make test`; this target runs the slice alone.
opt:
	$(GO) test ./internal/opt ./internal/liveness
	$(GO) test -run 'TestOptIRGolden' -v ./

# Planner gate: the dataflow, liveness, regalloc, core and check unit
# tests, the differential test holding the block-ID-indexed Dominators and
# Loops equal to map-keyed copies before and after opt, the test holding the
# allocator's per-range call-cost vectors bit-identical to the per-register
# cost walk (with at most one oracle query per range and spanned call), and
# a one-iteration smoke of the planner benchmark (see DESIGN.md §17). Also
# exercised by plain `make test`; this target runs the slice alone.
plan:
	$(GO) test ./internal/dataflow ./internal/liveness ./internal/regalloc ./internal/core ./internal/check
	$(GO) test -run 'TestDominatorsLoopsMatchMapVersions|TestLoopsTwoBackEdgesAroundInnerLoop|TestCallCostsMatchPerRegisterWalk' -v ./internal/dataflow ./internal/regalloc
	$(GO) test -run '^$$' -bench 'BenchmarkCompilePlan' -benchtime 1x ./

# Paper-metric gate: the full `experiments -all` output (Tables 1-2,
# Figures 1-4, the height ablation, profile feedback, inlining vs IPRA, the
# convention sweep and the tuner) must match testdata/experiments.golden
# byte for byte; the per-program × mode metrics, the inline on/off, the
# convention default-vs-winner and the height-chain rows must match
# testdata/paper.golden; and the EXPERIMENTS.md shape checks must hold
# (TestPaperShapes). Also exercised by plain `make test`; this target runs
# them alone. Refresh a golden with `go test -run <its test> -update .` only
# after an intended change to generated code.
paper:
	$(GO) test -run 'TestExperimentsGolden|TestPaperMetricsGolden|TestPaperShapes' -count=1 -v ./

# Entry-point gate: outside internal/pipeline no code runs a compile's
# stages (front end, codegen.Generate/EmitFuncs, pipeline.Build*, incr.Load)
# or opens a compile span; a first CompileIncremental journals and emits
# exactly what Compile does (one codegen pass); and chowd's incremental
# endpoint, including a failed statefile save (see DESIGN.md §19). Also
# exercised by plain `make test`; this target runs the slice alone.
entry:
	$(GO) test -run 'TestOneCompileEntryPoint|TestCompileIncrementalEmitsOnce' -count=1 -v ./
	$(GO) test -run 'TestIncremental' -count=1 -v ./internal/daemon

# Longer fuzzing session for the front-end containment, differential
# compile and daemon request-decoder targets. FUZZTIME can be raised for
# overnight runs.
FUZZTIME ?= 60s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./
	$(GO) test -run '^$$' -fuzz FuzzCompile -fuzztime $(FUZZTIME) ./
	$(GO) test -run '^$$' -fuzz FuzzDaemonRequest -fuzztime $(FUZZTIME) ./

# The gate every change must pass: formatting, vet, build, the race-enabled
# test suite (./... includes the incr, front and daemon packages, so the
# incremental driver's, front cache's and admission queue's concurrency run
# under the detector), the incremental differential suite, the fast-vs-reference
# simulator gate, the chowd end-to-end gate, the convention-sweep gate,
# the simulator-memory gate (windows and darwin cross-builds of the
# mapping's build-tag split), the optimizer gate (opt and liveness tests,
# the liveness differential and the optimized-IR goldens), the planner gate
# (dataflow, liveness, regalloc, core and check tests, the dominator/loop
# differential, the call-cost equivalence test and a planner benchmark
# smoke), the paper-metric gate (the full experiments output, the paper
# metrics golden and the shape assertions), the entry-point gate (the
# single-entry guard, the incremental emit-once parity test and the
# daemon's incremental tests), a one-iteration smoke of the compile,
# incremental, simulator (fast and reference engines), inliner,
# daemon-saturation and convention benchmarks (benchsmoke), the obs- and
# explain-disabled zero-allocation checks, and a short smoke of the fuzz
# targets (seed corpus + a few seconds of mutation).
ci: fmt-check vet build race incr sim inline chowd sweep mem opt plan paper entry benchsmoke
	$(GO) test -run '^$$' -bench 'BenchmarkObsDisabled' -benchtime 1x ./internal/obs
	$(GO) test -run '^$$' -bench 'BenchmarkExplainDisabled' -benchtime 1x ./internal/explain
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./
	$(GO) test -run '^$$' -fuzz FuzzCompile -fuzztime 10s ./
	$(GO) test -run '^$$' -fuzz FuzzDaemonRequest -fuzztime 10s ./

# Observability smoke: compile and run a Table 1 program with tracing on,
# then check the emitted Chrome trace JSON is well formed.
trace:
	$(GO) run ./cmd/chowcc -O3 -stats -trace=trace.json -run testdata/nim.cw > /dev/null
	$(GO) run ./cmd/tracelint trace.json

clean:
	$(GO) clean ./...
	rm -f trace.json
