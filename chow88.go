// Package chow88 reproduces Fred Chow's PLDI 1988 paper "Minimizing
// Register Usage Penalty at Procedure Calls": one-pass inter-procedural
// register allocation layered on priority-based coloring, and
// shrink-wrapping of callee-saved register saves/restores.
//
// The package compiles programs in CW — a small, call-intensive, C-like
// experiment language — to code for a MIPS R2000-like virtual machine, under
// the compilation modes the paper measures:
//
//	ModeBase  -O2, shrink-wrap off (the baseline of every comparison)
//	ModeA     -O2, shrink-wrap on            (Table 1, column A)
//	ModeB     -O3 (IPRA), shrink-wrap off    (Table 1, column B)
//	ModeC     -O3 (IPRA), shrink-wrap on     (Table 1, column C)
//	ModeD     ModeC with 7 caller-saved regs (Table 2, column D)
//	ModeE     ModeC with 7 callee-saved regs (Table 2, column E)
//
// Running the compiled program on the built-in simulator yields pixie-style
// statistics (cycles, scalar loads/stores, calls) from which the paper's
// tables are regenerated.
//
// Quick start:
//
//	prog, err := chow88.Compile(src, chow88.ModeC())
//	res, err := prog.Run()
//	fmt.Println(res.Output, res.Stats.Cycles)
package chow88

import (
	"context"

	"chow88/internal/core"
	"chow88/internal/explain"
	"chow88/internal/interp"
	"chow88/internal/ir"
	"chow88/internal/mcode"
	"chow88/internal/obs"
	"chow88/internal/parser"
	"chow88/internal/pipeline"
	"chow88/internal/pixie"
	"chow88/internal/sema"
	"chow88/internal/sim"
)

// Mode selects a compilation configuration. Use the Mode* constructors.
type Mode = core.Mode

// The paper's measurement modes, plus ModeConv — mode C under an arbitrary
// register convention (see internal/mach.ParseConvention / Enumerate for
// building one).
var (
	ModeBase = core.ModeBase
	ModeA    = core.ModeA
	ModeB    = core.ModeB
	ModeC    = core.ModeC
	ModeD    = core.ModeD
	ModeE    = core.ModeE
	ModeConv = core.ModeConv
)

// Stats re-exports the pixie trace counters.
type Stats = pixie.Stats

// Program is a compiled CW program.
type Program struct {
	// Mode the program was compiled under.
	Mode Mode
	// Module is the optimized IR.
	Module *ir.Module
	// Plan is the register-allocation decision for every function.
	Plan *core.ProgramPlan
	// Code is the linked machine-code image.
	Code *mcode.Program
	// Report carries the compilation's phase timings and allocator metrics
	// when an obs session is active (obs.Begin); nil otherwise.
	Report *obs.CompileReport
	// Demotions records every graceful-degradation intervention taken while
	// compiling (procedures demoted to the open convention or replanned
	// after a validation failure or recovered panic). Empty for a clean
	// compile. Also available on Report when one is attached.
	Demotions []obs.Demotion
	// Inline is the procedure integrator's report when the mode enabled
	// inlining and the integrated build survived validation; nil otherwise
	// (including when a failed inlined build was discarded — see the
	// "discard-inlining" Demotion).
	Inline *obs.InlineReport
}

// Compile compiles CW source under the given mode.
//
// The front end (through the -O2 optimizer) is shared across modes through
// internal/front's source-keyed cache; mode.Sequential bypasses the cache,
// with byte-identical output. Register allocation is then one bottom-up
// pass over the call graph, and machine code is emitted function by
// function in module order.
//
// Under mode.Validate (on in every mode constructor) the linkage-invariant
// validator runs after planning and after code generation; a procedure
// whose plan fails validation is demoted to the safe open convention and
// the affected call-graph slice replanned, with the interventions recorded
// on Program.Demotions. mode.Strict turns any such repair into an error.
//
// Compile, CompileCtx, CompileProfiled, CompileInlined and
// CompileIncremental all run through internal/pipeline's entry
// (pipeline.Compile, CompileProfiled and CompileIncremental), which owns
// the compile span, its report window, the front-cache policy and, for
// incremental builds, the statefile load and save.
func Compile(src string, mode Mode) (*Program, error) {
	return CompileCtx(context.Background(), src, mode)
}

// CompileCtx is Compile with a cancellation/deadline context threaded
// through the validated pipeline (checked at stage boundaries). It is the
// primitive the chowd daemon's per-request deadlines are built on. A nil
// ctx means Background.
func CompileCtx(ctx context.Context, src string, mode Mode) (*Program, error) {
	c, err := pipeline.Compile(ctx, src, mode, "Compile")
	if err != nil {
		return nil, err
	}
	return newProgram(mode, c), nil
}

// newProgram wraps a finished build. Plan.Module, not the front end's
// module: an inlined build that was discarded compiled the pristine clone,
// and an inlined build that stuck rewrote the module in place.
func newProgram(mode Mode, c *pipeline.Compiled) *Program {
	p := &Program{Mode: mode, Module: c.Plan.Module, Plan: c.Plan, Code: c.Code, Demotions: c.Demotions, Inline: c.Plan.Inline, Report: c.Report}
	attachExplain(p)
	return p
}

// attachExplain snapshots the active decision journal (if any) onto the
// program's compile report, so chowcc -json and the explaindiff artifacts
// fall out of the ordinary report path.
func attachExplain(p *Program) {
	if j := explain.Current(); j != nil && p.Report != nil {
		p.Report.Explain = j.Artifact()
	}
}

// CompileIncremental compiles src like Compile, reusing the previous
// build recorded in the statefile at statePath when one exists. Only the
// summary-delta frontier of the edit — the changed functions plus the
// callers reached by a changed register-usage summary or argument-location
// vector — is replanned and re-emitted; everything else's plan and code
// are reused verbatim, and the output is byte-identical to a full
// Compile. A missing, corrupt, version-skewed or mode-mismatched
// statefile (or any internal surprise on the incremental path) degrades
// to a full recompile, never to a wrong program. The statefile is
// rewritten to describe the new build when possible; a failed save only
// costs the next compile its head start. One pipeline.CompileIncremental
// call does the load, the build and the save.
func CompileIncremental(src string, mode Mode, statePath string) (*Program, error) {
	return CompileIncrementalCtx(context.Background(), src, mode, statePath)
}

// CompileIncrementalCtx is CompileIncremental with a cancellation/deadline
// context (see CompileCtx). A nil ctx means Background.
func CompileIncrementalCtx(ctx context.Context, src string, mode Mode, statePath string) (*Program, error) {
	c, err := pipeline.CompileIncremental(ctx, src, mode, statePath, "CompileIncremental")
	if err != nil {
		return nil, err
	}
	// On the incremental path the journal covers only the replanned
	// frontier: reused plans and code were never re-decided this round.
	return newProgram(mode, &c.Compiled), nil
}

// RunResult is the outcome of executing a compiled program.
type RunResult struct {
	Output []int64
	Stats  Stats
	// Engine names the simulator engine that executed the run ("fast" or
	// "reference"); FallbackReason explains a reference run the fast engine
	// declined (see sim.Result).
	Engine         string
	FallbackReason string
	// Report carries the run's metrics window when an obs session is
	// active; nil otherwise.
	Report *obs.RunReport
}

// RunOptions bound simulator resource use.
type RunOptions = sim.Options

// Run executes the program on the virtual machine with default limits.
func (p *Program) Run() (*RunResult, error) { return p.RunWith(RunOptions{}) }

// RunWith executes the program with explicit limits.
func (p *Program) RunWith(opts RunOptions) (*RunResult, error) {
	res, err := sim.Run(p.Code, opts)
	if res == nil {
		return nil, err
	}
	return &RunResult{
		Output: res.Output, Stats: res.Stats,
		Engine: res.Engine, FallbackReason: res.FallbackReason,
		Report: res.Report,
	}, err
}

// Disassemble renders the generated machine code.
func (p *Program) Disassemble() string { return p.Code.Disassemble() }

// Interpret runs src on the reference AST interpreter, the oracle the
// compiled implementation is differentially tested against.
func Interpret(src string) ([]int64, error) {
	tree, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := sema.Check(tree)
	if err != nil {
		return nil, err
	}
	res, err := interp.Run(info, interp.Options{})
	if res == nil {
		return nil, err
	}
	return res.Output, err
}
