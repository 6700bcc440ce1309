package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io/fs"

	"chow88/internal/codegen"
	"chow88/internal/core"
	"chow88/internal/explain"
	"chow88/internal/front"
	"chow88/internal/incr"
	"chow88/internal/ir"
	"chow88/internal/mcode"
	"chow88/internal/obs"
	"chow88/internal/sim"
)

// Compiled is one compile's outcome.
type Compiled struct {
	// Plan.Module is the module actually compiled: the front end's clone,
	// rewritten in place by a surviving inline pass, or the pristine clone
	// when a failed inlined build was discarded.
	Plan      *core.ProgramPlan
	Code      *mcode.Program
	Demotions []obs.Demotion
	// Report is the compile's metrics window (with the training build's
	// window on Training when the compile trained); nil unless an obs
	// session is active and the compile was labeled.
	Report *obs.CompileReport
	// codes are the relocatable bodies Code was linked from, one per
	// Plan.Module function (nil for externs), kept for incr.Capture. Only
	// a full build sets them.
	codes []*codegen.FuncCode
}

// IncrementalCompiled is CompileIncremental's outcome: the build, and how
// the statefile served it.
type IncrementalCompiled struct {
	Compiled
	// Incremental reports whether the incremental path was taken;
	// FallbackReason explains a full rebuild, empty otherwise.
	Incremental    bool
	FallbackReason string
	// Replanned/Reused count defined functions on the incremental path.
	Replanned, Reused int
	// SaveErr is the statefile save's failure, nil when the save succeeded
	// or the build captured no state. A failed save only costs the next
	// round its head start.
	SaveErr error
}

// Profile is a training run: the training build's code image and its
// profiling run (counts and output), whose per-instruction counts become
// block frequencies on any module with the training module's block
// identities.
type Profile struct {
	code *mcode.Program
	Run  *sim.Result
}

// Compile is the one front→back sequence: the front end through the
// source-keyed cache (bypassed under mode.Sequential), then the validated
// back end (see buildModule).
//
// A non-empty label names the compile on the active obs session: the whole
// compile runs inside a PhaseCompile span "<label> <mode.Name>", and
// Compiled.Report covers it. An empty label opens no span and takes no
// report, for callers that measure the compile themselves or run many
// compiles concurrently.
func Compile(ctx context.Context, src string, mode core.Mode, label string) (*Compiled, error) {
	return compile(ctx, src, mode, label, false, nil)
}

// CompileProfiled is Compile with profile feedback (the paper's §8 future
// work). With prof nil it trains first, on the very module it then
// compiles: a training build under the baseline mode (copying mode's
// Optimize, ForceOpen, Validate and Strict), one profiling run, and the
// measured counts written onto the IR as block frequencies. The explain
// journal restarts after training, and the training build's metrics window
// is reported separately as Report.Training. With prof given (see Train)
// its counts are applied to a fresh module instead, so one training run can
// serve many final builds.
func CompileProfiled(ctx context.Context, src string, mode core.Mode, label string, prof *Profile) (*Compiled, error) {
	return compile(ctx, src, mode, label, true, prof)
}

// Train runs the front end on src and the training build and profiling run
// CompileProfiled would, returning the profile for CompileProfiled to
// apply.
func Train(src string, mode core.Mode) (*Profile, error) {
	mod, err := front.Module(src, mode.Optimize, !mode.Sequential)
	if err != nil {
		return nil, err
	}
	return train(mod, mode)
}

// CompileIncremental is Compile through the statefile at statePath: it
// loads the previous build's state, rebuilds src incrementally when that
// state allows (see BuildIncremental) and fully otherwise, then saves the
// new build's state there. A statefile that exists but does not load is
// reported as the FallbackReason "statefile rejected: <why>". The label
// rule is Compile's; the span covers the load, the build and the save.
func CompileIncremental(ctx context.Context, src string, mode core.Mode, statePath, label string) (*IncrementalCompiled, error) {
	w := openWindow(label, mode)
	st, lerr := incr.Load(statePath) // any load failure means "no previous state"
	res, err := buildIncremental(ctx, src, mode, st)
	if err != nil {
		w.sp.End()
		return nil, err
	}
	out := &IncrementalCompiled{
		Compiled:    Compiled{Plan: res.Plan, Code: res.Prog, Demotions: res.Demotions},
		Incremental: res.Incremental, FallbackReason: res.FallbackReason,
		Replanned: res.Replanned, Reused: res.Reused,
	}
	if lerr != nil && !errors.Is(lerr, fs.ErrNotExist) && !res.Incremental {
		out.FallbackReason = "statefile rejected: " + lerr.Error()
	}
	if res.State != nil {
		out.SaveErr = res.State.Save(statePath)
	}
	out.Report = w.close(nil, res.Demotions)
	return out, nil
}

// window is a labeled compile's PhaseCompile span and report window on the
// active obs session; the zero window (no label or no session) records
// nothing.
type window struct {
	s    *obs.Session
	snap obs.Snapshot
	sp   obs.Span
}

func openWindow(label string, mode core.Mode) window {
	var w window
	if label != "" {
		w.s = obs.Current()
	}
	w.snap = w.s.Snap()
	if w.s != nil {
		w.sp = w.s.Span(obs.PhaseCompile, label+" "+mode.Name)
	}
	return w
}

// close ends the span and returns the window's report (nil for the zero
// window).
func (w *window) close(training *obs.Report, demotions []obs.Demotion) *obs.CompileReport {
	w.sp.End()
	if w.s == nil {
		return nil
	}
	return &obs.CompileReport{Report: *w.s.ReportSince(w.snap), Training: training, Demotions: demotions}
}

func compile(ctx context.Context, src string, mode core.Mode, label string, profiled bool, prof *Profile) (*Compiled, error) {
	w := openWindow(label, mode)
	fail := func(err error) (*Compiled, error) {
		w.sp.End()
		return nil, err
	}
	mod, err := front.Module(src, mode.Optimize, !mode.Sequential)
	if err != nil {
		return fail(err)
	}
	var training *obs.Report
	if profiled {
		trained := prof == nil
		if trained {
			if prof, err = train(mod, mode); err != nil {
				return fail(err)
			}
		}
		if err := prof.apply(mod); err != nil {
			return fail(err)
		}
		if trained {
			// The training window closes here; the final build reports
			// separately. The journal restarts too: the training build's
			// decisions describe the baseline throwaway, not the program
			// being shipped.
			explain.Current().Reset()
			if w.s != nil {
				training = w.s.ReportSince(w.snap)
				w.snap = w.s.Snap()
			}
		}
	}
	c, err := buildModule(ctx, mod, mode)
	if err != nil {
		return fail(err)
	}
	c.Report = w.close(training, c.Demotions)
	return c, nil
}

// train builds mod under the baseline mode and runs it once with the trace
// profiler on. The training build never inlines: it measures the program's
// call structure, which inlining would erase.
func train(mod *ir.Module, mode core.Mode) (*Profile, error) {
	tm := core.ModeBase()
	tm.Optimize = mode.Optimize
	tm.ForceOpen = mode.ForceOpen
	tm.Validate = mode.Validate
	tm.Strict = mode.Strict
	c, err := buildModule(context.Background(), mod, tm)
	if err != nil {
		return nil, fmt.Errorf("training build: %w", err)
	}
	res, err := sim.Run(c.Code, sim.Options{Profile: true})
	if err != nil {
		return nil, fmt.Errorf("training run: %w", err)
	}
	return &Profile{code: c.Code, Run: res}, nil
}

// apply folds the profiling run's per-instruction execution counts onto mod:
// each basic block receives the execution count of its first instruction.
// A function or block of the image that mod lacks is an error.
func (p *Profile) apply(mod *ir.Module) error {
	counts := p.Run.InstrCounts
	if counts == nil {
		return fmt.Errorf("profile: run was not executed with Profile enabled")
	}
	for _, fi := range p.code.Funcs {
		if fi.Extern {
			continue
		}
		f := mod.Lookup(fi.Name)
		if f == nil {
			return fmt.Errorf("profile: image function %s not in module", fi.Name)
		}
		byID := make(map[int]*ir.Block, len(f.Blocks))
		for _, b := range f.Blocks {
			byID[b.ID] = b
		}
		for _, span := range fi.Blocks {
			b, ok := byID[span.BlockID]
			if !ok {
				return fmt.Errorf("profile: %s has no block %d", fi.Name, span.BlockID)
			}
			if span.Start < len(counts) {
				b.SetProfile(counts[span.Start])
			}
		}
	}
	return nil
}
