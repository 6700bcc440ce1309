// Package pipeline orchestrates the validated middle/back end: register
// allocation (core.PlanModule), the linkage-invariant validator
// (internal/check) and code generation (internal/codegen), connected by
// the graceful-degradation loop. Compile, CompileProfiled and
// CompileIncremental are the one entry that runs the front end and then
// this back end (CompileIncremental around the statefile), and the only
// place a profile-training build and run happen.
//
// Per procedure the degradation ladder is:
//
//  1. demote to the open convention (closed procedures; the paper's §3
//     escape hatch — open procedures always use the safe default linkage),
//     or re-plan in place when the procedure is already open;
//  2. re-plan with shrink-wrapping disabled for that procedure;
//  3. give up: hard error.
//
// Each intervention invalidates the offender's transitive callers (their
// plans consumed its summary) and re-plans that call-graph slice
// sequentially in bottom-up order, so a degraded compile is still
// deterministic. Mode.Strict short-circuits the ladder: any violation or
// recovered panic is a hard *ValidationError (for CI, where a plan that
// needed repair is itself the bug).
package pipeline

import (
	"context"
	"errors"
	"fmt"

	"chow88/internal/check"
	"chow88/internal/codegen"
	"chow88/internal/core"
	"chow88/internal/explain"
	"chow88/internal/incr"
	"chow88/internal/inline"
	"chow88/internal/ir"
	"chow88/internal/mach"
	"chow88/internal/mcode"
	"chow88/internal/obs"
)

// validateMode rejects incoherent register conventions before any planning
// happens: a Config that fails mach validation (overlapping save classes,
// reserved registers in an allocatable set, bad parameter list) would
// otherwise surface as a deep allocator failure or a miscompile. A nil
// Config is left to PlanModule's defaulting.
func validateMode(mode core.Mode) error {
	if mode.Config == nil {
		return nil
	}
	return mode.Config.Validate()
}

// Compile-time guarantee that the convention error is a distinct type the
// classifier can dispatch on.
var _ error = (*mach.ConfigError)(nil)

// maxRounds bounds the degradation loop. Every round escalates at least
// one procedure's ladder rung, so convergence is structural; the bound
// only guards against a validator/planner disagreement oscillating.
const maxRounds = 8

// ValidationError reports linkage violations that could not (or, under
// Mode.Strict, were not allowed to) be repaired by degradation.
type ValidationError struct {
	// Phase is the pipeline stage that found the violations: "plan",
	// "validate", "codegen" or "code-check".
	Phase      string
	Violations []check.Violation
}

func (e *ValidationError) Error() string {
	if len(e.Violations) == 0 {
		return fmt.Sprintf("validate: %s failed", e.Phase)
	}
	return fmt.Sprintf("validate: %d linkage violation(s) at %s (first: %s)",
		len(e.Violations), e.Phase, e.Violations[0])
}

// offender is one procedure requiring intervention this round.
type offender struct {
	f      *ir.Func
	phase  string
	reason string
}

// buildModule plans, validates and generates code for mod. With
// mode.Validate off it is exactly PlanModule + Generate. With it on,
// validation runs after planning and after code generation, per-function
// panics are contained, and offending procedures degrade per the ladder;
// every intervention is returned as an obs.Demotion (and counted on the
// active obs session).
//
// With mode.Inline set, the profile-guided procedure integrator rewrites
// mod in place first (so any profile counts attached to its blocks are
// honored), and the whole validated pipeline runs on the integrated
// program. Should that build fail and the mode is not Strict, the inlining
// is discarded wholesale — the pipeline reruns on a pristine pre-inlining
// clone and records the retreat as a Demotion — because a partial
// un-inlining cannot be expressed once blocks are spliced. The returned
// plan's Module is the module actually compiled; with a discard that is
// the clone, not mod.
//
// ctx is checked at every stage boundary (before the inline pass, before
// planning, at the top of every degradation round, before code
// generation), so a canceled compile returns ctx.Err() — wrapped in
// ErrCanceled for classification — within one stage's worth of work
// rather than running to completion. The stages themselves are not
// preemptible; overshoot is bounded by the longest single stage, which the
// chowd daemon's request deadlines rely on. A nil ctx means Background.
func buildModule(ctx context.Context, mod *ir.Module, mode core.Mode) (*Compiled, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if err := validateMode(mode); err != nil {
		return nil, err
	}
	if !mode.Inline {
		return build(ctx, mod, mode)
	}
	budget := mode.InlineBudget
	if budget == 0 {
		budget = inline.DefaultBudget
	}
	pristine := ir.CloneModule(mod)
	rep := inline.Apply(mod, budget, mode.ForceOpen)
	c, err := build(ctx, mod, mode)
	if err == nil {
		c.Plan.Inline = rep
		return c, nil
	}
	if mode.Strict || errors.Is(err, ErrCanceled) {
		return nil, err
	}
	obs.Current().Add(obs.CInlineDiscards, 1)
	if j := explain.Current(); j != nil {
		// The discarded build's decisions describe a program that no longer
		// exists; restart the journal and record the retreat itself.
		j.Reset()
		j.RecordModule(explain.Decision{
			Kind: explain.KindDiscard, Cause: "inline",
			Detail: "inlined build failed (" + err.Error() + "); rebuilt the pristine pre-inlining module",
		})
	}
	c, err2 := build(ctx, pristine, mode)
	if err2 != nil {
		return nil, err2
	}
	c.Demotions = append(c.Demotions, obs.Demotion{
		Func: "*", Phase: "inline", Action: "discard-inlining", Reason: err.Error(),
	})
	return c, nil
}

// ErrCanceled wraps a context cancellation or deadline expiry observed at
// a pipeline stage boundary; errors.Is finds both this and the underlying
// context error (context.DeadlineExceeded / context.Canceled).
var ErrCanceled = errors.New("pipeline: compile canceled")

// ctxErr shapes a context failure as the pipeline's typed error.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

func build(ctx context.Context, mod *ir.Module, mode core.Mode) (*Compiled, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	pp := core.PlanModule(mod, mode)
	if !mode.Validate {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		prog, codes, err := codegen.Generate(pp)
		if err != nil {
			return nil, err
		}
		return &Compiled{Plan: pp, Code: prog, codes: codes}, nil
	}

	s := obs.Current()
	byName := make(map[string]*ir.Func, len(mod.Funcs))
	for _, f := range mod.Funcs {
		byName[f.Name] = f
	}

	var demotions []obs.Demotion
	rung := map[*ir.Func]int{}
	noSW := map[*ir.Func]bool{}
	for round := 0; round < maxRounds; round++ {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		offs, c, err := findOffenders(pp, byName)
		if err != nil {
			return nil, err
		}
		if len(offs) == 0 {
			c.Demotions = demotions
			return c, nil
		}
		if mode.Strict {
			return nil, strictError(offs)
		}
		roots := make([]*ir.Func, 0, len(offs))
		for _, o := range offs {
			var action string
			switch rung[o.f] {
			case 0:
				if mode.IPRA && !pp.Graph.Open[o.f] {
					action = "demote"
					pp.Demote(o.f, "degraded: "+o.reason)
					s.Add(obs.CCheckDemotions, 1)
				} else {
					action = "replan"
				}
			case 1:
				action = "replan-nosw"
				noSW[o.f] = true
			default:
				return nil, strictError(offs)
			}
			rung[o.f]++
			demotions = append(demotions, obs.Demotion{
				Func: o.f.Name, Phase: o.phase, Action: action, Reason: o.reason,
			})
			if j := explain.Current(); j != nil {
				j.Record(o.f.Name, explain.Decision{
					Kind: explain.KindDemote, Cause: action,
					Detail: fmt.Sprintf("%s failure: %s", o.phase, o.reason),
				})
			}
			roots = append(roots, o.f)
		}
		if err := pp.Replan(pp.Affected(roots...), noSW); err != nil {
			return nil, err
		}
	}
	return nil, &ValidationError{Phase: "validate"}
}

// BuildIncremental compiles src, reusing as much of the previous build —
// described by st, from incr.Capture or a statefile — as the edit allows.
// Unchanged functions whose callees republish byte-identical linkage keep
// their plans and code verbatim; only the summary-delta frontier is
// replanned and re-emitted. The output is byte-identical to a full
// Compile of src.
//
// st may be nil (first build). Whenever the incremental path cannot run —
// no state, a mode change, an edit outside the chunkable structure, any
// internal surprise, a validation failure — it falls back to a clean full
// build (counted on obs as incr.full_rebuilds) with FallbackReason set.
// The returned state describes the new revision for the next round; it is
// nil when the build degraded (demotions) or the source resists chunking.
func BuildIncremental(src string, mode core.Mode, st *incr.State) (*IncrementalResult, error) {
	return buildIncremental(context.Background(), src, mode, st)
}

// buildIncremental is BuildIncremental with a cancellation/deadline
// context, checked at the same stage-boundary granularity as buildModule
// (the incremental replan itself is one stage). A nil ctx means
// Background.
func buildIncremental(ctx context.Context, src string, mode core.Mode, st *incr.State) (*IncrementalResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if err := validateMode(mode); err != nil {
		return nil, err
	}
	// Inlining rewrites the module after the front end, so the statefile's
	// chunk-to-function correspondence no longer describes the compiled
	// program: never reuse prior state and never capture new state under
	// it. (The mode fingerprint rejects cross-mode reuse anyway; this gate
	// makes the policy explicit and skips the work.)
	if mode.Inline {
		obs.Current().Add(obs.CIncrFullRebuild, 1)
		return fullBuildIncremental(ctx, src, mode, "inlining enabled")
	}
	reason := "no previous state"
	if st != nil {
		out, r := incr.Apply(src, mode, st)
		if out != nil {
			return &IncrementalResult{
				Plan: out.Plan, Prog: out.Prog, State: out.State,
				Incremental: true, Replanned: out.Replanned, Reused: out.Reused,
			}, nil
		}
		reason = r
	}
	obs.Current().Add(obs.CIncrFullRebuild, 1)
	return fullBuildIncremental(ctx, src, mode, reason)
}

// IncrementalResult is BuildIncremental's outcome.
type IncrementalResult struct {
	Plan *core.ProgramPlan
	Prog *mcode.Program
	// State describes this build for the next incremental round; nil when
	// none could be captured.
	State *incr.State
	// Incremental reports whether the incremental path was taken;
	// FallbackReason explains a full rebuild ("no previous state" on a
	// first build), empty otherwise.
	Incremental    bool
	FallbackReason string
	// Replanned/Reused count defined functions on the incremental path.
	Replanned, Reused int
	// Demotions from the full build's degradation ladder (always empty on
	// the incremental path, which does not degrade — it falls back).
	Demotions []obs.Demotion
}

// fullBuildIncremental is the fallback: a clean full build plus a state
// capture for the next round, from the bodies the build emitted.
func fullBuildIncremental(ctx context.Context, src string, mode core.Mode, reason string) (*IncrementalResult, error) {
	c, err := Compile(ctx, src, mode, "")
	if err != nil {
		return nil, err
	}
	res := &IncrementalResult{Plan: c.Plan, Prog: c.Code, FallbackReason: reason, Demotions: c.Demotions}
	// A degraded plan reflects this build's repair history, not a function
	// of the source alone; don't let it seed future incremental rounds.
	// Inlined builds never capture: see BuildIncremental.
	if len(c.Demotions) == 0 && !mode.Inline {
		if st, err := incr.Capture(src, mode, c.Plan, c.codes); err == nil {
			res.State = st
		}
	}
	return res, nil
}

// findOffenders runs the staged pipeline until a stage reports failures:
// recovered planning panics, plan validation, code generation, machine-code
// validation. A clean pass returns the build (without its demotions).
func findOffenders(pp *core.ProgramPlan, byName map[string]*ir.Func) ([]offender, *Compiled, error) {
	s := obs.Current()

	// Recovered planning panics.
	if len(pp.Failed) > 0 {
		var offs []offender
		for _, f := range pp.Module.Funcs {
			if reason, ok := pp.Failed[f]; ok {
				offs = append(offs, offender{f: f, phase: "plan", reason: "recovered panic: " + reason})
			}
		}
		pp.Failed = nil
		return offs, nil, nil
	}

	// Plan-level linkage validation.
	sp := s.Span(obs.PhaseValidate, "check plan")
	viols := check.Plan(pp)
	sp.End()
	if len(viols) > 0 {
		return violationOffenders(pp, byName, "validate", viols)
	}

	// Code generation (recovered panics surface as *codegen.FuncError).
	prog, codes, err := codegen.Generate(pp)
	if err != nil {
		var fe *codegen.FuncError
		if errors.As(err, &fe) {
			if f := byName[fe.Func]; f != nil {
				return []offender{{f: f, phase: "codegen", reason: fe.Err.Error()}}, nil, nil
			}
		}
		return nil, nil, err
	}

	// Machine-code-level validation.
	sp = s.Span(obs.PhaseValidate, "check code")
	viols = check.Code(pp, prog)
	sp.End()
	if len(viols) > 0 {
		return violationOffenders(pp, byName, "code-check", viols)
	}
	return nil, &Compiled{Plan: pp, Code: prog, codes: codes}, nil
}

// violationOffenders groups violations by procedure (first rule per
// procedure wins as the reason), in deterministic module order.
func violationOffenders(pp *core.ProgramPlan, byName map[string]*ir.Func, phase string, viols []check.Violation) ([]offender, *Compiled, error) {
	obs.Current().Add(obs.CCheckViolations, int64(len(viols)))
	first := map[*ir.Func]string{}
	for _, v := range viols {
		f := byName[v.Func]
		if f == nil {
			// A violation naming no known procedure cannot be repaired by
			// demotion; fail hard.
			return nil, nil, &ValidationError{Phase: phase, Violations: viols}
		}
		if _, ok := first[f]; !ok {
			first[f] = fmt.Sprintf("%s: %s", v.Rule, v.Detail)
		}
	}
	var offs []offender
	for _, f := range pp.Module.Funcs {
		if reason, ok := first[f]; ok {
			offs = append(offs, offender{f: f, phase: phase, reason: reason})
		}
	}
	return offs, nil, nil
}

// strictError shapes the round's offenders as a hard error.
func strictError(offs []offender) *ValidationError {
	e := &ValidationError{Phase: offs[0].phase}
	for _, o := range offs {
		e.Violations = append(e.Violations, check.Violation{
			Func: o.f.Name, Rule: "degradation-required", Detail: o.reason,
		})
	}
	return e
}
