package core

import (
	"fmt"

	"chow88/internal/callgraph"
	"chow88/internal/ir"
	"chow88/internal/obs"
)

// Graceful degradation (the paper's own escape hatch, §3): an open
// procedure always uses the safe default convention, so a procedure whose
// plan fails validation — or whose planning panicked — can be
// demoted to open and re-planned instead of failing or miscompiling the
// module. Demotion invalidates every ancestor whose plan consumed the
// demoted summary; the affected call-graph slice re-plans sequentially in
// bottom-up order, which keeps the repaired module deterministic.

// Demote forces f to the open convention. The caller must Replan the
// affected slice afterwards; until then f's old plan and summary are stale.
func (pp *ProgramPlan) Demote(f *ir.Func, reason string) {
	pp.Graph.Open[f] = true
	pp.Graph.OpenReason[f] = reason
	pp.Graph.OpenCause[f] = callgraph.CauseDemotion
}

// Affected returns the call-graph slice a change to roots invalidates: the
// roots plus every transitive caller (each consumed, directly or through
// intermediate summaries, linkage facts derived from a root). The slice is
// returned in bottom-up (post) order, ready for Replan.
func (pp *ProgramPlan) Affected(roots ...*ir.Func) []*ir.Func {
	in := map[*ir.Func]bool{}
	var visit func(f *ir.Func)
	visit = func(f *ir.Func) {
		if in[f] {
			return
		}
		in[f] = true
		for _, c := range pp.Graph.Callers[f] {
			visit(c)
		}
	}
	for _, f := range roots {
		visit(f)
	}
	out := make([]*ir.Func, 0, len(in))
	for _, f := range pp.Graph.PostOrder {
		if in[f] && !f.Extern {
			out = append(out, f)
		}
	}
	return out
}

// Replan recomputes the plans of fs, which must be closed under the
// caller relation (use Affected) and in bottom-up order. Summaries of every
// function in fs are withdrawn first, so re-planning sees no stale
// linkage; fresh summaries republish as each function completes. Functions
// in noShrinkWrap re-plan with shrink-wrapping disabled (the second rung of
// the degradation ladder). Replanning is sequential: it is the rare repair
// path, and a fixed order keeps the output byte-identical across runs.
func (pp *ProgramPlan) Replan(fs []*ir.Func, noShrinkWrap map[*ir.Func]bool) error {
	o, _ := pp.Oracle.(*ipraOracle)
	for _, f := range fs {
		if o != nil {
			o.unpublish(f)
		}
		delete(pp.Funcs, f)
	}
	s := obs.Current()
	sp := s.Span(obs.PhasePlan, fmt.Sprintf("replan (%d funcs)", len(fs)))
	defer sp.End()
	for _, f := range fs {
		mode := pp.Mode
		if noShrinkWrap[f] {
			mode.ShrinkWrap = false
		}
		fp, err := pp.replanOne(f, mode)
		if err != nil {
			return err
		}
		if fp.Summary != nil && o != nil {
			o.publish(f, fp.Summary)
		}
		pp.Funcs[f] = fp
		s.Add(obs.CCheckReplans, 1)
	}
	return nil
}

// replanOne re-plans a single function, containing panics (a repair that
// panics again is reported as an error, not a crash).
func (pp *ProgramPlan) replanOne(f *ir.Func, mode Mode) (fp *FuncPlan, err error) {
	if mode.Validate {
		defer func() {
			if r := recover(); r != nil {
				obs.Current().Add(obs.CCheckPanics, 1)
				fp, err = nil, fmt.Errorf("replan %s: recovered panic: %v", f.Name, r)
			}
		}()
	}
	return planFunc(f, pp.Graph, mode, pp.Oracle), nil
}
