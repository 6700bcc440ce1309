package core

import (
	"chow88/internal/callgraph"
	"chow88/internal/ir"
	"chow88/internal/regalloc"
)

// Incremental recompilation hooks. The paper's summary mechanism makes a
// procedure's externally visible interface explicit — its open/closed
// classification plus, when closed, the published register-usage summary
// and argument locations — so a previous build's plans can be replayed
// function by function: seed the oracle with the old summaries, re-plan
// only the invalidated slice, and stop propagating as soon as a re-planned
// procedure's linkage encodes byte-identically to before (the callers saw
// nothing change). internal/incr drives these hooks.

// NewShellPlan builds a ProgramPlan skeleton for incremental recompilation:
// the call graph and oracle are constructed exactly as PlanModule would
// build them, but no function is planned — the incremental driver seeds
// summaries from the previous build and plans only the invalidated slice.
func NewShellPlan(m *ir.Module, mode Mode) *ProgramPlan {
	forceOpen := map[string]bool{}
	for _, n := range mode.ForceOpen {
		forceOpen[n] = true
	}
	g := callgraph.Build(m, forceOpen)
	pp := &ProgramPlan{
		Module: m,
		Graph:  g,
		Mode:   mode,
		Funcs:  map[*ir.Func]*FuncPlan{},
		Order:  g.PostOrder,
	}
	if mode.IPRA {
		pp.Oracle = newIPRAOracle(mode.Config)
	} else {
		pp.Oracle = regalloc.DefaultOracle{Config: mode.Config}
	}
	return pp
}

// SeedSummary publishes a prior build's summary for f without planning it,
// so callers planned later (or reused verbatim) see the same linkage the
// previous build published. A no-op outside IPRA mode.
func (pp *ProgramPlan) SeedSummary(f *ir.Func, s *Summary) {
	if o, ok := pp.Oracle.(*ipraOracle); ok && s != nil {
		o.publish(f, s)
	}
}

// PlanOne (re)plans a single function against the currently published
// summaries: any stale summary of f is withdrawn first, the plan is
// recomputed exactly as PlanModule's walk would, and the fresh
// summary republishes. Panics are contained under Mode.Validate, as in
// Replan.
func (pp *ProgramPlan) PlanOne(f *ir.Func) (*FuncPlan, error) {
	o, _ := pp.Oracle.(*ipraOracle)
	if o != nil {
		o.unpublish(f)
	}
	delete(pp.Funcs, f)
	fp, err := pp.replanOne(f, pp.Mode)
	if err != nil {
		return nil, err
	}
	if fp.Summary != nil && o != nil {
		o.publish(f, fp.Summary)
	}
	pp.Funcs[f] = fp
	return fp, nil
}

// EncodeLinkage flattens one procedure's externally visible linkage into a
// canonical byte string. Two plans with equal encodings are
// interchangeable from every caller's point of view — open procedures all
// share the default linkage (clobber set and argument locations are fixed
// by the register configuration), and closed procedures are characterized
// by their published summary — so equality here is the summary-delta
// cut-off test of incremental recompilation.
func EncodeLinkage(open bool, s *Summary) []byte {
	if open || s == nil {
		return []byte{0}
	}
	buf := make([]byte, 0, 6+3*len(s.Args))
	buf = append(buf, 1,
		byte(s.Used), byte(s.Used>>8), byte(s.Used>>16), byte(s.Used>>24),
		byte(len(s.Args)))
	for _, a := range s.Args {
		if a.InReg {
			buf = append(buf, 1, byte(a.Reg), 0)
		} else {
			buf = append(buf, 0, byte(a.Slot), byte(a.Slot>>8))
		}
	}
	return buf
}
