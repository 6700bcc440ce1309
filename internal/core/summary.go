// Package core implements the paper's contribution: one-pass
// inter-procedural register allocation driven by a depth-first traversal of
// the call graph (§2–§4, §6), and shrink-wrapping of callee-saved register
// saves/restores (§5). It orchestrates the whole compilation pipeline from
// CW source to executable machine code.
package core

import (
	"fmt"
	"strings"

	"chow88/internal/ir"
	"chow88/internal/mach"
	"chow88/internal/regalloc"
)

// Summary is the register-usage information a closed procedure publishes to
// its callers: one bit per register covering the procedure's entire call
// tree (§2), plus where it expects each incoming parameter (§4).
//
// A register marked used may be destroyed by calling the procedure; a
// register not marked is preserved (either untouched by the whole tree, or
// saved and restored somewhere inside it).
type Summary struct {
	Used mach.RegSet
	Args []regalloc.ArgLoc
}

// String renders the summary for diagnostics.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "used=%s args=[", s.Used)
	for i, a := range s.Args {
		if i > 0 {
			b.WriteString(" ")
		}
		if a.InReg {
			b.WriteString(a.Reg.String())
		} else {
			fmt.Fprintf(&b, "stack%d", a.Slot)
		}
	}
	b.WriteString("]")
	return b.String()
}

// ipraOracle answers per-call-site linkage queries using the summaries of
// already-processed closed procedures, falling back to the default linkage
// for open, extern, and indirect callees (§3: open procedures need not
// specify usage information — all caller-saved registers are assumed used
// and all callee-saved registers preserved).
//
// The oracle is the one cross-function channel of planning: PlanModule
// publishes each function's summary as soon as the function is planned, and
// the bottom-up walk guarantees a closed callee's summary is published
// before any of its callers is planned, so lookups are never stale. The
// oracle belongs to one planning walk, which runs on one goroutine; it is
// not synchronized, and concurrent compiles each build their own plan.
type ipraOracle struct {
	cfg       *mach.Config
	summaries map[*ir.Func]*Summary
}

var _ regalloc.Oracle = (*ipraOracle)(nil)

func newIPRAOracle(cfg *mach.Config) *ipraOracle {
	return &ipraOracle{cfg: cfg, summaries: map[*ir.Func]*Summary{}}
}

// publish records a closed procedure's summary for its callers.
func (o *ipraOracle) publish(f *ir.Func, s *Summary) {
	o.summaries[f] = s
}

// unpublish withdraws f's summary (graceful degradation: f is about to be
// demoted or replanned, and callers must fall back to the default linkage
// until a fresh summary is published).
func (o *ipraOracle) unpublish(f *ir.Func) {
	delete(o.summaries, f)
}

// summary returns the published summary of a direct call's callee, or nil.
func (o *ipraOracle) summary(call *ir.Instr) *Summary {
	if call.Op != ir.OpCall {
		return nil
	}
	return o.summaries[call.Callee]
}

func (o *ipraOracle) defaultClobber() mach.RegSet {
	return o.cfg.CallerSaved.Union(o.cfg.ParamSet())
}

// Clobbered implements regalloc.Oracle.
func (o *ipraOracle) Clobbered(call *ir.Instr) mach.RegSet {
	if s := o.summary(call); s != nil {
		return s.Used
	}
	return o.defaultClobber()
}

// ArgLocs implements regalloc.Oracle.
func (o *ipraOracle) ArgLocs(call *ir.Instr) []regalloc.ArgLoc {
	if s := o.summary(call); s != nil {
		return s.Args
	}
	return regalloc.DefaultArgLocs(o.cfg, len(call.Args))
}
