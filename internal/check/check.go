// Package check is the linkage-invariant validator: an independent
// re-derivation of the contracts the paper's inter-procedural allocator and
// shrink-wrapper must uphold, run against a finished allocation plan
// (Plan) and against the emitted machine code (Code).
//
// mcode.Verify checks structural well-formedness — registers in range,
// branches landing on block heads. This package checks meaning:
//
//   - a closed procedure's published register-usage summary, together with
//     its local save plan, covers everything its call tree actually
//     touches (§2–§3 of the paper);
//   - published parameter locations agree with where the allocator really
//     placed each parameter, and the oracle callers consumed agrees with
//     the plans on record (§4);
//   - no live range sits in a register a spanned call may destroy unless
//     the recorded allocation forces a save around that call;
//   - shrink-wrapped and entry/exit save/restore plans balance on every
//     CFG path and cover every block where a managed register is active
//     (equations 3.1–3.6, §5–§6).
//
// Every derivation here is recomputed from the IR and the per-function
// plans — never read back from the oracle or the planner's intermediate
// state — so a planner bug cannot vouch for itself.
package check

import (
	"fmt"

	"chow88/internal/core"
	"chow88/internal/ir"
	"chow88/internal/liveness"
	"chow88/internal/mach"
	"chow88/internal/regalloc"
)

// Rule identifiers, stable for scripting and demotion reasons.
const (
	RuleMissingPlan      = "missing-plan"
	RuleSummaryShape     = "summary-shape"
	RuleSummarySoundness = "summary-soundness"
	RuleSummaryArgs      = "summary-args"
	RuleParamSaveClash   = "param-save-conflict"
	RuleOracleAgreement  = "oracle-agreement"
	RuleUnsavedLiveRange = "live-across-unsaved-call"
	RuleSaveBalance      = "save-balance"
	RuleSaveCoverage     = "save-coverage"
	RuleSaveClass        = "save-class"
	RuleCodeBalance      = "code-save-balance"
	RuleCodeClobber      = "code-callee-saved-clobber"
)

// Violation is one broken invariant, attributed to the procedure whose
// demotion to the safe open convention would repair it.
type Violation struct {
	Func   string
	Rule   string
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s: %s", v.Func, v.Rule, v.Detail)
}

// Plan validates a finished allocation plan. It returns every violation
// found (nil when the plan is clean), in deterministic module order.
func Plan(pp *core.ProgramPlan) []Violation {
	return PlanFuncs(pp, pp.Module.Funcs, SummariesOf(pp))
}

// PlanFuncs validates the plans of just fs, resolving callee summaries
// through summaryOf instead of pp.Funcs. Incremental recompilation checks
// only the re-planned slice this way: reused callees have no FuncPlan in
// the shell ProgramPlan, but their linkage is known from the previous
// build's state, and summaryOf supplies it.
func PlanFuncs(pp *core.ProgramPlan, fs []*ir.Func, summaryOf func(*ir.Func) *core.Summary) []Violation {
	c := &checker{pp: pp, cfg: pp.Mode.Config, summaryOf: summaryOf}
	for _, f := range fs {
		if f.Extern {
			continue
		}
		fp := pp.Funcs[f]
		if fp == nil {
			c.report(f.Name, RuleMissingPlan, "no allocation plan recorded")
			continue
		}
		c.checkFunc(f, fp)
	}
	return c.viols
}

// SummariesOf resolves callee summaries from the plans recorded in pp —
// the default source for whole-module validation.
func SummariesOf(pp *core.ProgramPlan) func(*ir.Func) *core.Summary {
	return func(f *ir.Func) *core.Summary {
		if fp := pp.Funcs[f]; fp != nil {
			return fp.Summary
		}
		return nil
	}
}

type checker struct {
	pp        *core.ProgramPlan
	cfg       *mach.Config
	summaryOf func(*ir.Func) *core.Summary
	viols     []Violation
	// spanned is checkFunc's scratch set of one recorded range's calls.
	spanned map[*ir.Instr]bool
}

func (c *checker) report(fn, rule, format string, args ...any) {
	c.viols = append(c.viols, Violation{Func: fn, Rule: rule, Detail: fmt.Sprintf(format, args...)})
}

// markSpanned adds the calls recorded range id spans to c.spanned and
// returns them, for the caller to remove again.
func (c *checker) markSpanned(recorded []*liveness.Range, id int) []ir.CallSite {
	if id >= len(recorded) || recorded[id] == nil {
		return nil
	}
	if c.spanned == nil {
		c.spanned = make(map[*ir.Instr]bool)
	}
	for _, cs := range recorded[id].Calls {
		c.spanned[cs.Instr] = true
	}
	return recorded[id].Calls
}

// defaultClobber is the register set a call under the default linkage may
// destroy: all caller-saved registers plus the parameter registers.
func (c *checker) defaultClobber() mach.RegSet {
	return c.cfg.CallerSaved.Union(c.cfg.ParamSet())
}

// calleePlan returns the recorded plan of a direct call's callee, or nil
// for indirect calls and extern callees.
func (c *checker) calleePlan(call *ir.Instr) *core.FuncPlan {
	if call.Op != ir.OpCall || call.Callee == nil || call.Callee.Extern {
		return nil
	}
	return c.pp.Funcs[call.Callee]
}

// calleeSummary returns the summary a direct call's callee publishes, per
// the checker's summary source; nil for indirect/extern callees and open
// procedures.
func (c *checker) calleeSummary(call *ir.Instr) *core.Summary {
	if call.Op != ir.OpCall || call.Callee == nil || call.Callee.Extern {
		return nil
	}
	return c.summaryOf(call.Callee)
}

// derivedClobber recomputes, from the plans on record, the registers a call
// may destroy — the ground truth the oracle's answers are checked against.
func (c *checker) derivedClobber(call *ir.Instr) mach.RegSet {
	if s := c.calleeSummary(call); s != nil {
		return s.Used
	}
	return c.defaultClobber()
}

// derivedArgs recomputes where a call's outgoing arguments belong.
func (c *checker) derivedArgs(call *ir.Instr) []regalloc.ArgLoc {
	if s := c.calleeSummary(call); s != nil {
		return s.Args
	}
	return regalloc.DefaultArgLocs(c.cfg, len(call.Args))
}

func (c *checker) checkFunc(f *ir.Func, fp *core.FuncPlan) {
	// Summary shape: open procedures and non-IPRA plans publish nothing;
	// closed procedures under IPRA always publish (§3).
	switch {
	case fp.Summary != nil && (fp.Open || !c.pp.Mode.IPRA):
		c.report(f.Name, RuleSummaryShape, "open or intra-procedural plan publishes a summary")
	case fp.Summary == nil && c.pp.Mode.IPRA && !fp.Open:
		c.report(f.Name, RuleSummaryShape, "closed procedure publishes no summary")
	}

	// Registers destroyed by the call subtrees, re-derived from the plans.
	var childUsed mach.RegSet
	callSites := f.CallSites()
	for _, cs := range callSites {
		childUsed = childUsed.Union(c.derivedClobber(cs.Instr))
	}
	planRegs := fp.Plan.Regs()

	if notCalleeSaved := planRegs.Minus(c.cfg.CalleeSaved); !notCalleeSaved.Empty() {
		c.report(f.Name, RuleSaveClass, "save plan manages non-callee-saved registers %s", notCalleeSaved)
	}

	// Summary soundness (§2): what callers are told, plus what is saved
	// locally, must cover everything the call tree touches. For summary-less
	// procedures the same obligation narrows to the callee-saved registers:
	// callers assume the default linkage preserves them, so every
	// callee-saved register the tree touches must be in the local plan.
	treeUsed := fp.Alloc.UsedRegs.Union(childUsed)
	if fp.Summary != nil {
		if missing := treeUsed.Minus(fp.Summary.Used.Union(planRegs)); !missing.Empty() {
			c.report(f.Name, RuleSummarySoundness,
				"call tree uses %s but summary %s + local saves %s do not cover it",
				missing, fp.Summary.Used, planRegs)
		}
	} else {
		if missing := (treeUsed & c.cfg.CalleeSaved).Minus(planRegs); !missing.Empty() {
			c.report(f.Name, RuleSummarySoundness,
				"callee-saved %s used by the call tree but absent from the save plan %s",
				missing, planRegs)
		}
	}

	// Published parameter locations must be where the allocator actually
	// put each parameter (§4), and a register that delivers a parameter
	// must never be locally saved: the save would capture the argument at
	// entry while the summary tells ancestors the register is preserved.
	if fp.Summary != nil {
		if len(fp.Summary.Args) != len(f.Params) {
			c.report(f.Name, RuleSummaryArgs, "summary publishes %d parameter locations for %d parameters",
				len(fp.Summary.Args), len(f.Params))
		} else {
			for i, al := range fp.Summary.Args {
				l := fp.Alloc.LocOf(f.Params[i])
				// A parameter dead at entry (redefined on every path before
				// any use) is passed through its stack slot even when its
				// later range holds a register: delivering into the register
				// at entry would clobber it ahead of its mid-body save.
				entryLive := fp.Alloc.Ranges[f.Params[i].ID].EntryLive
				switch {
				case al.InReg && !entryLive:
					c.report(f.Name, RuleSummaryArgs,
						"parameter %d dead at entry but published in %s", i, al.Reg)
				case al.InReg && (l.Kind != regalloc.LocReg || l.Reg != al.Reg):
					c.report(f.Name, RuleSummaryArgs,
						"parameter %d published in %s but allocated to %s", i, al.Reg, locString(l))
				case !al.InReg && l.Kind == regalloc.LocReg && entryLive:
					c.report(f.Name, RuleSummaryArgs,
						"parameter %d published on the stack but allocated to %s", i, l.Reg)
				case !al.InReg && al.Slot != i:
					c.report(f.Name, RuleSummaryArgs,
						"parameter %d published in stack slot %d", i, al.Slot)
				}
				if al.InReg && planRegs.Has(al.Reg) {
					c.report(f.Name, RuleParamSaveClash,
						"parameter %d arrives in %s, which the local save plan also manages", i, al.Reg)
				}
			}
		}
	}

	// The oracle answers this function's callers consumed must agree with
	// the plans on record; a stale or corrupted published summary shows up
	// here at every call site that consumed it.
	for _, cs := range callSites {
		blame := f.Name
		if cp := c.calleePlan(cs.Instr); cp != nil {
			blame = cs.Instr.Callee.Name
		}
		if got, want := c.pp.Oracle.Clobbered(cs.Instr), c.derivedClobber(cs.Instr); got != want {
			c.report(blame, RuleOracleAgreement,
				"call in %s: oracle says clobbered=%s, plans say %s", f.Name, got, want)
		}
		got, want := c.pp.Oracle.ArgLocs(cs.Instr), c.derivedArgs(cs.Instr)
		if len(got) != len(want) {
			c.report(blame, RuleOracleAgreement,
				"call in %s: oracle publishes %d argument locations, plans say %d", f.Name, len(got), len(want))
		} else {
			for i := range got {
				if got[i] != want[i] {
					c.report(blame, RuleOracleAgreement,
						"call in %s: argument %d oracle=%s plans=%s", f.Name, i, argString(got[i]), argString(want[i]))
					break
				}
			}
		}
	}

	// Independent liveness: ranges and their spanned calls recomputed from
	// the (final, post-splitting) IR rather than trusted from the plan.
	live := liveness.Analyze(f)
	ranges := liveness.Ranges(f, live)

	// A live range in a register the callee may destroy must be saved
	// around the call. Code generation saves exactly the calls the
	// *recorded* ranges span, so every recomputed spanned call must appear
	// there too. One range's recorded calls at a time sit in c.spanned, a
	// set reused across ranges and filled only for a range that needs it.
	for id, rng := range ranges {
		if id >= len(fp.Alloc.Locs) {
			c.report(f.Name, RuleUnsavedLiveRange, "temp %d outside the recorded allocation", id)
			continue
		}
		l := fp.Alloc.Locs[id]
		if l.Kind != regalloc.LocReg {
			continue
		}
		var marked []ir.CallSite
		filled := false
		for _, cs := range rng.Calls {
			if !c.derivedClobber(cs.Instr).Has(l.Reg) {
				continue
			}
			if !filled {
				marked, filled = c.markSpanned(fp.Alloc.Ranges, id), true
			}
			if !c.spanned[cs.Instr] {
				c.report(f.Name, RuleUnsavedLiveRange,
					"%s (temp %d) is live in %s across a call that may destroy it, with no recorded save",
					rng.Temp, id, l.Reg)
			}
		}
		for _, cs := range marked {
			delete(c.spanned, cs.Instr)
		}
	}

	c.checkSavePlan(f, fp, ranges)
}

// checkSavePlan walks the CFG verifying the save/restore plan: balanced on
// every path (equations 3.3/3.4: a save reaches exactly one restore and a
// restore is reached only saved), consistent at joins, empty at every
// exit, and covering every block where a managed register is active.
func (c *checker) checkSavePlan(f *ir.Func, fp *core.FuncPlan, ranges []*liveness.Range) {
	managed := fp.Plan.Regs()
	if managed.Empty() {
		return
	}

	// Every per-block set is indexed by block ID.
	ids := f.NumBlockIDs()
	sets := make([]mach.RegSet, 4*ids)
	saveAt, restoreAt := sets[:ids:ids], sets[ids:2*ids:2*ids]
	active, in := sets[2*ids:3*ids:3*ids], sets[3*ids:]
	for r, blks := range fp.Plan.SaveAt {
		for _, b := range blks {
			saveAt[b.ID] = saveAt[b.ID].Add(r)
		}
	}
	for r, blks := range fp.Plan.RestoreAt {
		for _, b := range blks {
			restoreAt[b.ID] = restoreAt[b.ID].Add(r)
		}
	}

	// Blocks where each managed register is active: the live-range blocks
	// of every temp assigned to it, blocks whose calls may destroy it, and
	// blocks that marshal an outgoing argument into it — the same activity
	// notion the shrink-wrapper's APP attribute encodes (§5), re-derived.
	for id, rng := range ranges {
		if id >= len(fp.Alloc.Locs) {
			continue
		}
		l := fp.Alloc.Locs[id]
		if l.Kind != regalloc.LocReg || !managed.Has(l.Reg) {
			continue
		}
		for _, b := range rng.Blocks {
			active[b.ID] = active[b.ID].Add(l.Reg)
		}
	}
	for _, cs := range f.CallSites() {
		s := c.derivedClobber(cs.Instr) & managed
		for _, al := range c.derivedArgs(cs.Instr) {
			if al.InReg && managed.Has(al.Reg) {
				s = s.Add(al.Reg)
			}
		}
		active[cs.Block.ID] = active[cs.Block.ID].Union(s)
	}

	// Forward walk: the saved set at each block entry. The first reaching
	// state wins; any disagreeing join is itself a violation (mixed
	// saved/unsaved paths are exactly what range extension exists to
	// prevent, Fig. 2).
	seen := make([]bool, ids)
	entry := f.Entry()
	seen[entry.ID] = true
	work := []*ir.Block{entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		state := in[b.ID]
		if double := state & saveAt[b.ID]; !double.Empty() {
			c.report(f.Name, RuleSaveBalance, "block %s saves %s again without an intervening restore", b.Name, double)
		}
		state = state.Union(saveAt[b.ID])
		if uncovered := active[b.ID].Minus(state); !uncovered.Empty() {
			c.report(f.Name, RuleSaveCoverage, "%s active in block %s outside its save region", uncovered, b.Name)
		}
		if unsaved := restoreAt[b.ID].Minus(state); !unsaved.Empty() {
			c.report(f.Name, RuleSaveBalance, "block %s restores %s, which no path saved", b.Name, unsaved)
		}
		state = state.Minus(restoreAt[b.ID])
		if t := b.Terminator(); t != nil && t.Op == ir.OpRet && !state.Empty() {
			c.report(f.Name, RuleSaveBalance, "%s still saved at the exit of block %s", state, b.Name)
		}
		for _, s := range b.Succs {
			if !seen[s.ID] {
				seen[s.ID] = true
				in[s.ID] = state
				work = append(work, s)
			} else if in[s.ID] != state {
				c.report(f.Name, RuleSaveBalance,
					"block %s entered saved=%s on one path and saved=%s on another", s.Name, in[s.ID], state)
			}
		}
	}
}

func locString(l regalloc.Loc) string {
	switch l.Kind {
	case regalloc.LocReg:
		return l.Reg.String()
	case regalloc.LocMem:
		return "memory"
	default:
		return "nowhere"
	}
}

func argString(a regalloc.ArgLoc) string {
	if a.InReg {
		return a.Reg.String()
	}
	return fmt.Sprintf("stack%d", a.Slot)
}
