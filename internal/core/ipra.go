package core

import (
	"fmt"
	"strings"

	"chow88/internal/callgraph"
	"chow88/internal/explain"
	"chow88/internal/faultinject"
	"chow88/internal/ir"
	"chow88/internal/mach"
	"chow88/internal/obs"
	"chow88/internal/regalloc"
)

// Mode selects a compilation configuration, mirroring the paper's
// measurement matrix (-O2/-O3 × shrink-wrap × register-set restriction).
type Mode struct {
	Name string
	// IPRA enables one-pass inter-procedural allocation (-O3).
	IPRA bool
	// ShrinkWrap enables optimized save/restore placement (§5).
	ShrinkWrap bool
	// Optimize runs the -O2 scalar optimizer (constant folding, local CSE,
	// copy propagation, dead-code elimination) before allocation.
	Optimize bool
	// Config is the register configuration (full, caller7, callee7).
	Config *mach.Config
	// ForceOpen names procedures to treat as open, simulating separate
	// compilation.
	ForceOpen []string
	// DisableSplitting turns off the live-range splitting round (for
	// ablation; Chow's allocator splits by default).
	DisableSplitting bool
	// Sequential bypasses the front-end compile cache (internal/front): the
	// source is parsed, checked, lowered and optimized afresh instead of
	// cloned from a cached master. Output is byte-identical either way; the
	// switch exists for differential testing, debugging and cold-compile
	// measurement.
	Sequential bool
	// Validate runs the linkage-invariant validator (internal/check) after
	// planning and after code generation, contains per-function panics,
	// and gracefully degrades offending procedures (demotion to the open
	// convention and re-planning of the affected call-graph slice) instead
	// of miscompiling or crashing. The mode constructors enable it;
	// a zero Mode leaves it off.
	Validate bool
	// Strict turns every degradation into a hard error: a validation
	// failure or recovered panic fails the compile instead of demoting (for
	// CI, where a plan that needed repair is itself the bug).
	Strict bool
	// Inline runs the profile-guided procedure integrator (internal/inline)
	// on the module before planning; InlineBudget is its code-growth
	// allowance in percent of the pre-inlining instruction count (0 selects
	// the pass default). Summaries, interference and shrink-wrap placements
	// are then computed on the integrated program.
	Inline       bool
	InlineBudget int
}

// The paper's measurement modes. Base is the baseline of all comparisons:
// -O2 with shrink-wrap disabled.
func ModeBase() Mode {
	return Mode{Name: "O2", Optimize: true, Config: mach.Default(), Validate: true}
}

// ModeA is -O2 with shrink-wrap enabled (Table 1, column A).
func ModeA() Mode {
	return Mode{Name: "O2+sw", Optimize: true, ShrinkWrap: true, Config: mach.Default(), Validate: true}
}

// ModeB is -O3 with shrink-wrap disabled (Table 1, column B).
func ModeB() Mode {
	return Mode{Name: "O3", Optimize: true, IPRA: true, Config: mach.Default(), Validate: true}
}

// ModeC is -O3 with shrink-wrap enabled (Table 1, column C).
func ModeC() Mode {
	return Mode{Name: "O3+sw", Optimize: true, IPRA: true, ShrinkWrap: true, Config: mach.Default(), Validate: true}
}

// ModeD is mode C restricted to 7 caller-saved registers (Table 2, column D).
func ModeD() Mode {
	m := ModeC()
	m.Name = "O3+sw/caller7"
	m.Config = mach.CallerOnly7()
	return m
}

// ModeE is mode C restricted to 7 callee-saved registers (Table 2, column E).
func ModeE() Mode {
	m := ModeC()
	m.Name = "O3+sw/callee7"
	m.Config = mach.CalleeOnly7()
	return m
}

// ModeConv is mode C (the paper's best: -O3 + shrink-wrap) under an
// arbitrary register convention — the mode every swept or hand-specified
// convention compiles under. The configuration is not validated here;
// the pipeline validates the mode's Config before planning so an
// incoherent convention fails with its named reason instead of
// miscompiling.
func ModeConv(cfg *mach.Config) Mode {
	m := ModeC()
	m.Name = "O3+sw/" + cfg.Name
	m.Config = cfg
	return m
}

// FuncPlan is the complete allocation decision for one function.
type FuncPlan struct {
	F    *ir.Func
	Open bool
	// OpenReason explains the open classification (empty for closed).
	OpenReason string
	// Alloc is the coloring result.
	Alloc *regalloc.Result
	// Plan places the local saves/restores of callee-saved registers.
	Plan *SavePlan
	// Summary is what callers see; nil for open procedures and outside
	// IPRA mode.
	Summary *Summary
	// TreeUsed is the register usage of the whole call tree rooted here
	// (before subtracting locally saved registers).
	TreeUsed mach.RegSet
}

// ProgramPlan is the allocation of a whole module.
type ProgramPlan struct {
	Module *ir.Module
	Graph  *callgraph.Graph
	Mode   Mode
	Funcs  map[*ir.Func]*FuncPlan
	// Order is the depth-first bottom-up processing order used.
	Order []*ir.Func
	// Oracle answers call-site linkage queries for code generation.
	Oracle regalloc.Oracle
	// Failed records per-function planning panics recovered under
	// Mode.Validate, keyed by function; the pipeline demotes and re-plans
	// these.
	Failed map[*ir.Func]string
	// Inline is the procedure integrator's report when the pipeline ran it
	// before planning; nil otherwise. Attached here so the drivers see the
	// decisions without a second return path through Build.
	Inline *obs.InlineReport
}

// noteFailure records a recovered planning panic for f.
func (pp *ProgramPlan) noteFailure(f *ir.Func, cause any) {
	if pp.Failed == nil {
		pp.Failed = map[*ir.Func]string{}
	}
	pp.Failed[f] = fmt.Sprint(cause)
	obs.Current().Add(obs.CCheckPanics, 1)
}

// PlanModule performs register allocation for every function of m under the
// given mode: one pass over the call graph in bottom-up order, extending
// the intra-procedural priority-based coloring with callee register-usage
// summaries exactly as in §2–§4 and §6 of the paper. A function's closed
// callees precede it in PostOrder, so their summaries (its only
// cross-function input) are published before it is planned.
func PlanModule(m *ir.Module, mode Mode) *ProgramPlan {
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
	if j := explain.Current(); j != nil {
		// Journal buckets serialize in module order, not in the bottom-up
		// order they are recorded in.
		names := make([]string, 0, len(m.Funcs))
		for _, f := range m.Funcs {
			if !f.Extern {
				names = append(names, f.Name)
			}
		}
		j.SetModuleOrder(names)
	}
	var oracle regalloc.Oracle
	publish := func(*ir.Func, *Summary) {}
	if mode.IPRA {
		o := newIPRAOracle(mode.Config)
		oracle = o
		publish = o.publish
	} else {
		oracle = regalloc.DefaultOracle{Config: mode.Config}
	}
	pp.Oracle = oracle

	plan := func(f *ir.Func) (fp *FuncPlan) {
		if mode.Validate {
			// Contain per-function panics: the function is recorded as
			// failed and the pipeline demotes and re-plans it instead of
			// crashing the compile. Its summary is never published, so its
			// callers see the safe default linkage.
			defer func() {
				if r := recover(); r != nil {
					pp.noteFailure(f, r)
					fp = nil
				}
			}()
		}
		fp = planFunc(f, g, mode, oracle)
		if fp.Summary != nil {
			publish(f, fp.Summary)
		}
		return fp
	}

	sp := obs.Current().Span(obs.PhasePlan, "PlanModule")
	for _, f := range g.PostOrder {
		if f.Extern {
			continue
		}
		if fp := plan(f); fp != nil {
			pp.Funcs[f] = fp
		}
	}
	sp.End()
	return pp
}

// planFunc computes the complete allocation decision for one function. It
// mutates only f (live-range splitting rewrites) and consults other
// functions exclusively through the oracle, which belongs to the one
// planning walk that calls it; given identical oracle answers the decision
// is deterministic.
func planFunc(f *ir.Func, g *callgraph.Graph, mode Mode, oracle regalloc.Oracle) *FuncPlan {
	faultinject.PanicPlan(f.Name)
	cfg := mode.Config
	open := g.Open[f]
	interMode := mode.IPRA && !open
	j := explain.Current()
	if j != nil {
		cause := g.OpenCause[f]
		if cause == "" {
			cause = callgraph.CauseClosed
		}
		detail := g.OpenReason[f]
		if detail == "" {
			detail = "summary known before every caller is processed (§3)"
		}
		j.Record(f.Name, explain.Decision{
			Kind: explain.KindClassify, Cause: string(cause), Detail: detail,
		})
	}

	// Registers destroyed by the subtrees of this function's calls.
	var childUsed mach.RegSet
	for _, cs := range f.CallSites() {
		childUsed = childUsed.Union(oracle.Clobbered(cs.Instr))
	}

	opts := regalloc.Options{
		Config: cfg,
		Oracle: oracle,
	}
	if interMode {
		opts.Mode = regalloc.Inter
		// Prefer registers already used in the call tree, minimizing
		// the tree's register footprint (Fig. 1).
		opts.Prefer = childUsed
	} else {
		opts.Mode = regalloc.Intra
		opts.ParamIn = regalloc.DefaultArgLocs(cfg, len(f.Params))
		if mode.IPRA {
			// An open procedure must save the callee-saved registers
			// its closed children use without saving; having paid that,
			// it may use them freely itself (§3).
			opts.MustSave = childUsed & cfg.CalleeSaved
		}
	}
	alloc := regalloc.Allocate(f, opts)
	// Live-range splitting (one round): ranges that failed to color are
	// broken into block-local pieces connected through home slots and
	// the function re-colored; the rewrite is kept only if the predicted
	// memory traffic improves.
	if !mode.DisableSplitting && alloc.Spilled > 0 {
		alloc = trySplit(f, alloc, opts, oracle)
	}

	treeUsed := alloc.UsedRegs.Union(childUsed)
	calleeSavedInTree := treeUsed & cfg.CalleeSaved

	fp := &FuncPlan{
		F:          f,
		Open:       open,
		OpenReason: g.OpenReason[f],
		Alloc:      alloc,
		TreeUsed:   treeUsed,
	}

	var localSave mach.RegSet
	if interMode {
		if mode.ShrinkWrap && !calleeSavedInTree.Empty() {
			// §6: keep the save local (shrink-wrapped) when the usage
			// range does not span the whole procedure; propagate to the
			// ancestors when the save would sit at the entry anyway.
			app := regAPP(f, alloc, oracle, calleeSavedInTree)
			p := ShrinkWrap(f, app, calleeSavedInTree)
			calleeSavedInTree.ForEach(func(r mach.Reg) {
				if p.SaveAtEntryOnly(f, r) {
					if j != nil {
						j.Record(f.Name, explain.Decision{
							Kind: explain.KindWrap, Reg: r.String(), Cause: "propagate",
							Cost: float64(f.Entry().Freq()),
							Detail: fmt.Sprintf("§6: only save site is entry %s (cost %.4g per activation); save/restore deferred to ancestors",
								f.Entry().Name, f.Entry().Freq()),
						})
					}
					p.Drop(r)
				} else {
					if j != nil {
						var cost float64
						for _, b := range p.SaveAt[r] {
							cost += b.Freq()
						}
						for _, b := range p.RestoreAt[r] {
							cost += b.Freq()
						}
						j.Record(f.Name, explain.Decision{
							Kind: explain.KindWrap, Reg: r.String(), Cause: "wrap", Cost: cost,
							Detail: fmt.Sprintf("§6: %d save + %d restore site(s) inside the body (cost %.4g) vs entry/exit placement (cost %.4g); kept local, dropped from summary",
								len(p.SaveAt[r]), len(p.RestoreAt[r]), cost, 2*f.Entry().Freq()),
						})
					}
					localSave = localSave.Add(r)
				}
			})
			fp.Plan = p
		} else {
			// Without shrink-wrapping every save/restore propagates up
			// the call graph (§3).
			fp.Plan = NewSavePlan()
		}
		fp.Summary = &Summary{
			Used: treeUsed.Minus(localSave),
			Args: paramLocs(f, alloc),
		}
	} else {
		// Default linkage: this procedure saves every callee-saved
		// register its own body uses, plus (under IPRA) those its
		// closed children use without saving.
		managed := calleeSavedInTree
		if mode.ShrinkWrap && !managed.Empty() {
			app := regAPP(f, alloc, oracle, managed)
			fp.Plan = ShrinkWrap(f, app, managed)
		} else {
			fp.Plan = EntryExitPlan(f, managed)
		}
	}
	if faultinject.Armed() {
		injectFaults(f, fp, cfg)
	}
	if s := obs.Current(); s != nil {
		recordPlanObs(s, fp, cfg)
	}
	if j != nil {
		recordPlanExplain(j, fp, oracle, childUsed, localSave)
	}
	return fp
}

// recordPlanExplain journals the linkage this plan publishes: the negotiated
// linkage at each call site, the register-usage summary with the bits'
// provenance (own body vs callee trees vs locally-saved subtractions), and
// each parameter's negotiated location. Save/restore placements journal at
// codegen time, from the final plan, so demotion rounds never leave stale
// placement records.
func recordPlanExplain(j *explain.Journal, fp *FuncPlan, oracle regalloc.Oracle, childUsed, localSave mach.RegSet) {
	f := fp.F
	ipo, _ := oracle.(*ipraOracle)
	for _, cs := range f.CallSites() {
		callee := "(indirect)"
		if cs.Instr.Op == ir.OpCall {
			callee = cs.Instr.Callee.Name
		}
		cause := "default"
		if ipo != nil && ipo.summary(cs.Instr) != nil {
			cause = "summary"
		}
		j.Record(f.Name, explain.Decision{
			Kind: explain.KindCallSite, Callee: callee, Block: cs.Block.Name,
			Cause: cause, Freq: cs.Block.Freq(),
			Detail: fmt.Sprintf("clobbers %s; args %s", oracle.Clobbered(cs.Instr), argLocString(oracle.ArgLocs(cs.Instr))),
		})
	}
	if fp.Summary != nil {
		j.Record(f.Name, explain.Decision{
			Kind: explain.KindSummary, Cause: "published",
			Detail: fmt.Sprintf("%s (own body %s + callee trees %s - kept local %s)",
				fp.Summary, fp.Alloc.UsedRegs, childUsed, localSave),
		})
		for i, a := range fp.Summary.Args {
			d := explain.Decision{Kind: explain.KindParam}
			if a.InReg {
				d.Reg = a.Reg.String()
				d.Cause = "register"
				d.Detail = fmt.Sprintf("param %d settled in %s; callers deliver it there (§4)", i, a.Reg)
			} else {
				d.Cause = "memory"
				d.Detail = fmt.Sprintf("param %d never colored; callers deliver it through stack slot %d", i, a.Slot)
			}
			j.Record(f.Name, d)
		}
	}
}

// argLocString renders a call's negotiated argument locations compactly.
func argLocString(locs []regalloc.ArgLoc) string {
	if len(locs) == 0 {
		return "[]"
	}
	parts := make([]string, len(locs))
	for i, a := range locs {
		if a.InReg {
			parts[i] = a.Reg.String()
		} else {
			parts[i] = fmt.Sprintf("stack%d", a.Slot)
		}
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// injectFaults applies any armed chaos injection to the freshly built plan,
// before the summary is published: a corrupted summary bit or flipped
// parameter register propagates to every caller that consumes it, and a
// dropped save site leaves a path that destroys a callee-saved register —
// exactly the linkage corruption the validator exists to catch.
func injectFaults(f *ir.Func, fp *FuncPlan, cfg *mach.Config) {
	fired := 0
	if s := fp.Summary; s != nil {
		if used := faultinject.CorruptSummary(f.Name, s.Used); used != s.Used {
			s.Used = used
			fired++
		}
		for i := range s.Args {
			if !s.Args[i].InReg {
				continue
			}
			if wrong, ok := faultinject.FlipParamReg(f.Name, s.Args[i].Reg, cfg.Allocatable()); ok {
				s.Args[i].Reg = wrong
				fired++
			}
			break
		}
	}
	if fp.Plan != nil {
		var victim mach.Reg
		found := false
		fp.Plan.Regs().ForEach(func(r mach.Reg) {
			if !found && len(fp.Plan.SaveAt[r]) > 0 {
				victim, found = r, true
			}
		})
		if found && faultinject.DropSave(f.Name, victim) {
			fp.Plan.SaveAt[victim] = fp.Plan.SaveAt[victim][1:]
			fired++
		}
	}
	if fired > 0 {
		obs.Current().Add(obs.CCheckFaults, int64(fired))
	}
}

// recordPlanObs publishes one function's allocation decision to the
// metrics registry: open/closed outcome, spills, callee-saved registers
// the summary frees for callers, and where the save/restore sites landed
// (shrink-wrapped into the body vs the default entry/exit placement).
func recordPlanObs(s *obs.Session, fp *FuncPlan, cfg *mach.Config) {
	s.Add(obs.CPlanFuncs, 1)
	if fp.Open {
		s.Add(obs.CProcsOpen, 1)
	} else {
		s.Add(obs.CProcsClosed, 1)
	}
	s.Add(obs.CSpilledRanges, int64(fp.Alloc.Spilled))
	if fp.Summary != nil {
		// Callee-saved registers the summary reports unused: callers keep
		// values in them across calls with no save/restore (§2).
		s.Add(obs.CCalleeSavedFreed, int64(cfg.CalleeSaved.Minus(fp.Summary.Used).Count()))
	}
	if fp.Plan == nil {
		return
	}
	var saves, restores, shrunk, entryExit int64
	for _, sites := range fp.Plan.SaveAt {
		saves += int64(len(sites))
	}
	for _, sites := range fp.Plan.RestoreAt {
		restores += int64(len(sites))
	}
	fp.Plan.Regs().ForEach(func(r mach.Reg) {
		if fp.Plan.SaveAtEntryOnly(fp.F, r) {
			entryExit++
		} else {
			shrunk++
		}
	})
	s.Add(obs.CSaveSites, saves)
	s.Add(obs.CRestoreSites, restores)
	s.Add(obs.CShrinkWrapRegs, shrunk)
	s.Add(obs.CEntryExitRegs, entryExit)
}

// paramLocs derives the published parameter locations of a closed procedure
// from its allocation: wherever each parameter temp settled is where callers
// must deliver the argument (§4). Parameters in memory (or never referenced)
// are passed through their incoming stack slots — as are parameters dead at
// entry (redefined on every path before any use): their register's activity
// range starts at the redefinition, so delivering the incoming value into it
// at entry would clobber the register ahead of its (possibly shrink-wrapped,
// mid-body) save. The caller's stack store costs one scalar write and
// touches no register; the callee never reads the slot.
func paramLocs(f *ir.Func, alloc *regalloc.Result) []regalloc.ArgLoc {
	out := make([]regalloc.ArgLoc, len(f.Params))
	for i, p := range f.Params {
		l := alloc.Locs[p.ID]
		if l.Kind == regalloc.LocReg && alloc.Ranges[p.ID].EntryLive {
			out[i] = regalloc.ArgLoc{InReg: true, Reg: l.Reg}
		} else {
			out[i] = regalloc.ArgLoc{Slot: i}
		}
	}
	return out
}
