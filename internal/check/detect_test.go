package check

import (
	"testing"

	"chow88/internal/benchprog"
	"chow88/internal/core"
	"chow88/internal/front"
	"chow88/internal/mach"
	"chow88/internal/regalloc"
)

// planFor compiles one corpus program under ModeC and returns its plan.
func planFor(t *testing.T) *core.ProgramPlan {
	t.Helper()
	b := benchprog.Lookup("stanford")
	if b == nil {
		t.Fatal("stanford benchmark missing")
	}
	mode := core.ModeC()
	mod, err := front.Module(b.Source, mode.Optimize, true)
	if err != nil {
		t.Fatalf("front: %v", err)
	}
	return core.PlanModule(mod, mode)
}

// victim returns a closed procedure whose summary reports register usage.
func victim(t *testing.T, pp *core.ProgramPlan) *core.FuncPlan {
	t.Helper()
	for _, f := range pp.Module.Funcs {
		fp := pp.Funcs[f]
		if fp != nil && fp.Summary != nil && !fp.Summary.Used.Empty() {
			return fp
		}
	}
	t.Fatal("no closed procedure with a non-empty summary")
	return nil
}

func hasRule(viols []Violation, rule string) bool {
	for _, v := range viols {
		if v.Rule == rule {
			return true
		}
	}
	return false
}

// The validator must not pass vacuously: each corruption class a fault
// injection can introduce must be detected when applied by hand.

func TestDetectsCorruptSummary(t *testing.T) {
	pp := planFor(t)
	fp := victim(t, pp)
	var lowest mach.Reg
	first := true
	fp.Summary.Used.ForEach(func(r mach.Reg) {
		if first {
			lowest, first = r, false
		}
	})
	fp.Summary.Used = fp.Summary.Used.Remove(lowest)
	viols := Plan(pp)
	if len(viols) == 0 {
		t.Fatalf("cleared %s from %s's summary; validator found nothing", lowest, fp.F.Name)
	}
	if !hasRule(viols, RuleSummarySoundness) && !hasRule(viols, RuleOracleAgreement) {
		t.Errorf("expected %s or %s, got %v", RuleSummarySoundness, RuleOracleAgreement, viols)
	}
}

func TestDetectsFlippedParamReg(t *testing.T) {
	pp := planFor(t)
	var fp *core.FuncPlan
	idx := -1
	for _, f := range pp.Module.Funcs {
		cand := pp.Funcs[f]
		if cand == nil || cand.Summary == nil {
			continue
		}
		for i, al := range cand.Summary.Args {
			if al.InReg {
				fp, idx = cand, i
				break
			}
		}
		if fp != nil {
			break
		}
	}
	if fp == nil {
		t.Fatal("no closed procedure with a register-passed parameter")
	}
	genuine := fp.Summary.Args[idx].Reg
	wrong := genuine
	pp.Mode.Config.Allocatable().Remove(genuine).ForEach(func(r mach.Reg) {
		if wrong == genuine {
			wrong = r
		}
	})
	fp.Summary.Args[idx].Reg = wrong
	viols := Plan(pp)
	if !hasRule(viols, RuleSummaryArgs) {
		t.Errorf("flipped parameter %d of %s from %s to %s; expected %s, got %v",
			idx, fp.F.Name, genuine, wrong, RuleSummaryArgs, viols)
	}
}

func TestDetectsDroppedSaveSite(t *testing.T) {
	pp := planFor(t)
	var fp *core.FuncPlan
	for _, f := range pp.Module.Funcs {
		cand := pp.Funcs[f]
		if cand != nil && !cand.Plan.Regs().Empty() {
			fp = cand
			break
		}
	}
	if fp == nil {
		t.Fatal("no procedure with a save plan")
	}
	var victim mach.Reg
	first := true
	fp.Plan.Regs().ForEach(func(r mach.Reg) {
		if first {
			victim, first = r, false
		}
	})
	fp.Plan.SaveAt[victim] = fp.Plan.SaveAt[victim][1:]
	viols := Plan(pp)
	if len(viols) == 0 {
		t.Fatalf("dropped %s's first save site in %s; validator found nothing", victim, fp.F.Name)
	}
	if !hasRule(viols, RuleSaveCoverage) && !hasRule(viols, RuleSaveBalance) &&
		!hasRule(viols, RuleSummarySoundness) {
		t.Errorf("expected a save-plan violation, got %v", viols)
	}
}

func TestDetectsMissingPlan(t *testing.T) {
	pp := planFor(t)
	fp := victim(t, pp)
	delete(pp.Funcs, fp.F)
	if !hasRule(Plan(pp), RuleMissingPlan) {
		t.Errorf("deleted %s's plan; expected %s", fp.F.Name, RuleMissingPlan)
	}
}

func TestDetectsUnsavedLiveRange(t *testing.T) {
	pp := planFor(t)
	c := &checker{pp: pp, cfg: pp.Mode.Config, summaryOf: SummariesOf(pp)}
	for _, f := range pp.Module.Funcs {
		fp := pp.Funcs[f]
		if fp == nil {
			continue
		}
		for id, rng := range fp.Alloc.Ranges {
			if rng == nil || id >= len(fp.Alloc.Locs) || fp.Alloc.Locs[id].Kind != regalloc.LocReg {
				continue
			}
			reg := fp.Alloc.Locs[id].Reg
			for i, cs := range rng.Calls {
				if !c.derivedClobber(cs.Instr).Has(reg) {
					continue
				}
				// Forget that the range spans this call: code generation
				// would no longer save reg around it.
				rng.Calls = append(rng.Calls[:i:i], rng.Calls[i+1:]...)
				viols := Plan(pp)
				if !hasRule(viols, RuleUnsavedLiveRange) {
					t.Fatalf("dropped a %s-clobbering call from %s's temp %d; expected %s, got %v",
						reg, f.Name, id, RuleUnsavedLiveRange, viols)
				}
				return
			}
		}
	}
	t.Fatal("no live range in a register spans a call that clobbers it")
}
