package core

import (
	"fmt"
	"strings"
	"testing"

	"chow88/internal/ir"
	"chow88/internal/lower"
	"chow88/internal/mach"
	"chow88/internal/opt"
	"chow88/internal/parser"
	"chow88/internal/progen"
	"chow88/internal/regalloc"
	"chow88/internal/sema"
)

func moduleFor(t *testing.T, src string) *ir.Module {
	t.Helper()
	tree, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sema.Check(tree)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	mod, err := lower.Build(info)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	opt.Run(mod)
	return mod
}

// checkPlan verifies, by walking every (block, save-state) configuration of
// the CFG, the fundamental shrink-wrap invariants for each managed register:
//   - on any path, the register is saved before the first block where it is
//     active (APP), and never saved twice without an intervening restore;
//   - a restore only happens after a save;
//   - at every exit, the register has been restored iff it was saved.
func checkPlan(t *testing.T, f *ir.Func, plan *SavePlan, app []mach.RegSet, managed mach.RegSet) {
	t.Helper()
	saveAt := map[*ir.Block]mach.RegSet{}
	restoreAt := map[*ir.Block]mach.RegSet{}
	for r, blks := range plan.SaveAt {
		for _, b := range blks {
			saveAt[b] = saveAt[b].Add(r)
		}
	}
	for r, blks := range plan.RestoreAt {
		for _, b := range blks {
			restoreAt[b] = restoreAt[b].Add(r)
		}
	}
	managed.ForEach(func(r mach.Reg) {
		type state struct {
			b     *ir.Block
			saved bool
		}
		seen := map[state]bool{}
		var walk func(b *ir.Block, saved bool)
		walk = func(b *ir.Block, saved bool) {
			st := state{b, saved}
			if seen[st] {
				return
			}
			seen[st] = true
			if saveAt[b].Has(r) {
				if saved {
					t.Errorf("%s: %s saved twice on a path through %s", f.Name, r, b.Name)
					return
				}
				saved = true
			}
			if app[b.ID].Has(r) && !saved {
				t.Errorf("%s: %s active in %s without a save on some path", f.Name, r, b.Name)
				return
			}
			atExit := saved
			if restoreAt[b].Has(r) {
				if !saved {
					t.Errorf("%s: %s restored in %s without a save", f.Name, r, b.Name)
					return
				}
				atExit = false
			}
			term := b.Terminator()
			if term != nil && term.Op == ir.OpRet {
				if atExit {
					t.Errorf("%s: %s still saved (unrestored) at exit %s", f.Name, r, b.Name)
				}
				return
			}
			for _, s := range b.Succs {
				walk(s, atExit)
			}
		}
		walk(f.Entry(), false)
	})
}

// planAndCheck runs the shrink-wrap placement for every function of the
// program under mode C and validates the invariants.
func planAndCheck(t *testing.T, src string) {
	t.Helper()
	mod := moduleFor(t, src)
	pp := PlanModule(mod, ModeC())
	for _, f := range mod.Funcs {
		if f.Extern {
			continue
		}
		fp := pp.Funcs[f]
		managed := fp.Plan.Regs()
		if managed.Empty() {
			continue
		}
		app := regAPP(f, fp.Alloc, pp.Oracle, managed)
		// The plan may manage a subset (propagated registers were dropped);
		// check only what it manages.
		checkPlan(t, f, fp.Plan, app, managed)
	}
}

func TestShrinkWrapInvariantsOnPrograms(t *testing.T) {
	srcs := []string{
		`
var g int;
func leaf(v int) int { return v + g; }
func f(c1 int, c2 int) int {
    if (c1 > 0) {
        var x int;
        var a int;
        x = leaf(1);
        a = leaf(x);
        g = g + x + a;
    }
    g = g + 2;
    if (c2 > 0) {
        var w int;
        var b int;
        w = leaf(3);
        b = leaf(w);
        g = g + w + b;
    }
    return g;
}
func main() { print(f(1, 0)); print(f(0, 1)); }`,
		`
var g int;
func leaf(v int) int { return v * 2; }
func loopy(n int) int {
    var s int;
    var i int;
    s = 0;
    for (i = 0; i < n; i = i + 1) {
        s = s + leaf(i);
    }
    return s;
}
func main() { print(loopy(5)); }`,
		`
func self(n int) int {
    if (n <= 0) { return 1; }
    var a int;
    var b int;
    a = self(n - 1);
    b = self(n - 2);
    return a + b;
}
func main() { print(self(6)); }`,
	}
	for i, src := range srcs {
		t.Run(fmt.Sprintf("case%d", i), func(t *testing.T) { planAndCheck(t, src) })
	}
}

// TestShrinkWrapInvariantsOnRandomPrograms property-checks the placement on
// generated programs under every mode that shrink-wraps.
func TestShrinkWrapInvariantsOnRandomPrograms(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 20
	}
	for seed := 0; seed < n; seed++ {
		src := progen.Generate(int64(seed), progen.DefaultConfig())
		planAndCheck(t, src)
	}
}

// TestShrinkWrapLoopRule: a register used inside a loop must not have its
// save/restore inside that loop.
func TestShrinkWrapLoopRule(t *testing.T) {
	mod := moduleFor(t, `
var g int;
func leaf(v int) int { return v + 1; }
func f(n int) int {
    var i int;
    for (i = 0; i < n; i = i + 1) {
        var x int;
        var y int;
        x = leaf(i);
        y = leaf(x);
        g = g + x + y;
    }
    return g;
}
func main() { print(f(10)); }`)
	pp := PlanModule(mod, ModeA())
	f := mod.Lookup("f")
	fp := pp.Funcs[f]
	if fp.Plan.Regs().Empty() {
		t.Skip("no callee-saved register chosen; nothing to verify")
	}
	for r, blks := range fp.Plan.SaveAt {
		for _, b := range blks {
			if b.LoopDepth > 0 {
				t.Errorf("save of %s placed inside a loop (block %s, depth %d)",
					r, b.Name, b.LoopDepth)
			}
		}
	}
	for r, blks := range fp.Plan.RestoreAt {
		for _, b := range blks {
			if b.LoopDepth > 0 {
				t.Errorf("restore of %s placed inside a loop (block %s, depth %d)",
					r, b.Name, b.LoopDepth)
			}
		}
	}
}

// TestEntryExitPlan covers the unoptimized placement helper.
func TestEntryExitPlan(t *testing.T) {
	mod := moduleFor(t, `
func f(n int) int {
    if (n > 0) { return 1; }
    return 2;
}
func main() { print(f(1)); }`)
	f := mod.Lookup("f")
	regs := mach.SetOf(mach.S0, mach.S3)
	plan := EntryExitPlan(f, regs)
	if !plan.Regs().Has(mach.S0) || !plan.Regs().Has(mach.S3) {
		t.Fatalf("plan regs = %s", plan.Regs())
	}
	if len(plan.SaveAt[mach.S0]) != 1 || plan.SaveAt[mach.S0][0] != f.Entry() {
		t.Errorf("save not at entry: %v", plan.SaveAt[mach.S0])
	}
	if len(plan.RestoreAt[mach.S0]) != len(f.ExitBlocks()) {
		t.Errorf("restores = %v, want one per exit", plan.RestoreAt[mach.S0])
	}
	if !plan.SaveAtEntryOnly(f, mach.S0) {
		t.Errorf("SaveAtEntryOnly should hold")
	}
	plan.Drop(mach.S0)
	if plan.Regs().Has(mach.S0) {
		t.Errorf("drop failed")
	}
}

// TestSectionSixPropagation: in a closed procedure whose register usage
// spans the whole body, the save propagates upward (summary marks the
// register used); usage confined to a branch stays local (summary clear).
func TestSectionSixPropagation(t *testing.T) {
	mod := moduleFor(t, `
var g int;
// leaf is self-recursive, hence open: calls to it clobber every
// caller-saved register, so values live across them need callee-saved
// registers — making the §6 decision observable.
func leaf(v int) int {
    if (v <= 0) { return g; }
    return leaf(v - 1) + 1;
}

// whole: x spans the entire procedure including both calls.
func whole(p int) int {
    var x int;
    var m int;
    x = p * 3;
    m = leaf(x);
    m = m + leaf(m);
    return m + x;
}

// partial: y is active only in the conditional arm.
func partial(p int) int {
    if (p > 0) {
        var y int;
        var z int;
        y = leaf(p);
        z = leaf(y);
        g = g + y + z;
    }
    return g;
}

func main() {
    print(whole(2));
    print(partial(1));
    print(partial(-1));
}`)
	pp := PlanModule(mod, ModeC())
	cfg := ModeC().Config

	whole := pp.Funcs[mod.Lookup("whole")]
	if whole.Open {
		t.Fatal("whole should be closed")
	}
	wholeCalleeSaved := whole.Alloc.UsedRegs & cfg.CalleeSaved
	if wholeCalleeSaved.Empty() {
		t.Fatalf("whole should use a callee-saved register; used %s", whole.Alloc.UsedRegs)
	}
	wholeCalleeSaved.ForEach(func(r mach.Reg) {
		if !whole.Summary.Used.Has(r) {
			t.Errorf("whole: %s spans the body; §6 should propagate it (summary %s)", r, whole.Summary)
		}
		if len(whole.Plan.SaveAt[r]) != 0 {
			t.Errorf("whole: %s should not be saved locally", r)
		}
	})

	partial := pp.Funcs[mod.Lookup("partial")]
	partialCalleeSaved := partial.Alloc.UsedRegs & cfg.CalleeSaved
	if partialCalleeSaved.Empty() {
		t.Fatalf("partial should use a callee-saved register; used %s", partial.Alloc.UsedRegs)
	}
	partialCalleeSaved.ForEach(func(r mach.Reg) {
		if partial.Summary.Used.Has(r) {
			t.Errorf("partial: %s is branch-confined; §6 should wrap it locally (summary %s)", r, partial.Summary)
		}
		if len(partial.Plan.SaveAt[r]) == 0 {
			t.Errorf("partial: %s needs a local save", r)
		}
		for _, b := range partial.Plan.SaveAt[r] {
			if b == partial.F.Entry() {
				t.Errorf("partial: %s saved at entry; should be inside the arm", r)
			}
		}
	})
}

// TestOpenProceduresSaveChildUsage: an open procedure must save the
// callee-saved registers its closed children use without saving (§3).
func TestOpenProceduresSaveChildUsage(t *testing.T) {
	mod := moduleFor(t, `
var g int;
// leaf is open (self-recursive) so its callers need callee-saved registers
// for values live across the calls.
func leaf(v int) int {
    if (v <= 0) { return g; }
    return leaf(v - 1) + 1;
}

// child is closed and keeps a value in a callee-saved register across the
// whole body, so the save propagates upward.
func child(p int) int {
    var x int;
    var m int;
    x = p + 1;
    m = leaf(x);
    m = m + leaf(m + x);
    return m + x;
}

func driver(n int) int {
    if (n <= 0) { return 0; }
    return child(n) + driver(n - 1);
}

func main() { print(driver(3)); }`)
	pp := PlanModule(mod, ModeC())
	cfg := ModeC().Config

	child := pp.Funcs[mod.Lookup("child")]
	if child.Open {
		t.Fatal("child should be closed")
	}
	propagated := child.Summary.Used & cfg.CalleeSaved
	if propagated.Empty() {
		t.Fatalf("child should propagate a callee-saved register; summary %s", child.Summary)
	}

	driver := pp.Funcs[mod.Lookup("driver")]
	if !driver.Open {
		t.Fatal("driver is recursive; must be open")
	}
	propagated.ForEach(func(r mach.Reg) {
		if len(driver.Plan.SaveAt[r]) == 0 {
			t.Errorf("driver must save %s for its closed child (plan regs %s)", r, driver.Plan.Regs())
		}
	})
}

// TestSummaryMergesChildUsage: a closed parent's summary covers its whole
// call tree.
func TestSummaryMergesChildUsage(t *testing.T) {
	mod := moduleFor(t, `
func bottom(x int) int { return x * 3 + 1; }
func mid(x int) int { return bottom(x) + bottom(x + 1); }
func top(x int) int { return mid(x) * 2; }
func main() { print(top(5)); }`)
	pp := PlanModule(mod, ModeC())
	bottom := pp.Funcs[mod.Lookup("bottom")]
	mid := pp.Funcs[mod.Lookup("mid")]
	top := pp.Funcs[mod.Lookup("top")]
	for _, fp := range []*FuncPlan{bottom, mid, top} {
		if fp.Open {
			t.Fatalf("%s should be closed", fp.F.Name)
		}
	}
	if bottom.Summary.Used&^mid.Summary.Used != 0 {
		t.Errorf("mid's summary %s must include bottom's %s", mid.Summary.Used, bottom.Summary.Used)
	}
	if mid.Summary.Used&^top.Summary.Used != 0 {
		t.Errorf("top's summary %s must include mid's %s", top.Summary.Used, mid.Summary.Used)
	}
}

// TestParameterNegotiation: a closed callee publishes where it wants its
// parameters; there is no fixed convention under IPRA.
func TestParameterNegotiation(t *testing.T) {
	mod := moduleFor(t, `
func addmul(a int, b int, c int) int { return a * b + c; }
func main() { print(addmul(2, 3, 4)); }`)
	pp := PlanModule(mod, ModeC())
	fp := pp.Funcs[mod.Lookup("addmul")]
	if fp.Open {
		t.Fatal("addmul should be closed")
	}
	if len(fp.Summary.Args) != 3 {
		t.Fatalf("args = %v", fp.Summary.Args)
	}
	seen := map[string]bool{}
	for i, a := range fp.Summary.Args {
		if !a.InReg {
			t.Errorf("arg %d spilled unnecessarily", i)
			continue
		}
		key := a.Reg.String()
		if seen[key] {
			t.Errorf("two parameters share %s", key)
		}
		seen[key] = true
	}
}

// TestModeNames sanity-checks the measurement-mode constructors.
func TestModeNames(t *testing.T) {
	for _, m := range []Mode{ModeBase(), ModeA(), ModeB(), ModeC(), ModeD(), ModeE()} {
		if m.Name == "" || m.Config == nil {
			t.Errorf("bad mode %+v", m)
		}
	}
	if ModeBase().IPRA || ModeBase().ShrinkWrap {
		t.Error("base must be plain -O2")
	}
	if !ModeC().IPRA || !ModeC().ShrinkWrap {
		t.Error("C must enable both techniques")
	}
	if ModeD().Config.CalleeSaved.Count() != 0 || ModeD().Config.CallerSaved.Count() != 7 {
		t.Error("D must be 7 caller-saved only")
	}
	if ModeE().Config.CallerSaved.Count() != 0 || ModeE().Config.CalleeSaved.Count() != 7 {
		t.Error("E must be 7 callee-saved only")
	}
}

// TestSummaryString covers the diagnostic rendering.
func TestSummaryString(t *testing.T) {
	s := &Summary{
		Used: mach.SetOf(mach.V1, mach.S0),
		Args: []regalloc.ArgLoc{
			{InReg: true, Reg: mach.V1},
			{Slot: 1},
		},
	}
	out := s.String()
	if !strings.Contains(out, "$v1") || !strings.Contains(out, "stack1") {
		t.Errorf("summary string = %s", out)
	}
}
