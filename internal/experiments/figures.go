package experiments

import (
	"context"
	"fmt"
	"strings"

	"chow88/internal/core"
	"chow88/internal/mach"
	"chow88/internal/pipeline"
	"chow88/internal/regalloc"
	"chow88/internal/sim"
)

// fig1Src realizes Figure 1: procedure p's variable a, q's variable b and
// r's variable c have usage ranges that never span the calls connecting
// them, so one register can serve all three simultaneously active
// procedures under inter-procedural allocation.
const fig1Src = `
var sink int;

func r(z int) int {
    var c int;
    c = z * 3 + z;          // z dies here; c can reuse its register
    sink = sink + c;
    return c + 1;
}

func q(y int) int {
    var b int;
    b = y * 2 + 7;          // y dies here
    sink = sink + b * b;    // b dead before the call to r
    return r(5) + 5;
}

func p(x int) int {
    var a int;
    a = x * x + x;          // x dies here
    sink = sink + a * a;    // a dead before the call to q
    return q(3) + 9;
}

func main() {
    print(p(4));
    print(sink);
}
`

// Fig1 reports where a, b and c live under inter-procedural allocation and
// the register footprint of the whole three-deep call tree. The optimizer
// is left off so the named variables survive into allocation; the build is
// otherwise mode C's, validator included. The Fig. 1 point: because no
// usage range spans a call, the simultaneously active procedures share a
// handful of registers with no saving and restoring.
func Fig1() (string, error) {
	mode := core.ModeC()
	mode.Optimize = false
	c, err := pipeline.Compile(context.Background(), fig1Src, mode, "")
	if err != nil {
		return "", err
	}
	plan, mod := c.Plan, c.Plan.Module
	var b strings.Builder
	b.WriteString("Figure 1: register reuse in simultaneously active procedures\n\n")
	vars := map[string]string{"p": "a", "q": "b", "r": "c"}
	var treeUsed mach.RegSet
	allInRegs := true
	for _, name := range []string{"p", "q", "r"} {
		f := mod.Lookup(name)
		fp := plan.Funcs[f]
		for _, t := range f.Temps() {
			if t.IsVar && strings.HasPrefix(t.Name, vars[name]+".") {
				loc := fp.Alloc.Locs[t.ID]
				if loc.Kind == regalloc.LocReg {
					fmt.Fprintf(&b, "  %s: variable %s lives in %s\n", name, vars[name], loc.Reg)
				} else {
					allInRegs = false
					fmt.Fprintf(&b, "  %s: variable %s in memory\n", name, vars[name])
				}
			}
		}
		treeUsed = treeUsed.Union(fp.Alloc.UsedRegs)
	}
	fmt.Fprintf(&b, "\n  whole call tree register footprint: %s (%d registers)\n",
		treeUsed, treeUsed.Count())

	// Execute and count register save/restore traffic: the point of Fig. 1
	// is that sharing happens without any.
	res, err := sim.Run(c.Code, sim.Options{})
	if err != nil {
		return "", err
	}
	saveRestore := res.Stats.SaveRestoreLS()
	// The only unavoidable linkage traffic is the return-address save of
	// each non-leaf invocation: main, p and q run once each = 6 memory ops.
	const raLinkage = 6
	fmt.Fprintf(&b, "  register save/restore memory operations in the run: %d\n", saveRestore)
	fmt.Fprintf(&b, "  (of which return-address linkage: %d)\n", raLinkage)
	if allInRegs && treeUsed.Count() <= 3 && saveRestore <= raLinkage {
		b.WriteString("\n  three simultaneously active procedures, all variables in\n")
		b.WriteString("  registers, zero register saves/restores beyond the return-\n")
		b.WriteString("  address linkage — the Fig. 1 effect.\n")
	} else {
		b.WriteString("\n  NOTE: variables did not all share one register.\n")
	}
	return b.String(), nil
}

// fig2OneRegion has a single conditional region using a callee-saved
// register: shrink-wrapping confines the save to that arm.
const fig2OneRegion = `
var g int;

func work(v int) int { return v + g; }

func f(c1 int, c2 int) int {
    if (c1 > 0) {
        var u int;
        var v int;
        var w int;
        u = work(c1);
        v = work(u);
        w = work(u + 1);
        g = g + u + v + w;   // u stays live across two calls
    }
    g = g + 2;
    if (c2 > 0) {
        g = g + 3;
    }
    return g;
}

func main() {
    print(f(1, 1));
    print(f(0, 1));
    print(f(1, 0));
    print(f(0, 0));
}
`

// fig2TwoRegions realizes the Figure 2 hazard: two disjoint ranges (u in
// the first arm, w in the second) share one callee-saved register, and a
// path reaches the second region without passing the first. Placing a
// second save there would double-save on the path through both arms;
// instead of splitting the edge with a new CFG node, the range-extension
// refinement widens the usage range until the save hoists to a point that
// covers every path exactly once.
const fig2TwoRegions = `
var g int;

func work(v int) int { return v + g; }

func f(c1 int, c2 int) int {
    if (c1 > 0) {
        var u int;
        var v int;
        u = work(c1);
        v = work(u);
        g = g + u + v + work(u + v);   // u live across two calls
    }
    g = g + 2;
    if (c2 > 0) {
        var w int;
        var x int;
        w = work(c2);
        x = work(w);
        g = g + w + x + work(w + x);   // w live across two calls
    }
    return g;
}

func main() {
    print(f(1, 1));
    print(f(0, 1));
    print(f(1, 0));
    print(f(0, 0));
}
`

func fig2Plan(src string) (string, error) {
	mod, err := irModuleFor(src)
	if err != nil {
		return "", err
	}
	plan := core.PlanModule(mod, core.ModeA()) // intra + shrink-wrap isolates §5
	f := mod.Lookup("f")
	fp := plan.Funcs[f]
	var b strings.Builder
	fmt.Fprintf(&b, "  f has %d blocks; callee-saved registers managed: %s\n",
		len(f.Blocks), fp.Plan.Regs())
	for _, r := range fp.Plan.Regs().Regs() {
		var saves, restores []string
		for _, blk := range fp.Plan.SaveAt[r] {
			saves = append(saves, blk.Name)
		}
		for _, blk := range fp.Plan.RestoreAt[r] {
			restores = append(restores, blk.Name)
		}
		fmt.Fprintf(&b, "  %s: save at entry of {%s}, restore at exit of {%s}\n",
			r, strings.Join(saves, ", "), strings.Join(restores, ", "))
	}
	return b.String(), nil
}

// Fig2 contrasts save placement for the two control-flow forms: with a
// single region the save shrink-wraps into the arm; with two regions
// sharing the register across a merge path, the range extension hoists the
// save so no path saves twice (the paper's alternative — creating a new
// CFG node — would lengthen the other paths).
func Fig2() (string, error) {
	var b strings.Builder
	b.WriteString("Figure 2: save placement depends on the form of the control flow\n\n")
	b.WriteString("(a) one region using the register:\n")
	s1, err := fig2Plan(fig2OneRegion)
	if err != nil {
		return "", err
	}
	b.WriteString(s1)
	b.WriteString("\n(b) two regions sharing it across a merge path (the Fig. 2 hazard):\n")
	s2, err := fig2Plan(fig2TwoRegions)
	if err != nil {
		return "", err
	}
	b.WriteString(s2)
	b.WriteString("\n  in (a) the save sits inside the conditional arm; in (b) inserting a\n")
	b.WriteString("  second save at the other region would double-save on the path through\n")
	b.WriteString("  both arms, so the usage range is extended and the save hoists instead\n")
	b.WriteString("  of splitting the edge with a new block.\n")
	return b.String(), nil
}

// fig3Src realizes Figure 3: two conditionals in sequence; a callee-saved
// register is used only in the first arm. With equal branch probabilities
// the four paths see different effects from shrink-wrapping: one wins, one
// loses, two are a wash.
const fig3Src = `
var g int;
var path1 int;
var path2 int;

func leaf(v int) int { return v * 2 + g; }

func f() int {
    if (path1 > 0) {
        // Register-hungry region: x stays live across two calls, so it
        // wants a callee-saved register whose activity is confined to
        // this arm.
        var x int;
        var a int;
        var b int;
        x = leaf(1);
        a = leaf(x);
        b = leaf(x + 1);
        g = g + x + a + b;
    }
    g = g + 1;
    if (path2 > 0) {
        g = g + leaf(4);     // no use of x here
    }
    return g;
}

func main() {
    print(f());
}
`

// Fig3 measures the save/restore traffic of f on each of the four paths,
// with shrink-wrapping on and off, reproducing the paper's observation that
// the optimization helps on paths avoiding the register's region, hurts
// nowhere here, and is neutral on the rest.
func Fig3() (string, error) {
	var b strings.Builder
	b.WriteString("Figure 3: effects of shrink-wrap optimization per execution path\n\n")
	b.WriteString("  path (p1,p2)   save/restore ops: sw-off   sw-on   delta\n")
	for _, p1 := range []string{"0", "1"} {
		for _, p2 := range []string{"0", "1"} {
			src := strings.Replace(fig3Src,
				"func main() {\n    print(f());",
				"func main() {\n    path1 = "+p1+"; path2 = "+p2+";\n    print(f());", 1)
			off, err := run(src, core.ModeBase())
			if err != nil {
				return "", err
			}
			on, err := run(src, core.ModeA())
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "      (%s,%s)      %19d %7d %7d\n",
				p1, p2, off.stats.SaveRestoreLS(), on.stats.SaveRestoreLS(),
				on.stats.SaveRestoreLS()-off.stats.SaveRestoreLS())
		}
	}
	b.WriteString("\n  negative delta = shrink-wrapping removed save/restore traffic on\n")
	b.WriteString("  that path; zero = the path executes the region anyway.\n")
	return b.String(), nil
}

// fig4Src realizes Figure 4: p calls q inside one loop and r inside
// another; r's subtree uses register 1. Whether the save/restore belongs
// around the call in p or at the entry/exit of r depends on which call is
// more frequent.
const fig4Src = `
var g int;
var nq int;
var nr int;

func q(v int) int { return v + 1; }

func r(v int) int {
    var a int;
    var b int;
    a = q(v);        // r's subtree keeps a live across a call
    b = q(v + 1);
    return a * b + g;
}

func p() int {
    var x int;
    var acc int;
    var i int;
    x = 13;
    acc = 0;
    for (i = 0; i < nq; i = i + 1) {
        acc = acc + q(i) + x;     // x is live across the calls to q
    }
    for (i = 0; i < nr; i = i + 1) {
        acc = acc + r(i) + x;     // and across the calls to r
    }
    return acc;
}

func main() {
    print(p());
}
`

// Fig4 sweeps the relative frequencies of the two calls and reports the
// save/restore traffic under -O2 and under inter-procedural allocation,
// showing the cost shifting between the call sites in p and the body of r.
func Fig4() (string, error) {
	var b strings.Builder
	b.WriteString("Figure 4: where saves/restores land depends on call frequencies\n\n")
	b.WriteString("  (calls to q, calls to r)   save/restore ops: O2    O3+sw\n")
	type cfg struct{ nq, nr int }
	for _, c := range []cfg{{200, 2}, {100, 100}, {2, 200}} {
		src := strings.Replace(fig4Src,
			"func main() {\n    print(p());",
			fmt.Sprintf("func main() {\n    nq = %d; nr = %d;\n    print(p());", c.nq, c.nr), 1)
		base, err := run(src, core.ModeBase())
		if err != nil {
			return "", err
		}
		ipra, err := run(src, core.ModeC())
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "      (%4d,%4d)          %14d %8d\n",
			c.nq, c.nr, base.stats.SaveRestoreLS(), ipra.stats.SaveRestoreLS())
	}
	b.WriteString("\n  inter-procedural allocation lets the callee summaries decide which\n")
	b.WriteString("  calls actually need protection, so the traffic tracks the cheaper\n")
	b.WriteString("  placement as the frequency ratio shifts.\n")
	return b.String(), nil
}
