package codegen

import (
	"reflect"
	"strings"
	"testing"

	"chow88/internal/core"
	"chow88/internal/interp"
	"chow88/internal/lower"
	"chow88/internal/mcode"
	"chow88/internal/opt"
	"chow88/internal/parser"
	"chow88/internal/sema"
	"chow88/internal/sim"
)

func compile(t *testing.T, src string, mode core.Mode) *mcode.Program {
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
	if mode.Optimize {
		opt.Run(mod)
	}
	plan := core.PlanModule(mod, mode)
	prog, _, err := Generate(plan)
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	return prog
}

func runBoth(t *testing.T, src string, mode core.Mode) {
	t.Helper()
	prog := compile(t, src, mode)
	res, err := sim.Run(prog, sim.Options{})
	if err != nil {
		t.Fatalf("sim: %v\n%s", err, prog.Disassemble())
	}
	tree, _ := parser.Parse(src)
	info, _ := sema.Check(tree)
	want, err := interp.Run(info, interp.Options{})
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	if !reflect.DeepEqual(res.Output, want.Output) {
		t.Fatalf("output %v != %v\n%s", res.Output, want.Output, prog.Disassemble())
	}
}

// TestParallelMoveSwap: calling g(b, a) from f(a, b) forces a register swap
// through $at under the default convention.
func TestParallelMoveSwap(t *testing.T) {
	src := `
func g(x int, y int) int { return x * 10 + y; }
func f(a int, b int) int { return g(b, a); }
func main() { print(f(1, 2)); }`
	runBoth(t, src, core.ModeBase())
	prog := compile(t, src, core.ModeBase())
	if !strings.Contains(prog.Disassemble(), "$at") {
		t.Log("no $at use; swap may have been resolved another way (acceptable)")
	}
}

// TestParallelMoveRotation: three-way rotation of argument registers.
func TestParallelMoveRotation(t *testing.T) {
	runBoth(t, `
func g(x int, y int, z int) int { return x * 100 + y * 10 + z; }
func f(a int, b int, c int) int { return g(c, a, b); }
func main() { print(f(1, 2, 3)); }`, core.ModeBase())
}

// TestStackArgsBothDirections: args beyond the register convention travel on
// the stack and come back intact, including under IPRA negotiation.
func TestStackArgsBothDirections(t *testing.T) {
	src := `
func g(a int, b int, c int, d int, e int, f int, h int) int {
    return a + b * 2 + c * 3 + d * 4 + e * 5 + f * 6 + h * 7;
}
func main() { print(g(1, 2, 3, 4, 5, 6, 7)); }`
	runBoth(t, src, core.ModeBase())
	runBoth(t, src, core.ModeC())
	runBoth(t, src, core.ModeE())
}

// TestFrameRestoredAcrossCalls: SP must come back to its original value;
// a pattern of nested calls with frames of varying size would corrupt
// results otherwise.
func TestFrameRestoredAcrossCalls(t *testing.T) {
	runBoth(t, `
func deep(n int) int {
    var buf [17]int;
    buf[3] = n;
    if (n <= 0) { return buf[3]; }
    var r int;
    r = deep(n - 1);
    return r + buf[3];
}
func main() { print(deep(6)); }`, core.ModeC())
}

// TestReturnValueThroughV0 checks the result path with memory-resident
// destinations (restricted register set forces spills).
func TestReturnValueThroughV0(t *testing.T) {
	runBoth(t, `
func seven() int { return 7; }
func f() int {
    var a int;
    var b int;
    var c int;
    var d int;
    var e int;
    var g2 int;
    var h int;
    var i int;
    a = seven(); b = seven(); c = seven(); d = seven();
    e = seven(); g2 = seven(); h = seven(); i = seven();
    return a + b + c + d + e + g2 + h + i;
}
func main() { print(f()); }`, core.ModeE())
}

// TestExternCallTraps: a direct call to an extern function leaves the code
// image and traps, mirroring the interpreter.
func TestExternCallTraps(t *testing.T) {
	prog := compile(t, `
extern func lib(x int) int;
func main() { print(lib(3)); }`, core.ModeBase())
	_, err := sim.Run(prog, sim.Options{})
	if err == nil {
		t.Fatal("extern call should trap")
	}
}

// TestSaveRestoreClassification: callee-saved prologue traffic must carry
// the save/restore class so pixie's metric sees it.
func TestSaveRestoreClassification(t *testing.T) {
	prog := compile(t, `
func leaf(v int) int {
    if (v <= 0) { return 0; }
    return leaf(v - 1) + v;
}
func main() { print(leaf(5)); }`, core.ModeBase())
	res, err := sim.Run(prog, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SaveRestoreLS() == 0 {
		t.Error("recursive function must produce save/restore traffic")
	}
	if res.Stats.LoadsByClass[mcode.ClassSaveRestore] == 0 {
		t.Error("restores missing the save/restore class")
	}
}

// TestDisassemblyShape sanity-checks the generated image structure.
func TestDisassemblyShape(t *testing.T) {
	prog := compile(t, `
func add(a int, b int) int { return a + b; }
func main() { print(add(1, 2)); }`, core.ModeBase())
	d := prog.Disassemble()
	for _, want := range []string{"main:", "add:", "jal", "jr $ra", "exit"} {
		if !strings.Contains(d, want) {
			t.Errorf("missing %q:\n%s", want, d)
		}
	}
	if prog.Code[0].Op != mcode.JAL {
		t.Error("image must start with the startup stub")
	}
	if prog.Code[1].Op != mcode.EXIT {
		t.Error("stub must exit after main returns")
	}
}

// TestGeneratedImagesVerify: every mode's output must pass the static
// verifier (Generate runs it at link time; this asserts it directly and
// that corrupting an image is caught).
func TestGeneratedImagesVerify(t *testing.T) {
	src := `
func fib(n int) int {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
func main() {
    var i int;
    i = 0;
    while (i < 5) { print(fib(i)); i = i + 1; }
}`
	for _, mode := range []core.Mode{
		core.ModeBase(), core.ModeA(), core.ModeB(),
		core.ModeC(), core.ModeD(), core.ModeE(),
	} {
		prog := compile(t, src, mode)
		if err := mcode.Verify(prog); err != nil {
			t.Fatalf("%s: generated image fails verify: %v", mode.Name, err)
		}
	}

	prog := compile(t, src, core.ModeBase())
	corrupt := func(mutate func(p *mcode.Program)) error {
		clone := *prog
		clone.Code = append([]mcode.Instr(nil), prog.Code...)
		mutate(&clone)
		return mcode.Verify(&clone)
	}
	if err := corrupt(func(p *mcode.Program) {
		for i := range p.Code {
			if p.Code[i].Op == mcode.BEQZ || p.Code[i].Op == mcode.BNEZ {
				p.Code[i].Target = len(p.Code) + 7
				return
			}
		}
		t.Fatal("no branch to corrupt")
	}); err == nil {
		t.Error("out-of-range branch target must fail verify")
	}
	if err := corrupt(func(p *mcode.Program) {
		p.Code[3].Rd = 200
	}); err == nil {
		t.Error("register index out of range must fail verify")
	}
	if err := corrupt(func(p *mcode.Program) {
		p.Code[0].Target = len(p.Code) + 1
	}); err == nil {
		t.Error("out-of-range call target must fail verify")
	}
}
