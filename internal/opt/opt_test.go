package opt

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"chow88/internal/benchprog"
	"chow88/internal/interp"
	"chow88/internal/ir"
	"chow88/internal/lower"
	"chow88/internal/parser"
	"chow88/internal/progen"
	"chow88/internal/sema"
)

// lowered returns src's unoptimized IR.
func lowered(t *testing.T, src string) *ir.Module {
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
	return mod
}

func optimized(t *testing.T, src string) *ir.Module {
	t.Helper()
	mod := lowered(t, src)
	Run(mod)
	if err := ir.VerifyModule(mod); err != nil {
		t.Fatalf("optimizer broke the IR: %v", err)
	}
	return mod
}

func countOps(f *ir.Func, op ir.Op) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == op {
				n++
			}
		}
	}
	return n
}

func TestConstantFolding(t *testing.T) {
	mod := optimized(t, `func main() { print(2 + 3 * 4); }`)
	f := mod.Lookup("main")
	if n := countOps(f, ir.OpAdd) + countOps(f, ir.OpMul); n != 0 {
		t.Errorf("%d arithmetic ops survive constant folding:\n%s", n, ir.FuncString(f))
	}
}

func TestBranchFolding(t *testing.T) {
	mod := optimized(t, `
func main() {
    if (1 < 2) { print(1); } else { print(2); }
}`)
	f := mod.Lookup("main")
	if n := countOps(f, ir.OpBr); n != 0 {
		t.Errorf("constant branch survives:\n%s", ir.FuncString(f))
	}
	// The dead arm must be gone entirely.
	s := ir.FuncString(f)
	if strings.Contains(s, "print 2") {
		t.Errorf("dead branch survives:\n%s", s)
	}
}

func TestLocalCSE(t *testing.T) {
	mod := optimized(t, `
func f(a int, b int) int {
    var x int;
    var y int;
    x = a * b + 3;
    y = a * b + 3;
    return x + y;
}
func main() { print(f(2, 5)); }`)
	f := mod.Lookup("f")
	if n := countOps(f, ir.OpMul); n > 1 {
		t.Errorf("a*b computed %d times:\n%s", n, ir.FuncString(f))
	}
}

func TestDeadZeroInitEliminated(t *testing.T) {
	// s is always assigned before use, so the implicit zero-init dies.
	mod := optimized(t, `
func f(a int) int {
    var s int;
    s = a * 2;
    return s;
}
func main() { print(f(4)); }`)
	f := mod.Lookup("f")
	if n := countOps(f, ir.OpConst); n != 0 {
		t.Errorf("%d consts survive (zero-init should be dead):\n%s", n, ir.FuncString(f))
	}
}

func TestDivisionByZeroPreserved(t *testing.T) {
	// A potentially trapping division must never be folded away, even with a
	// dead result.
	mod := optimized(t, `
var z int;
func main() {
    var unused int;
    unused = 1 / z;
    print(7);
}`)
	f := mod.Lookup("main")
	if n := countOps(f, ir.OpDiv); n != 1 {
		t.Errorf("div count = %d; traps must be preserved:\n%s", n, ir.FuncString(f))
	}
}

func TestGlobalLoadInvalidatedByCall(t *testing.T) {
	mod := optimized(t, `
var g int;
func bump() { g = g + 1; }
func main() {
    var a int;
    var b int;
    a = g;
    bump();
    b = g;
    print(a + b);
}`)
	f := mod.Lookup("main")
	if n := countOps(f, ir.OpLoadG); n < 2 {
		t.Errorf("load of g across a call was wrongly CSEd:\n%s", ir.FuncString(f))
	}
}

func TestGlobalLoadInvalidatedByStore(t *testing.T) {
	mod := optimized(t, `
var g int;
func main() {
    var a int;
    var b int;
    a = g;
    g = 5;
    b = g;
    print(a + b);
}`)
	f := mod.Lookup("main")
	// The second read may be forwarded from the constant store or reloaded,
	// but it must not reuse the pre-store load.
	res := runModule(t, `
var g int;
func main() {
    var a int;
    var b int;
    a = g;
    g = 5;
    b = g;
    print(a + b);
}`)
	if !reflect.DeepEqual(res, []int64{5}) {
		t.Errorf("semantics broken: %v", res)
	}
	_ = f
}

func TestAlgebraicIdentities(t *testing.T) {
	mod := optimized(t, `
func f(a int) int {
    return (a + 0) * 1 - 0;
}
func main() { print(f(9)); }`)
	f := mod.Lookup("f")
	if n := countOps(f, ir.OpAdd) + countOps(f, ir.OpMul) + countOps(f, ir.OpSub); n != 0 {
		t.Errorf("identities not simplified:\n%s", ir.FuncString(f))
	}
}

func TestCFGSimplification(t *testing.T) {
	mod := optimized(t, `
func f(a int) int {
    var r int;
    if (a > 0) { r = 1; } else { r = 2; }
    return r;
}
func main() { print(f(1)); }`)
	f := mod.Lookup("f")
	// Jump-only blocks should be threaded away; expect a compact CFG.
	if len(f.Blocks) > 4 {
		t.Errorf("CFG not simplified: %d blocks\n%s", len(f.Blocks), ir.FuncString(f))
	}
}

// runModule interprets the source (semantic oracle for optimizer tests).
func runModule(t *testing.T, src string) []int64 {
	t.Helper()
	tree, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sema.Check(tree)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	res, err := interp.Run(info, interp.Options{})
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	return res.Output
}

// TestOptimizerPreservesVerification fuzzes the optimizer against the IR
// verifier on random programs (semantic preservation is covered by the
// top-level differential tests).
func TestOptimizerPreservesVerification(t *testing.T) {
	n := 150
	if testing.Short() {
		n = 25
	}
	for seed := 0; seed < n; seed++ {
		src := progen.Generate(int64(seed), progen.DefaultConfig())
		tree, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		info, err := sema.Check(tree)
		if err != nil {
			t.Fatalf("seed %d: check: %v", seed, err)
		}
		mod, err := lower.Build(info)
		if err != nil {
			t.Fatalf("seed %d: lower: %v", seed, err)
		}
		Run(mod)
		if err := ir.VerifyModule(mod); err != nil {
			t.Fatalf("seed %d: optimizer broke the IR: %v\n%s", seed, err, src)
		}
	}
}

// valueNumber runs one block's value numbering over instrs (a void return
// is appended) and returns the rewritten block. The block has no uses after
// it, so nothing else in the pipeline would keep the instructions apart.
func valueNumber(f *ir.Func, instrs ...*ir.Instr) *ir.Block {
	b := f.NewBlock()
	b.Instrs = append(instrs, ir.NewRet(nil))
	f.ComputeCFG()
	newScratch(f.NumTemps()).localOptimize(b)
	return b
}

// wantOps checks the opcode of each of the block's first len(want)
// instructions.
func wantOps(t *testing.T, f *ir.Func, b *ir.Block, want ...ir.Op) {
	t.Helper()
	for i, op := range want {
		if got := b.Instrs[i].Op; got != op {
			t.Errorf("instr %d is %s, want %s:\n%s", i, got, op, ir.FuncString(f))
		}
	}
}

// TestValueNumberConstDistinctFromTemp: a constant operand whose value
// equals another operand's value number is a different value. Block-entry
// values are numbered by temp ID and fresh values count up from the temp
// count, so both kinds of number are checked.
func TestValueNumberConstDistinctFromTemp(t *testing.T) {
	f := ir.NewFunc("f")
	y := f.NewTemp("y", true)
	d1, d2, d3 := f.NewTemp("d1", false), f.NewTemp("d2", false), f.NewTemp("d3", false)
	x := f.NewTemp("x", true) // entry value number == x.ID
	m := f.NewTemp("m", false)
	e1, e2 := f.NewTemp("e1", false), f.NewTemp("e2", false)
	fresh := int64(f.NumTemps()) // m's value number: the first fresh one
	add := func(dst *ir.Temp, a, b ir.Operand) *ir.Instr {
		return &ir.Instr{Op: ir.OpAdd, Dst: dst, A: a, B: b}
	}
	b := valueNumber(f,
		add(d1, ir.TempOp(y), ir.TempOp(x)),
		add(d2, ir.TempOp(y), ir.ConstOp(int64(x.ID))),
		add(d3, ir.TempOp(y), ir.TempOp(x)),
		&ir.Instr{Op: ir.OpMul, Dst: m, A: ir.TempOp(y), B: ir.TempOp(y)},
		add(e1, ir.TempOp(y), ir.TempOp(m)),
		add(e2, ir.TempOp(y), ir.ConstOp(fresh)),
	)
	wantOps(t, f, b, ir.OpAdd, ir.OpAdd, ir.OpCopy, ir.OpMul, ir.OpAdd, ir.OpAdd)
}

// TestValueNumberLocalArrays: loads at the same index of two distinct
// local arrays are different values; a repeated load of one array is not.
func TestValueNumberLocalArrays(t *testing.T) {
	f := ir.NewFunc("f")
	p, q := &ir.LocalArray{Name: "p", Size: 4}, &ir.LocalArray{Name: "q", Size: 4}
	f.LocalArrays = []*ir.LocalArray{p, q}
	i := f.NewTemp("i", true)
	d1, d2, d3 := f.NewTemp("d1", false), f.NewTemp("d2", false), f.NewTemp("d3", false)
	load := func(dst *ir.Temp, arr *ir.LocalArray) *ir.Instr {
		return &ir.Instr{Op: ir.OpLoadIdx, Dst: dst, Arr: ir.ArrayRef{Local: arr}, A: ir.TempOp(i)}
	}
	b := valueNumber(f, load(d1, p), load(d2, q), load(d3, p))
	wantOps(t, f, b, ir.OpLoadIdx, ir.OpLoadIdx, ir.OpCopy)
}

// TestValueNumberFuncAddr: the addresses of two different callees are
// different values.
func TestValueNumberFuncAddr(t *testing.T) {
	f := ir.NewFunc("f")
	g, h := ir.NewFunc("g"), ir.NewFunc("h")
	d1, d2, d3 := f.NewTemp("d1", false), f.NewTemp("d2", false), f.NewTemp("d3", false)
	addr := func(dst *ir.Temp, callee *ir.Func) *ir.Instr {
		return &ir.Instr{Op: ir.OpFuncAddr, Dst: dst, Callee: callee}
	}
	b := valueNumber(f, addr(d1, g), addr(d2, h), addr(d3, g))
	wantOps(t, f, b, ir.OpFuncAddr, ir.OpFuncAddr, ir.OpCopy)
}

// TestValueNumberStoreGKillsOnlyThatGlobal: a store to one scalar global
// invalidates loads of that global and no other available value.
func TestValueNumberStoreGKillsOnlyThatGlobal(t *testing.T) {
	f := ir.NewFunc("f")
	g, h := &ir.Global{Name: "g", Size: 1}, &ir.Global{Name: "h", Size: 1}
	arr := &ir.Global{Name: "arr", Size: 4, IsArray: true}
	i := f.NewTemp("i", true)
	g1, h1, a1 := f.NewTemp("g1", false), f.NewTemp("h1", false), f.NewTemp("a1", false)
	g2, h2, a2 := f.NewTemp("g2", false), f.NewTemp("h2", false), f.NewTemp("a2", false)
	loadG := func(dst *ir.Temp, gl *ir.Global) *ir.Instr {
		return &ir.Instr{Op: ir.OpLoadG, Dst: dst, Global: gl}
	}
	loadIdx := func(dst *ir.Temp) *ir.Instr {
		return &ir.Instr{Op: ir.OpLoadIdx, Dst: dst, Arr: ir.ArrayRef{Global: arr}, A: ir.TempOp(i)}
	}
	b := valueNumber(f,
		loadG(g1, g), loadG(h1, h), loadIdx(a1),
		&ir.Instr{Op: ir.OpStoreG, Global: g, A: ir.TempOp(i)},
		loadG(g2, g), loadG(h2, h), loadIdx(a2),
	)
	wantOps(t, f, b, ir.OpLoadG, ir.OpLoadG, ir.OpLoadIdx, ir.OpStoreG, ir.OpLoadG, ir.OpCopy, ir.OpCopy)
}

// TestValueNumberCallAndStoreIdxKillIndexedLoads: a call and an indexed
// store each invalidate every available indexed load; an indexed store
// leaves scalar-global loads available.
func TestValueNumberCallAndStoreIdxKillIndexedLoads(t *testing.T) {
	for _, kill := range []string{"call", "storeidx"} {
		t.Run(kill, func(t *testing.T) {
			f := ir.NewFunc("f")
			callee := ir.NewFunc("callee")
			g := &ir.Global{Name: "g", Size: 1}
			p := &ir.LocalArray{Name: "p", Size: 4}
			q := &ir.LocalArray{Name: "q", Size: 4}
			f.LocalArrays = []*ir.LocalArray{p, q}
			i := f.NewTemp("i", true)
			d1, g1, d2, g2 := f.NewTemp("d1", false), f.NewTemp("g1", false), f.NewTemp("d2", false), f.NewTemp("g2", false)
			load := &ir.Instr{Op: ir.OpLoadIdx, Dst: d1, Arr: ir.ArrayRef{Local: p}, A: ir.TempOp(i)}
			reload := &ir.Instr{Op: ir.OpLoadIdx, Dst: d2, Arr: ir.ArrayRef{Local: p}, A: ir.TempOp(i)}
			killer := &ir.Instr{Op: ir.OpCall, Callee: callee}
			wantG := ir.OpLoadG // a call may store to g
			if kill == "storeidx" {
				// A store to q, not p: indexed loads die conservatively.
				killer = &ir.Instr{Op: ir.OpStoreIdx, Arr: ir.ArrayRef{Local: q}, A: ir.TempOp(i), B: ir.TempOp(i)}
				wantG = ir.OpCopy
			}
			b := valueNumber(f,
				load, &ir.Instr{Op: ir.OpLoadG, Dst: g1, Global: g},
				killer,
				reload, &ir.Instr{Op: ir.OpLoadG, Dst: g2, Global: g},
			)
			wantOps(t, f, b, ir.OpLoadIdx, ir.OpLoadG, killer.Op, ir.OpLoadIdx, wantG)
		})
	}
}

// TestRoundCapNeverBinds: RunFunc stops after maxRounds rounds, but no
// function of the suite, Large or the progen corpus needs that many, so
// the cap never shapes the output.
func TestRoundCapNeverBinds(t *testing.T) {
	srcs := map[string]string{}
	for _, p := range append(benchprog.All(), benchprog.Large()) {
		srcs[p.Name] = p.Source
	}
	seeds := 400
	if testing.Short() {
		seeds = 50
	}
	for seed := 0; seed < seeds; seed++ {
		srcs[fmt.Sprintf("progen%d", seed)] = progen.Generate(int64(seed), progen.DefaultConfig())
	}
	deepest := 0
	for name, src := range srcs {
		mod := lowered(t, src)
		for _, f := range mod.Funcs {
			if f.Extern {
				continue
			}
			s := newScratch(f.NumTemps())
			rounds := 1 // the last round is the one that changes nothing
			for round(f, s) {
				rounds++
				if rounds > 4*maxRounds {
					t.Fatalf("%s: %s does not reach a fixpoint", name, f.Name)
				}
			}
			if rounds > maxRounds {
				t.Errorf("%s: %s needs %d rounds, over the cap of %d", name, f.Name, rounds, maxRounds)
			}
			deepest = max(deepest, rounds)
		}
	}
	t.Logf("deepest function needs %d of %d rounds", deepest, maxRounds)
}
