package liveness

import (
	"testing"

	"chow88/internal/dataflow"
	"chow88/internal/ir"
	"chow88/internal/lower"
	"chow88/internal/parser"
	"chow88/internal/sema"
)

func buildFunc(t *testing.T, src, name string) *ir.Func {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sema.Check(p)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	m, err := lower.Build(info)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	f := m.Lookup(name)
	dataflow.Loops(f)
	return f
}

func findTemp(f *ir.Func, name string) *ir.Temp {
	for _, t := range f.Temps() {
		if t.Name == name {
			return t
		}
	}
	return nil
}

func TestParamLiveIntoBody(t *testing.T) {
	f := buildFunc(t, `
func g(x int) int { return x; }
func f(a int, b int) int {
    var s int;
    s = g(a);
    return s + b;
}
func main() { print(f(1, 2)); }`, "f")
	res := Analyze(f)
	a, b := findTemp(f, "a"), findTemp(f, "b")
	if a == nil || b == nil {
		t.Fatal("params not found")
	}
	entryIn := res.In(f.Entry())
	if !entryIn.Get(a.ID) || !entryIn.Get(b.ID) {
		t.Errorf("params must be live at entry: %s", entryIn)
	}

	ranges := Ranges(f, res)
	rb := ranges[b.ID]
	if !rb.EntryLive {
		t.Errorf("b should be entry-live")
	}
	// b is live across the call to g; a is not (consumed as an argument).
	if len(rb.Calls) != 1 {
		t.Errorf("b spans %d calls, want 1", len(rb.Calls))
	}
	ra := ranges[a.ID]
	if len(ra.Calls) != 0 {
		t.Errorf("a spans %d calls, want 0", len(ra.Calls))
	}
}

func TestCallResultNotLiveAcrossItsOwnCall(t *testing.T) {
	f := buildFunc(t, `
func g() int { return 1; }
func f() int {
    var x int;
    x = g();
    return x;
}
func main() { print(f()); }`, "f")
	res := Analyze(f)
	ranges := Ranges(f, res)
	for _, r := range ranges {
		if len(r.Calls) > 0 {
			t.Errorf("temp %s should not span the call that defines it", r.Temp)
		}
	}
}

func TestLoopWeights(t *testing.T) {
	f := buildFunc(t, `
func f(n int) int {
    var s int;
    var i int;
    for (i = 0; i < n; i = i + 1) { s = s + i; }
    return s;
}
func main() { print(f(10)); }`, "f")
	res := Analyze(f)
	ranges := Ranges(f, res)
	s := findTemp(f, "s.1")
	if s == nil {
		// Fall back: locate any var named with prefix s.
		for _, tt := range f.Temps() {
			if tt.IsVar && tt.Name[0] == 's' {
				s = tt
			}
		}
	}
	if s == nil {
		t.Fatal("s not found")
	}
	rs := ranges[s.ID]
	// s occurs inside the loop, so its weight must exceed its raw count.
	if rs.Weight <= float64(rs.Occurrences) {
		t.Errorf("weight %f should exceed occurrences %d (loop weighting)", rs.Weight, rs.Occurrences)
	}
}

func TestInterference(t *testing.T) {
	f := buildFunc(t, `
func f(a int, b int) int {
    var x int;
    var y int;
    x = a + b;
    y = a - b;
    return x * y;
}
func main() { print(f(3, 4)); }`, "f")
	res := Analyze(f)
	g := BuildInterference(f, res)
	a, b := findTemp(f, "a"), findTemp(f, "b")
	x, y := findTemp(f, "x.2"), findTemp(f, "y.3")
	if x == nil || y == nil {
		t.Fatalf("locals not found: %v", f.Temps())
	}
	if !g.Interferes(a.ID, b.ID) {
		t.Errorf("parameters a and b must interfere")
	}
	if !g.Interferes(x.ID, y.ID) {
		t.Errorf("x and y are simultaneously live; must interfere")
	}
	if g.Degree(x.ID) == 0 {
		t.Errorf("x has neighbors")
	}
}

func TestCopyDoesNotInterfere(t *testing.T) {
	// y = x; return y: x dies at the copy, so x and y can share a register.
	f := ir.NewFunc("c")
	x := f.NewTemp("x", true)
	y := f.NewTemp("y", true)
	b := f.NewBlock()
	op := ir.TempOp(y)
	b.Instrs = []*ir.Instr{
		{Op: ir.OpConst, Dst: x, Imm: 7},
		{Op: ir.OpCopy, Dst: y, A: ir.TempOp(x)},
		ir.NewRet(&op),
	}
	f.Returns = true
	f.ComputeCFG()
	res := Analyze(f)
	g := BuildInterference(f, res)
	if g.Interferes(x.ID, y.ID) {
		t.Errorf("copy-related temps should not interfere")
	}
}

func TestRangeBlocks(t *testing.T) {
	f := buildFunc(t, `
func f(n int) int {
    var s int;
    s = 1;
    if (n > 0) { s = 2; } else { s = 3; }
    return s;
}
func main() { print(f(0)); }`, "f")
	res := Analyze(f)
	ranges := Ranges(f, res)
	var s *ir.Temp
	for _, tt := range f.Temps() {
		if tt.IsVar && tt.Name[0] == 's' {
			s = tt
		}
	}
	rs := ranges[s.ID]
	if len(rs.Blocks) < 3 {
		t.Errorf("s should span several blocks, got %d", len(rs.Blocks))
	}
}
