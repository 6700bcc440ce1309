package callgraph

import (
	"testing"

	"chow88/internal/ir"
	"chow88/internal/lower"
	"chow88/internal/parser"
	"chow88/internal/sema"
)

func buildGraph(t *testing.T, src string, forceOpen ...string) (*ir.Module, *Graph) {
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
	fo := map[string]bool{}
	for _, n := range forceOpen {
		fo[n] = true
	}
	return mod, Build(mod, fo)
}

const chainSrc = `
func leaf(x int) int { return x + 1; }
func mid(x int) int { return leaf(x) * 2; }
func top(x int) int { return mid(x) + leaf(x); }
func main() { print(top(3)); }`

func TestClosedChain(t *testing.T) {
	mod, g := buildGraph(t, chainSrc)
	for _, name := range []string{"leaf", "mid", "top"} {
		if g.Open[mod.Lookup(name)] {
			t.Errorf("%s should be closed: %s", name, g.OpenReason[mod.Lookup(name)])
		}
	}
	if !g.Open[mod.Lookup("main")] {
		t.Error("main must be open")
	}
}

func TestPostOrderBottomUp(t *testing.T) {
	mod, g := buildGraph(t, chainSrc)
	pos := map[string]int{}
	for i, f := range g.PostOrder {
		pos[f.Name] = i
	}
	if !(pos["leaf"] < pos["mid"] && pos["mid"] < pos["top"] && pos["top"] < pos["main"]) {
		t.Errorf("order not bottom-up: %v", pos)
	}
	_ = mod
}

func TestSelfRecursionIsOpen(t *testing.T) {
	mod, g := buildGraph(t, `
func f(n int) int { if (n <= 0) { return 0; } return f(n - 1); }
func main() { print(f(3)); }`)
	if !g.Open[mod.Lookup("f")] {
		t.Error("self-recursive f must be open")
	}
	if !g.InCycle[mod.Lookup("f")] {
		t.Error("f is in a cycle")
	}
}

func TestMutualRecursionIsOpen(t *testing.T) {
	mod, g := buildGraph(t, `
func even(n int) int { if (n == 0) { return 1; } return odd(n - 1); }
func odd(n int) int { if (n == 0) { return 0; } return even(n - 1); }
func helper(x int) int { return x * 2; }
func main() { print(even(4) + helper(1)); }`)
	if !g.Open[mod.Lookup("even")] || !g.Open[mod.Lookup("odd")] {
		t.Error("mutually recursive pair must be open")
	}
	if g.Open[mod.Lookup("helper")] {
		t.Error("helper is not recursive")
	}
}

func TestAddressTakenIsOpen(t *testing.T) {
	mod, g := buildGraph(t, `
var fp func(int) int;
func target(x int) int { return x; }
func caller(x int) int { return fp(x); }
func main() { fp = target; print(caller(1)); }`)
	if !g.Open[mod.Lookup("target")] {
		t.Error("address-taken target must be open")
	}
	if g.Open[mod.Lookup("caller")] {
		t.Error("caller merely contains an indirect call; it stays closed")
	}
	if !g.HasIndirect[mod.Lookup("caller")] {
		t.Error("caller has an indirect call site")
	}
}

func TestExternIsOpen(t *testing.T) {
	mod, g := buildGraph(t, `
extern func lib(x int) int;
func wrapper(x int) int { return x * 2; }
func main() { print(wrapper(1)); }`)
	if !g.Open[mod.Lookup("lib")] {
		t.Error("extern must be open")
	}
	if g.OpenReason[mod.Lookup("lib")] != "extern" {
		t.Errorf("reason: %s", g.OpenReason[mod.Lookup("lib")])
	}
}

func TestForceOpen(t *testing.T) {
	mod, g := buildGraph(t, chainSrc, "mid")
	if !g.Open[mod.Lookup("mid")] {
		t.Error("mid was forced open")
	}
	if g.Open[mod.Lookup("leaf")] {
		t.Error("leaf should stay closed")
	}
}

func TestHeight(t *testing.T) {
	mod, g := buildGraph(t, chainSrc)
	if h := g.Height(mod.Lookup("leaf")); h != 1 {
		t.Errorf("height(leaf) = %d", h)
	}
	if h := g.Height(mod.Lookup("top")); h != 3 {
		t.Errorf("height(top) = %d", h)
	}
	if h := g.Height(mod.Lookup("main")); h != 4 {
		t.Errorf("height(main) = %d", h)
	}
}

func TestHeightWithCycle(t *testing.T) {
	mod, g := buildGraph(t, `
func a(n int) int { if (n <= 0) { return 0; } return b(n - 1); }
func b(n int) int { if (n <= 0) { return 1; } return a(n - 1); }
func main() { print(a(4)); }`)
	if h := g.Height(mod.Lookup("main")); h < 2 {
		t.Errorf("height(main) = %d; cycle must not make it degenerate", h)
	}
}

func TestOpenNames(t *testing.T) {
	_, g := buildGraph(t, chainSrc)
	names := g.OpenNames()
	if len(names) != 1 || names[0] != "main" {
		t.Errorf("open names = %v", names)
	}
}

func TestDeadFunctionStillProcessed(t *testing.T) {
	mod, g := buildGraph(t, `
func unreached(x int) int { return x; }
func main() { print(1); }`)
	found := false
	for _, f := range g.PostOrder {
		if f == mod.Lookup("unreached") {
			found = true
		}
	}
	if !found {
		t.Error("dead functions must still appear in the processing order")
	}
}
