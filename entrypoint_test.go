package chow88

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"chow88/internal/explain"
	"chow88/internal/obs"
)

// TestOneCompileEntryPoint holds the compile sequence in one place:
// internal/pipeline's Compile/CompileProfiled/CompileIncremental are the
// only code that runs a compile's stages (front end, back end, code
// generation, the statefile load) and opens its compile span, and the only
// code that runs a profiling (training) simulation. Outside
// internal/pipeline, no non-test Go file may
//
//   - call front.Module, except the experiments' IR-only figure helper
//     irModuleFor;
//   - call codegen.Generate or codegen.EmitFuncs;
//   - call pipeline.Build* (BuildIncremental included);
//   - call incr.Load;
//   - open a span of obs.PhaseCompile;
//   - set Profile in a sim.Options (a profiling run, as for training).
//
// Files name the packages by import, so internal/codegen's and
// internal/incr's own definitions never match. The perfbench module mirrors
// the stages on purpose and is out of scope.
func TestOneCompileEntryPoint(t *testing.T) {
	var files int
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "perfbench") ||
				filepath.ToSlash(path) == "internal/pipeline" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		files++
		for _, v := range entryViolations(t, path) {
			t.Errorf("%s", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("scanned only %d files; the walk is not covering the repo", files)
	}
}

// figureHelpers may call front.Module directly: the experiments' figures
// inspect IR and plans, not a full compile.
var figureHelpers = map[string]bool{"irModuleFor": true}

// entryViolations parses one file and reports every compile-sequence call
// that bypasses the pipeline entry.
func entryViolations(t *testing.T, path string) []string {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	// Local names of the packages the rules talk about.
	names := map[string]string{}
	for _, imp := range file.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		local := p[strings.LastIndex(p, "/")+1:]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		names[p] = local
	}
	pkg := func(name string) string { return names["chow88/internal/"+name] }
	sel := func(e ast.Expr, pkg string) string {
		if s, ok := e.(*ast.SelectorExpr); ok && pkg != "" {
			if x, ok := s.X.(*ast.Ident); ok && x.Name == pkg {
				return s.Sel.Name
			}
		}
		return ""
	}

	var out []string
	at := func(n ast.Node, format string, args ...any) {
		out = append(out, fset.Position(n.Pos()).String()+": "+fmt.Sprintf(format, args...))
	}
	for _, decl := range file.Decls {
		name := "a package-level declaration"
		if fn, ok := decl.(*ast.FuncDecl); ok {
			name = fn.Name.Name
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel(n.Fun, pkg("front")) == "Module" && !figureHelpers[name] {
					at(n, "%s calls front.Module; compile through pipeline.Compile", name)
				}
				switch callee := sel(n.Fun, pkg("codegen")); callee {
				case "Generate", "EmitFuncs":
					at(n, "%s calls codegen.%s; generate code through pipeline.Compile", name, callee)
				}
				if callee := sel(n.Fun, pkg("pipeline")); strings.HasPrefix(callee, "Build") {
					at(n, "%s calls pipeline.%s; compile through the pipeline entry", name, callee)
				}
				if sel(n.Fun, pkg("incr")) == "Load" {
					at(n, "%s calls incr.Load; load statefiles through pipeline.CompileIncremental", name)
				}
				if s, ok := n.Fun.(*ast.SelectorExpr); ok && s.Sel.Name == "Span" && len(n.Args) > 0 &&
					sel(n.Args[0], pkg("obs")) == "PhaseCompile" {
					at(n, "%s opens a PhaseCompile span; label the compile through the pipeline entry", name)
				}
			case *ast.CompositeLit:
				if sel(n.Type, pkg("sim")) != "Options" {
					break
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok && k.Name == "Profile" {
							at(n, "%s runs a profiling simulation; train through pipeline.CompileProfiled", name)
						}
					}
				}
			}
			return true
		})
	}
	return out
}

// TestCompileIncrementalEmitsOnce holds a capturing build to one
// code-generation pass: the statefile capture keeps the bodies the build
// emitted instead of emitting them again. A first CompileIncremental of
// nim (no statefile) must journal exactly Compile's decisions, each
// save/restore placement once, and emit each defined function once.
func TestCompileIncrementalEmitsOnce(t *testing.T) {
	src, err := os.ReadFile("testdata/nim.cw")
	if err != nil {
		t.Fatal(err)
	}
	obs.Begin(obs.Options{})
	defer obs.End()
	compile := func(f func() (*Program, error)) *Program {
		t.Helper()
		explain.Begin()
		defer explain.End()
		p, err := f()
		if err != nil {
			t.Fatal(err)
		}
		if p.Report == nil || p.Report.Explain == nil {
			t.Fatal("no compile report with an explain artifact under an obs session and a journal")
		}
		return p
	}
	full := compile(func() (*Program, error) { return Compile(string(src), ModeC()) })
	state := filepath.Join(t.TempDir(), "nim.state")
	inc := compile(func() (*Program, error) { return CompileIncremental(string(src), ModeC(), state) })

	incArt, fullArt := inc.Report.Explain.(*explain.Artifact), full.Report.Explain.(*explain.Artifact)
	if !reflect.DeepEqual(incArt, fullArt) {
		t.Errorf("CompileIncremental's explain artifact differs from Compile's: %d vs %d decisions",
			len(incArt.Decisions()), len(fullArt.Decisions()))
	}
	defined := 0
	for _, f := range inc.Module.Funcs {
		if !f.Extern {
			defined++
		}
	}
	if got := inc.Report.Counter("codegen.funcs_emitted"); got != int64(defined) {
		t.Errorf("codegen.funcs_emitted = %d on a capturing build, want %d (one per defined function)", got, defined)
	}
	if _, err := os.Stat(state); err != nil {
		t.Errorf("the first build saved no statefile: %v", err)
	}
}
