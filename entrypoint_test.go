package chow88

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneCompileEntryPoint holds the compile sequence in one place:
// internal/pipeline's Compile/CompileProfiled are the only code that runs
// the front end and then the back end, and the only code that runs a
// profiling (training) simulation. Outside internal/pipeline, no non-test
// Go file may
//
//   - call front.Module, except the experiments' IR-only figure helpers
//     irModuleFor and irModuleNoOpt;
//   - run a front end (front.Module, front.Build or those helpers) and
//     pipeline.Build* in one function;
//   - set Profile in a sim.Options (a profiling run, as for training).
//
// The perfbench module mirrors the stages on purpose and is out of scope.
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
var figureHelpers = map[string]bool{"irModuleFor": true, "irModuleNoOpt": true}

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
	front, pipe, sim := names["chow88/internal/front"], names["chow88/internal/pipeline"], names["chow88/internal/sim"]
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
		var frontCall, buildCall ast.Node
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				switch callee := sel(n.Fun, front); {
				case callee == "Module" && !figureHelpers[name]:
					at(n, "%s calls front.Module; compile through pipeline.Compile", name)
					frontCall = n
				case callee == "Module" || callee == "Build":
					frontCall = n
				}
				if id, ok := n.Fun.(*ast.Ident); ok && figureHelpers[id.Name] {
					frontCall = n
				}
				if strings.HasPrefix(sel(n.Fun, pipe), "Build") {
					buildCall = n
				}
			case *ast.CompositeLit:
				if sel(n.Type, sim) != "Options" {
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
		if frontCall != nil && buildCall != nil {
			at(buildCall, "%s runs the front end and then pipeline.%s; compile through pipeline.Compile",
				name, buildCall.(*ast.CallExpr).Fun.(*ast.SelectorExpr).Sel.Name)
		}
	}
	return out
}
