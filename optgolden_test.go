package chow88

import (
	"os"
	"path/filepath"
	"testing"

	"chow88/internal/benchprog"
	"chow88/internal/front"
	"chow88/internal/ir"
)

// TestOptIRGolden pins the optimizer's output: the optimized IR of every
// suite program and Large, printed with ir.ModuleString, must match
// testdata/opt/<prog>.ir.golden byte for byte. A rewrite of the optimizer's
// bookkeeping must leave every golden unchanged; run with -update only after
// an intended change to what the optimizer does.
func TestOptIRGolden(t *testing.T) {
	for _, p := range append(benchprog.All(), benchprog.Large()) {
		t.Run(p.Name, func(t *testing.T) {
			mod, err := front.Build(p.Source, true)
			if err != nil {
				t.Fatal(err)
			}
			got := ir.ModuleString(mod)
			golden := filepath.Join("testdata", "opt", p.Name+".ir.golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if got != string(want) {
				t.Errorf("optimized IR drifted from %s (run with -update if intended)\n%s",
					golden, firstDiff(string(want), got))
			}
		})
	}
}
