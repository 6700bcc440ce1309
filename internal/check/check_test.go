package check

import (
	"fmt"
	"testing"

	"chow88/internal/benchprog"
	"chow88/internal/codegen"
	"chow88/internal/core"
	"chow88/internal/front"
)

func modes() []core.Mode {
	return []core.Mode{
		core.ModeBase(), core.ModeA(), core.ModeB(),
		core.ModeC(), core.ModeD(), core.ModeE(),
	}
}

// TestCleanCorpus runs both validators over every corpus program under all
// six measurement modes: a correct compiler produces zero violations.
func TestCleanCorpus(t *testing.T) {
	for _, b := range benchprog.All() {
		for _, mode := range modes() {
			t.Run(fmt.Sprintf("%s/%s", b.Name, mode.Name), func(t *testing.T) {
				mod, err := front.Module(b.Source, mode.Optimize, true)
				if err != nil {
					t.Fatalf("front: %v", err)
				}
				pp := core.PlanModule(mod, mode)
				for _, v := range Plan(pp) {
					t.Errorf("plan: %s", v)
				}
				prog, _, err := codegen.Generate(pp)
				if err != nil {
					t.Fatalf("codegen: %v", err)
				}
				for _, v := range Code(pp, prog) {
					t.Errorf("code: %s", v)
				}
			})
		}
	}
}
