package experiments

import (
	"context"
	"fmt"
	"strings"

	"chow88/internal/benchprog"
	"chow88/internal/core"
	"chow88/internal/pipeline"
	"chow88/internal/pixie"
)

// runProfiled compiles src under mode with profile feedback from a baseline
// training run (the paper's §8 future-work capability) and executes it.
// The cached front end returns a private clone, so the profile counts
// written onto the module never leak into other compilations.
func runProfiled(src string, mode core.Mode) (*measured, error) {
	return execute(pipeline.CompileProfiled(context.Background(), src, mode, "", nil))
}

// ProfileFeedback measures the suite under mode C with static loop-depth
// frequency estimates versus measured profiles, reporting the paper's two
// metrics. The paper attributes its residual regressions (ccom) to the lack
// of exactly this data.
func ProfileFeedback() (string, error) {
	var b strings.Builder
	b.WriteString("Profile feedback (the paper's §8 future work) under mode C:\n\n")
	b.WriteString("  program    | II.C% static | II.C% profiled | I.C% static | I.C% profiled\n")
	b.WriteString("  -----------+--------------+----------------+-------------+--------------\n")
	for _, bench := range benchprog.All() {
		baseRun, err := run(bench.Source, core.ModeBase())
		if err != nil {
			return "", fmt.Errorf("%s base: %w", bench.Name, err)
		}
		base, wantOut := baseRun.stats, baseRun.output
		staticRun, err := run(bench.Source, core.ModeC())
		if err != nil {
			return "", fmt.Errorf("%s static: %w", bench.Name, err)
		}
		static, outS := staticRun.stats, staticRun.output
		profRun, err := runProfiled(bench.Source, core.ModeC())
		if err != nil {
			return "", fmt.Errorf("%s profiled: %w", bench.Name, err)
		}
		prof, outP := profRun.stats, profRun.output
		for i := range wantOut {
			if outS[i] != wantOut[i] || outP[i] != wantOut[i] {
				return "", fmt.Errorf("%s: output diverged", bench.Name)
			}
		}
		fmt.Fprintf(&b, "  %-10s | %12.1f | %14.1f | %11.1f | %12.1f\n",
			bench.Name,
			pixie.PercentReduction(base.ScalarLS(), static.ScalarLS()),
			pixie.PercentReduction(base.ScalarLS(), prof.ScalarLS()),
			pixie.PercentReduction(base.Cycles, static.Cycles),
			pixie.PercentReduction(base.Cycles, prof.Cycles))
	}
	b.WriteString("\n  Measured block frequencies replace the 10^loop-depth estimate, so\n")
	b.WriteString("  save/restore placement follows actual execution behaviour — the\n")
	b.WriteString("  paper's prescription for its ccom regression.\n")
	return b.String(), nil
}
