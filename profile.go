package chow88

import (
	"context"

	"chow88/internal/pipeline"
)

// CompileProfiled implements the paper's stated future work: "The feedback
// of profile data to the register allocator is a capability that we plan to
// add in the future" (§8). It compiles a training build under the baseline
// mode, executes it once recording per-basic-block execution counts, writes
// those counts back onto the IR as block frequencies (replacing the static
// 10^loop-depth estimate), and recompiles under the requested mode.
//
// With measured frequencies, the allocator's save/restore placement follows
// the program's actual behaviour: the ccom-style failure the paper analyses
// (propagation moving saves into a region that runs more often than the
// region they left) cannot happen, because the priorities now see the real
// relative frequencies of the call-graph levels.
//
// The training build compiles the same front-end module under ModeBase with
// mode's Optimize, ForceOpen, Validate and Strict. The explain journal
// restarts after training, and with an obs session active Report.Training
// carries the training window apart from the final build's. Like Compile,
// it runs through the single pipeline entry (pipeline.CompileProfiled),
// which holds the only training build and run.
func CompileProfiled(src string, mode Mode) (*Program, error) {
	c, err := pipeline.CompileProfiled(context.Background(), src, mode, "CompileProfiled", nil)
	if err != nil {
		return nil, err
	}
	return newProgram(mode, c), nil
}

// CompileInlined is the profile-guided inlining entry point: a training
// build and run under the baseline mode attach measured block frequencies
// (exactly as CompileProfiled), and the final build then runs the procedure
// integrator on the profiled IR before planning — so call sites are ranked
// by how often they actually executed, not by loop-depth guesses. budget is
// the code-growth allowance in percent of the pre-inlining instruction
// count; 0 selects the pass default.
//
// The training build itself never inlines: it exists to measure the
// program's call structure, which inlining would erase.
func CompileInlined(src string, mode Mode, budget int) (*Program, error) {
	mode.Inline = true
	mode.InlineBudget = budget
	return CompileProfiled(src, mode)
}
