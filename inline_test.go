package chow88

import (
	"reflect"
	"strings"
	"testing"

	"chow88/internal/benchprog"
	"chow88/internal/pipeline"
	"chow88/internal/pixie"
	"chow88/internal/sim"
)

// The procedure integrator's contract: integrated programs behave exactly
// like their originals (same Output on every engine), pass the linkage
// validator cleanly under every mode, stay byte-deterministic across cold
// and front-cached compiles, and — the point of the exercise —
// actually run faster under mode C with profile feedback.

// TestInlineCleanCorpus compiles the whole suite under every measurement
// mode with inlining on and Strict set: a single check violation, demotion
// or discarded integration fails the test.
func TestInlineCleanCorpus(t *testing.T) {
	progs := benchprog.All()
	if testing.Short() {
		progs = progs[:4]
	}
	for _, bp := range progs {
		for _, mode := range allModes() {
			mode.Inline = true
			mode.Strict = true
			label := bp.Name + "/" + mode.Name
			prog, err := Compile(bp.Source, mode)
			if err != nil {
				t.Fatalf("%s: inlined compile: %v", label, err)
			}
			if len(prog.Demotions) != 0 {
				t.Fatalf("%s: inlined compile degraded: %+v", label, prog.Demotions)
			}
			if prog.Inline == nil {
				t.Fatalf("%s: no inline report (integration discarded?)", label)
			}
		}
	}
}

// TestInlineDifferentialThreeEngines proves inlined programs produce
// byte-identical Output to their non-inlined builds, on both simulator
// engines.
func TestInlineDifferentialThreeEngines(t *testing.T) {
	progs := benchprog.All()
	if testing.Short() {
		progs = progs[:4]
	}
	for _, bp := range progs {
		base, err := Compile(bp.Source, ModeC())
		if err != nil {
			t.Fatalf("%s: compile: %v", bp.Name, err)
		}
		want, err := base.Run()
		if err != nil {
			t.Fatalf("%s: run: %v", bp.Name, err)
		}
		inl, err := CompileInlined(bp.Source, ModeC(), 0)
		if err != nil {
			t.Fatalf("%s: inlined compile: %v", bp.Name, err)
		}
		res, err := requireEnginesAgree(t, bp.Name+"/inlined", inl, sim.Options{})
		if err != nil {
			t.Fatalf("%s: inlined run: %v", bp.Name, err)
		}
		if !reflect.DeepEqual(res.Output, want.Output) {
			t.Fatalf("%s: inlined output diverged\n got: %v\nwant: %v", bp.Name, res.Output, want.Output)
		}
	}
}

// TestInlineParallelSequentialDeterminism: the integrated build must be
// byte-identical whether its front end came from the cache or was built
// cold (mode.Sequential). The inliner rewrites the module in place, so
// this also holds that it never reaches the cached master.
func TestInlineParallelSequentialDeterminism(t *testing.T) {
	progs := benchprog.All()
	if testing.Short() {
		progs = progs[:4]
	}
	for _, bp := range progs {
		cached := ModeC()
		cached.Inline = true
		cold := cached
		cold.Sequential = true
		p1, err := Compile(bp.Source, cached)
		if err != nil {
			t.Fatalf("%s: cached: %v", bp.Name, err)
		}
		p2, err := Compile(bp.Source, cold)
		if err != nil {
			t.Fatalf("%s: cold: %v", bp.Name, err)
		}
		if p1.Disassemble() != p2.Disassemble() {
			t.Fatalf("%s: cached and cold inlined builds diverge", bp.Name)
		}
		if !reflect.DeepEqual(p1.Code, p2.Code) {
			t.Fatalf("%s: inlined images diverge beyond the disassembly", bp.Name)
		}
	}
}

// TestInlineCyclesWinModeC is the acceptance bar: under mode C with
// profile feedback, inlining must reduce cycles on at least 6 of the 13
// programs and regress none by more than 2%. The linkage attribution must
// show where the cycles went: call-linkage cycles strictly drop whenever
// sites were inlined.
func TestInlineCyclesWinModeC(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite profile-guided measurement")
	}
	improved, regressed := 0, 0
	for _, bp := range benchprog.All() {
		ipra, err := CompileProfiled(bp.Source, ModeC())
		if err != nil {
			t.Fatalf("%s: profiled: %v", bp.Name, err)
		}
		ipraRes, err := ipra.Run()
		if err != nil {
			t.Fatalf("%s: profiled run: %v", bp.Name, err)
		}
		inl, err := CompileInlined(bp.Source, ModeC(), 0)
		if err != nil {
			t.Fatalf("%s: inlined: %v", bp.Name, err)
		}
		inlRes, err := inl.Run()
		if err != nil {
			t.Fatalf("%s: inlined run: %v", bp.Name, err)
		}
		if !reflect.DeepEqual(inlRes.Output, ipraRes.Output) {
			t.Fatalf("%s: inlined output diverged", bp.Name)
		}
		ic, nc := ipraRes.Stats.Cycles, inlRes.Stats.Cycles
		switch {
		case nc < ic:
			improved++
		case nc > ic:
			regressed++
			if pct := -pixie.PercentReduction(ic, nc); pct > 2.0 {
				t.Errorf("%s: inlining regressed cycles by %.2f%% (%d -> %d)", bp.Name, pct, ic, nc)
			}
		}
		if inl.Inline != nil && inl.Inline.SitesInlined > 0 &&
			inlRes.Stats.LinkageCycles >= ipraRes.Stats.LinkageCycles {
			t.Errorf("%s: %d sites inlined but linkage cycles did not drop (%d -> %d)",
				bp.Name, inl.Inline.SitesInlined, ipraRes.Stats.LinkageCycles, inlRes.Stats.LinkageCycles)
		}
	}
	if improved < 6 {
		t.Errorf("inlining improved only %d programs, want >= 6", improved)
	}
	t.Logf("inlining: %d improved, %d regressed", improved, regressed)
}

// TestInlineModeSkewFallback is the statefile-fingerprint bugfix test: a
// state captured without inlining must never serve an inline-mode build
// (and an inline-mode build must never capture state), so flipping the
// flag can only force a full rebuild — not silently reuse non-inlined
// plans.
func TestInlineModeSkewFallback(t *testing.T) {
	b := benchprog.Lookup("stanford")

	res, err := pipeline.BuildIncremental(b.Source, ModeC(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.State == nil {
		t.Fatal("clean non-inlined build captured no state")
	}

	inlMode := ModeC()
	inlMode.Inline = true
	res2, err := pipeline.BuildIncremental(b.Source, inlMode, res.State)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Incremental {
		t.Fatal("non-inlined state was reused for an inline-mode build")
	}
	if !strings.Contains(res2.FallbackReason, "inlin") {
		t.Errorf("fallback reason %q does not mention inlining", res2.FallbackReason)
	}
	if res2.State != nil {
		t.Error("inline-mode build captured state (chunk mapping no longer describes the program)")
	}
	full, err := Compile(b.Source, inlMode)
	if err != nil {
		t.Fatal(err)
	}
	sameProgram(t, "inline mode skew", &Program{Code: res2.Prog}, full)

	// The inline axis must also skew the fingerprint itself, so even a
	// path that only compares fingerprints refuses the crossing.
	res3, err := pipeline.BuildIncremental(b.Source, inlMode, res.State)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Incremental {
		t.Fatal("second inline-mode build went incremental")
	}
}
