package chow88

// Tests for the decision-provenance explain layer: journal determinism
// across cold and front-cached compiles, the golden journals for
// nim under modes B and C, the suite-wide cause invariants, output
// neutrality (an active journal must not perturb generated code), and the
// explaindiff attribution bar.
//
// The journal is one process-global pointer, so none of these tests use
// t.Parallel — each installs a fresh journal per compile and uninstalls it
// before asserting.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"chow88/internal/benchprog"
	"chow88/internal/explain"
	"chow88/internal/faultinject"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden explain journals")

// journalFor compiles src under mode with a fresh journal and returns the
// artifact (and the program, for tests that need both).
func journalFor(t *testing.T, src string, mode Mode) (*explain.Artifact, *Program) {
	t.Helper()
	explain.Begin()
	defer explain.End()
	prog, err := Compile(src, mode)
	if err != nil {
		t.Fatalf("compile %s: %v", mode.Name, err)
	}
	return explain.Current().Artifact(), prog
}

// TestExplainDeterminism is the journal's contract: for every suite
// program under every measurement mode, the journal of a compile from the
// front cache is byte-identical to a cold compile's (mode.Sequential
// bypasses the cache). Decisions carry no timestamps, every set iterated
// while recording has a fixed order, and the artifact serializes in module
// order — so the JSON forms must match exactly.
func TestExplainDeterminism(t *testing.T) {
	for _, p := range benchprog.All() {
		for _, mode := range allModes() {
			t.Run(fmt.Sprintf("%s/%s", p.Name, mode.Name), func(t *testing.T) {
				coldMode := mode
				coldMode.Sequential = true
				coldArt, _ := journalFor(t, p.Source, coldMode)
				cachedArt, _ := journalFor(t, p.Source, mode)
				cold, err := json.Marshal(coldArt)
				if err != nil {
					t.Fatal(err)
				}
				cached, err := json.Marshal(cachedArt)
				if err != nil {
					t.Fatal(err)
				}
				if string(cold) != string(cached) {
					t.Errorf("cached compile's journal diverges from the cold compile's\n%s", firstDiff(string(cold), string(cached)))
				}
			})
		}
	}
}

// TestExplainGolden pins the nim journal under modes B and C. Run with
// -update after an intentional decision change to refresh the goldens.
func TestExplainGolden(t *testing.T) {
	src, err := os.ReadFile("testdata/nim.cw")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mode   Mode
		golden string
	}{
		{ModeB(), "testdata/nim.explain.b.golden"},
		{ModeC(), "testdata/nim.explain.c.golden"},
	} {
		t.Run(filepath.Base(c.golden), func(t *testing.T) {
			art, _ := journalFor(t, string(src), c.mode)
			got := art.Narrative("")
			if *updateGolden {
				if err := os.WriteFile(c.golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(c.golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if got != string(want) {
				t.Errorf("journal narrative drifted from %s (run with -update if intended)\n%s",
					c.golden, firstDiff(string(want), got))
			}
		})
	}
}

// TestExplainInvariants sweeps the whole suite under mode C and checks the
// journal's completeness contract: every save/restore site in the final
// plan has a matching placement record, and every recorded decision
// carries a cause where one is defined.
func TestExplainInvariants(t *testing.T) {
	for _, p := range benchprog.All() {
		t.Run(p.Name, func(t *testing.T) {
			art, prog := journalFor(t, p.Source, ModeC())
			for f, fp := range prog.Plan.Funcs {
				pj := art.Proc(f.Name)
				find := func(kind, reg, block string) bool {
					if pj == nil {
						return false
					}
					for _, d := range pj.Decisions {
						if d.Kind == kind && d.Reg == reg && d.Block == block {
							return true
						}
					}
					return false
				}
				for _, r := range fp.Plan.Regs().Regs() {
					for _, b := range fp.Plan.SaveAt[r] {
						if !find(explain.KindSave, r.String(), b.Name) {
							t.Errorf("%s: plan saves %s at %s but the journal has no record", f.Name, r, b.Name)
						}
					}
					for _, b := range fp.Plan.RestoreAt[r] {
						if !find(explain.KindRestore, r.String(), b.Name) {
							t.Errorf("%s: plan restores %s at %s but the journal has no record", f.Name, r, b.Name)
						}
					}
				}
				// Every procedure has a classification verdict with a cause.
				found := false
				if pj != nil {
					for _, d := range pj.Decisions {
						if d.Kind == explain.KindClassify {
							found = true
							if d.Cause == "" {
								t.Errorf("%s: classification without a cause", f.Name)
							}
						}
					}
				}
				if !found {
					t.Errorf("%s: no classification recorded", f.Name)
				}
			}
			// Placement records always carry a cause enum.
			for _, pj := range art.Procs {
				for _, d := range pj.Decisions {
					if (d.Kind == explain.KindSave || d.Kind == explain.KindRestore) && d.Cause == "" {
						t.Errorf("%s: %s of %s at %s has no cause", pj.Func, d.Kind, d.Reg, d.Block)
					}
				}
			}
		})
	}
}

// TestExplainRecordsDemotions forces a validation failure with fault
// injection and requires the degradation ladder's interventions to appear
// in the journal with their phase and reason.
func TestExplainRecordsDemotions(t *testing.T) {
	for _, p := range benchprog.All() {
		explain.Begin()
		plan := &faultinject.Plan{Point: faultinject.PointDropSave}
		faultinject.Arm(plan)
		prog, err := Compile(p.Source, ModeC())
		faultinject.Disarm()
		art := explain.End().Artifact()
		if err != nil {
			t.Fatalf("%s: chaos compile must degrade, not fail: %v", p.Name, err)
		}
		if !plan.Fired() {
			continue
		}
		if len(prog.Demotions) == 0 {
			t.Fatalf("%s: fault fired but nothing degraded", p.Name)
		}
		demotes := 0
		for _, pj := range art.Procs {
			for _, d := range pj.Decisions {
				if d.Kind == explain.KindDemote {
					demotes++
					if d.Cause == "" || d.Detail == "" {
						t.Errorf("%s: demotion record lacks cause/detail: %+v", pj.Func, d)
					}
				}
			}
		}
		if demotes < len(prog.Demotions) {
			t.Errorf("%s: %d demotions on the report but only %d demote records in the journal",
				p.Name, len(prog.Demotions), demotes)
		}
		return // one fired fault is enough
	}
	t.Skip("PointDropSave never found an eligible site")
}

// TestExplainRecordsInlineVerdicts compiles the suite with inlining and
// requires every refused-for-budget site to be visible in the journal.
func TestExplainRecordsInlineVerdicts(t *testing.T) {
	mode := ModeC()
	mode.Inline = true
	mode.InlineBudget = 10 // tight budget so refusals happen
	sawRefusal := false
	for _, p := range benchprog.All() {
		explain.Begin()
		prog, err := CompileProfiled(p.Source, mode)
		art := explain.End().Artifact()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if prog.Inline == nil {
			continue
		}
		accepts, refusals := 0, 0
		for _, d := range art.Decisions() {
			switch d.Kind {
			case explain.KindInline:
				accepts++
			case explain.KindInlineRefuse:
				refusals++
				if d.Cause != "budget" || d.Detail == "" {
					t.Errorf("%s: refusal record lacks cause/detail: %+v", p.Name, d)
				}
			}
		}
		if accepts != prog.Inline.SitesInlined {
			t.Errorf("%s: %d sites inlined but %d accept records", p.Name, prog.Inline.SitesInlined, accepts)
		}
		if prog.Inline.BudgetStopped > 0 && refusals == 0 {
			t.Errorf("%s: %d sites budget-stopped but no refusal records", p.Name, prog.Inline.BudgetStopped)
		}
		if refusals > 0 {
			sawRefusal = true
		}
	}
	if !sawRefusal {
		t.Error("tight budget never produced a recorded refusal anywhere in the suite")
	}
}

// TestExplainOutputNeutral: an active journal must not change the code the
// compiler generates — observation only.
func TestExplainOutputNeutral(t *testing.T) {
	for _, p := range benchprog.All() {
		explain.End()
		off, err := Compile(p.Source, ModeC())
		if err != nil {
			t.Fatal(err)
		}
		explain.Begin()
		on, err := Compile(p.Source, ModeC())
		explain.End()
		if err != nil {
			t.Fatal(err)
		}
		if off.Disassemble() != on.Disassemble() {
			t.Errorf("%s: journal-on compile differs from journal-off", p.Name)
		}
	}
}

// TestExplainDiffAttribution is the acceptance bar for explaindiff: with
// measured block frequencies (profile feedback), diffing the mode B and
// mode C journals of a suite program must attribute at least 90%% of the
// measured save/restore cycle delta. nim is used because shrink-wrapping
// moves real traffic there.
func TestExplainDiffAttribution(t *testing.T) {
	src, err := os.ReadFile("testdata/nim.cw")
	if err != nil {
		t.Fatal(err)
	}
	measure := func(mode Mode) (*explain.Artifact, int64) {
		t.Helper()
		explain.Begin()
		prog, err := CompileProfiled(string(src), mode)
		art := explain.End().Artifact()
		if err != nil {
			t.Fatalf("compile %s: %v", mode.Name, err)
		}
		res, err := prog.Run()
		if err != nil {
			t.Fatalf("run %s: %v", mode.Name, err)
		}
		return art, res.Stats.SaveRestoreLS()
	}
	artB, lsB := measure(ModeB())
	artC, lsC := measure(ModeC())
	measured := float64(lsC - lsB)
	if measured == 0 {
		t.Fatal("shrink-wrapping moved no save/restore traffic on nim; pick a different program")
	}
	d := explain.DiffArtifacts(artB, artC)
	if att := d.Attribution(measured); att < 90 {
		t.Errorf("explaindiff attributes %.1f%% of the %v-cycle save/restore delta, want >= 90%%\n%s",
			att, measured, d.Format("B", "C", measured, true))
	}
}
