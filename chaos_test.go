package chow88

import (
	"fmt"
	"testing"

	"chow88/internal/benchprog"
	"chow88/internal/faultinject"
	"chow88/internal/obs"
)

// oracleOutputs interprets every suite program once; the AST interpreter is
// the ground truth every chaos-compiled binary must still match.
func oracleOutputs(t *testing.T) map[string][]int64 {
	t.Helper()
	out := map[string][]int64{}
	for _, b := range benchprog.All() {
		want, err := Interpret(b.Source)
		if err != nil {
			t.Fatalf("interpret %s: %v", b.Name, err)
		}
		out[b.Name] = want
	}
	return out
}

func sameOutput(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestChaosDifferential is the fault-injection differential suite (make
// chaos): for every compile-path injection point and every suite program
// under ModeC, the compile must neither crash nor miscompile — an injected
// fault is either caught by the validator (the procedure degrades and the
// intervention is visible on the CompileReport) or was never eligible to
// fire. The compiled output must match the interpreter oracle either way.
// The service-path points (daemon worker panic, statefile corruption) are
// exercised by internal/daemon's chaos suite.
func TestChaosDifferential(t *testing.T) {
	oracle := oracleOutputs(t)
	firedSomewhere := map[faultinject.Point]bool{}
	for _, pt := range faultinject.CompilePoints() {
		for _, b := range benchprog.All() {
			t.Run(fmt.Sprintf("%s/%s", pt, b.Name), func(t *testing.T) {
				s := obs.Begin(obs.Options{})
				defer obs.End()
				snap := s.Snap()

				plan := &faultinject.Plan{Point: pt}
				faultinject.Arm(plan)
				prog, err := Compile(b.Source, ModeC())
				faultinject.Disarm()
				if err != nil {
					t.Fatalf("chaos compile must degrade, not fail: %v", err)
				}

				if plan.Fired() {
					firedSomewhere[pt] = true
					if len(prog.Demotions) == 0 {
						t.Errorf("fault %s fired in %s but no degradation was recorded", pt, plan.Site())
					}
					found := false
					for _, d := range prog.Demotions {
						if d.Func == plan.Site() {
							found = true
						}
					}
					if !found {
						t.Errorf("fault landed in %s; demotions %v never intervene on it",
							plan.Site(), prog.Demotions)
					}
					rep := s.ReportSince(snap)
					if rep.Counter("check.demotions")+rep.Counter("check.replans") == 0 {
						t.Error("caught fault not visible in the report's demotion counters")
					}
					if rep.Counter("check.faults_injected") == 0 {
						t.Error("fired fault not counted as injected")
					}
				} else if len(prog.Demotions) != 0 {
					t.Errorf("no fault fired but the pipeline degraded: %v", prog.Demotions)
				}

				res, err := prog.Run()
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if !sameOutput(res.Output, oracle[b.Name]) {
					t.Fatalf("chaos output diverged from the interpreter oracle (fault %s in %q)",
						pt, plan.Site())
				}
			})
		}
	}
	for _, pt := range faultinject.CompilePoints() {
		if !firedSomewhere[pt] {
			t.Errorf("injection point %s never found an eligible site in the whole suite", pt)
		}
	}
}

// TestChaosStrict: under Mode.Strict a caught fault is a hard error, not a
// silent repair.
func TestChaosStrict(t *testing.T) {
	b := benchprog.Lookup("stanford")
	plan := &faultinject.Plan{Point: faultinject.PointCorruptSummary}
	faultinject.Arm(plan)
	mode := ModeC()
	mode.Strict = true
	_, err := Compile(b.Source, mode)
	faultinject.Disarm()
	if !plan.Fired() {
		t.Skip("no eligible summary to corrupt")
	}
	if err == nil {
		t.Fatal("strict mode must fail on an injected fault, not degrade")
	}
}

// TestChaosEscalationNoDoubleDemotion audits the degradation ladder's
// second rung: a procedure that fails again AFTER being demoted to the
// open convention must escalate to replan-nosw — never be "demoted" a
// second time (demoting an open procedure is a no-op that would loop the
// repair forever) and never fail the compile. A persistent fault
// (Times=2) makes the victim's save plan lose a site once in the original
// plan and once more in the post-demotion replan, so the validator
// catches the same procedure on two consecutive rounds.
//
// The test runs under mode E (7 callee-saved registers): that pressure is
// what leaves closed procedures with shrink-wrapped local save sites for
// the fault to drop — under the full register file a closed procedure's
// saves all migrate to its ancestors and the point is only eligible on
// open procedures, which the first rung replans without demoting.
func TestChaosEscalationNoDoubleDemotion(t *testing.T) {
	oracle := oracleOutputs(t)

	escalated := false
	for _, b := range benchprog.All() {
		// Candidate victims: closed procedures with a save/restore plan in
		// the clean compile — the procedures PointDropSave is eligible for
		// both before and (if they still save registers as open procs)
		// after demotion.
		clean, err := Compile(b.Source, ModeE())
		if err != nil {
			t.Fatal(err)
		}
		var candidates []string
		for _, f := range clean.Module.Funcs {
			fp := clean.Plan.Funcs[f]
			if fp != nil && !fp.Open && fp.Plan != nil && !fp.Plan.Regs().Empty() {
				candidates = append(candidates, f.Name)
			}
		}

		for _, victim := range candidates {
			plan := &faultinject.Plan{
				Point: faultinject.PointDropSave, Func: victim, Times: 2,
			}
			faultinject.Arm(plan)
			prog, err := Compile(b.Source, ModeE())
			faultinject.Disarm()
			if err != nil {
				t.Fatalf("%s/%s: persistent fault must degrade, not fail: %v",
					b.Name, victim, err)
			}

			var actions []string
			for _, d := range prog.Demotions {
				if d.Func == victim {
					actions = append(actions, d.Action)
				} else {
					t.Errorf("%s/%s: intervention on bystander %s (%s)",
						b.Name, victim, d.Func, d.Action)
				}
			}
			demotes := 0
			for _, a := range actions {
				if a == "demote" {
					demotes++
				}
			}
			if demotes > 1 {
				t.Errorf("%s/%s: procedure demoted twice: %v", b.Name, victim, actions)
			}
			// The full escalation: first round demotes the closed victim,
			// second round finds the demoted (now open) victim failing again
			// and must take the nosw rung. Victims whose open-convention
			// replan has no save sites left absorb only the first firing and
			// stop at ["demote"]; they still prove no-double-demotion above.
			if len(actions) >= 2 {
				if actions[0] != "demote" || actions[1] != "replan-nosw" {
					t.Errorf("%s/%s: ladder took %v, want [demote replan-nosw]",
						b.Name, victim, actions)
				} else {
					escalated = true
				}
			}

			res, err := prog.Run()
			if err != nil {
				t.Fatalf("%s/%s: run: %v", b.Name, victim, err)
			}
			if !sameOutput(res.Output, oracle[b.Name]) {
				t.Fatalf("%s/%s: escalated compile diverged from the interpreter oracle",
					b.Name, victim)
			}
		}
	}
	if !escalated {
		t.Error("no victim in the suite exercised the demote -> replan-nosw escalation")
	}
}

// TestDemotionReplanDeterminism pins an injected fault to one procedure and
// requires the degraded compile to be byte-identical across repeated runs
// and across cold and front-cached compiles: graceful degradation must not
// cost determinism.
func TestDemotionReplanDeterminism(t *testing.T) {
	b := benchprog.Lookup("stanford")

	// Find a deterministic victim: the first closed procedure with a
	// non-empty summary, by module order.
	clean, err := Compile(b.Source, ModeC())
	if err != nil {
		t.Fatal(err)
	}
	victim := ""
	for _, f := range clean.Module.Funcs {
		fp := clean.Plan.Funcs[f]
		if fp != nil && fp.Summary != nil && !fp.Summary.Used.Empty() {
			victim = f.Name
			break
		}
	}
	if victim == "" {
		t.Fatal("no closed procedure to corrupt")
	}

	compileFaulted := func(cold bool) *Program {
		t.Helper()
		faultinject.Arm(&faultinject.Plan{Point: faultinject.PointCorruptSummary, Func: victim})
		mode := ModeC()
		mode.Sequential = cold
		prog, err := Compile(b.Source, mode)
		faultinject.Disarm()
		if err != nil {
			t.Fatalf("faulted compile: %v", err)
		}
		if len(prog.Demotions) == 0 {
			t.Fatalf("expected %s to be degraded", victim)
		}
		return prog
	}

	ref := compileFaulted(false)
	refAsm := ref.Disassemble()
	if again := compileFaulted(false).Disassemble(); again != refAsm {
		t.Error("degraded compile is not deterministic across runs")
	}
	if cold := compileFaulted(true).Disassemble(); cold != refAsm {
		t.Error("degraded compile differs between cold and front-cached compiles")
	}

	// The degraded binary still matches the clean one's behaviour.
	cleanRes, err := clean.Run()
	if err != nil {
		t.Fatal(err)
	}
	degRes, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !sameOutput(cleanRes.Output, degRes.Output) {
		t.Error("degraded binary output diverged from the clean compile")
	}
}
