package chow88

import (
	"reflect"
	"testing"

	"chow88/internal/benchprog"
	"chow88/internal/progen"
	"chow88/internal/sim"
)

// requireEnginesAgree runs a compiled image on the fast engine and the
// reference oracle with the same options and requires them bit-identical
// — Output, Stats, InstrCounts and error text — the fidelity contract
// behind every pixie number the paper's tables report. It returns the
// fast engine's result and error.
func requireEnginesAgree(t *testing.T, label string, prog *Program, opts sim.Options) (*sim.Result, error) {
	t.Helper()
	ref, rerr := sim.RunReference(prog.Code, opts)
	o := opts
	o.Engine = "fast"
	res, err := sim.Run(prog.Code, o)
	switch {
	case (err == nil) != (rerr == nil):
		t.Fatalf("%s: fast vs reference disagree on error:\nfast: %v\nref: %v", label, err, rerr)
	case err != nil && err.Error() != rerr.Error():
		t.Fatalf("%s: fast vs reference disagree on error text:\nfast: %v\nref: %v", label, err, rerr)
	}
	if !reflect.DeepEqual(res.Output, ref.Output) {
		t.Fatalf("%s: fast output diverged\nfast: %v\nref: %v", label, res.Output, ref.Output)
	}
	if res.Stats != ref.Stats {
		t.Fatalf("%s: fast stats diverged from reference:\n%s", label, res.Stats.Diff(&ref.Stats))
	}
	if !reflect.DeepEqual(res.InstrCounts, ref.InstrCounts) {
		t.Fatalf("%s: fast instruction counts diverged", label)
	}
	return res, err
}

// TestEnginesBitIdenticalOnSuite runs every suite program under all six
// measurement modes on the predecoded engine, the reference interpreter
// and (for output) the AST interpreter, asserting exact agreement.
func TestEnginesBitIdenticalOnSuite(t *testing.T) {
	progs := benchprog.All()
	if testing.Short() {
		progs = progs[:4]
	}
	for _, bp := range progs {
		want, err := Interpret(bp.Source)
		if err != nil {
			t.Fatalf("%s: interp: %v", bp.Name, err)
		}
		for _, mode := range allModes() {
			label := bp.Name + "/" + mode.Name
			prog, err := Compile(bp.Source, mode)
			if err != nil {
				t.Fatalf("%s: compile: %v", label, err)
			}
			res, err := requireEnginesAgree(t, label, prog, sim.Options{Profile: true})
			if err != nil {
				t.Fatalf("%s: run: %v", label, err)
			}
			if !reflect.DeepEqual(res.Output, want) {
				t.Fatalf("%s: output != interpreter\n got: %v\nwant: %v", label, res.Output, want)
			}
		}
	}
}

// TestEnginesRandomPrograms sweeps randomized programs through both
// engines. Errors (budget exhaustion, traps) must match exactly too, so
// the sweep exercises the fast engine's precise trap paths as well as its
// happy path.
func TestEnginesRandomPrograms(t *testing.T) {
	seeds := 80
	if testing.Short() {
		seeds = 15
	}
	modes := []Mode{ModeBase(), ModeC()}
	for seed := 0; seed < seeds; seed++ {
		src := progen.Generate(int64(seed), progen.DefaultConfig())
		for _, mode := range modes {
			prog, err := Compile(src, mode)
			if err != nil {
				t.Fatalf("seed %d [%s]: compile: %v\n%s", seed, mode.Name, err, src)
			}
			label := mode.Name
			requireEnginesAgree(t, label, prog, sim.Options{Profile: true, MaxInstrs: 2_000_000})
		}
	}
}
