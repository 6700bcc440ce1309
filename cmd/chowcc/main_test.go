package main

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"chow88"
	"chow88/internal/benchprog"
	"chow88/internal/codegen"
	"chow88/internal/front"
	"chow88/internal/inline"
	"chow88/internal/mach"
	"chow88/internal/mcode"
	"chow88/internal/pipeline"
	"chow88/internal/sim"
)

// TestClassify pins chowcc's exit codes to the shared error classifier
// (chow88.ClassifyError, also the daemon's HTTP mapping source).
func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		code int
	}{
		{&front.StageError{Stage: "parse", Err: errors.New("x")}, chow88.ExitParse},
		{&front.StageError{Stage: "sema", Err: errors.New("x")}, chow88.ExitSema},
		{&front.StageError{Stage: "lower", Err: errors.New("x")}, chow88.ExitInternal},
		{&front.StageError{Stage: "parse", Recovered: true, Err: errors.New("x")}, chow88.ExitInternal},
		{&pipeline.ValidationError{Phase: "validate"}, chow88.ExitValidate},
		{&codegen.FuncError{Func: "f", Err: errors.New("x")}, chow88.ExitCodegen},
		{&sim.Trap{Msg: "x", PC: 1}, chow88.ExitTrap},
		{fmt.Errorf("pc 3: %w", sim.ErrLimit), chow88.ExitBudget},
		{fmt.Errorf("pc 3: %w", sim.ErrDeadline), chow88.ExitDeadline},
		{fmt.Errorf("%w: %w", pipeline.ErrCanceled, context.DeadlineExceeded), chow88.ExitDeadline},
		{sim.ValidateEngine("turbo"), chow88.ExitBadEngine},
		{sim.ValidateEngine("native"), chow88.ExitBadEngine},
		{badBudgetErr("bogus"), chow88.ExitBadBudget},
		{badBudgetErr("0"), chow88.ExitBadBudget},
		{badBudgetErr("-3"), chow88.ExitBadBudget},
		{badConvErr("caller=t0;callee=t0"), chow88.ExitBadConv},
		{badConvErr("caller=ra"), chow88.ExitBadConv},
		{badConvErr("nonsense"), chow88.ExitBadConv},
		{errors.New("anything else"), chow88.ExitInternal},
		// Wrapped variants classify the same way.
		{fmt.Errorf("outer: %w", &front.StageError{Stage: "parse", Err: errors.New("x")}), chow88.ExitParse},
	}
	for _, c := range cases {
		if code, _ := chow88.ClassifyError(c.err); code != c.code {
			t.Errorf("ClassifyError(%v) = %d, want %d", c.err, code, c.code)
		}
	}
}

// badBudgetErr produces the error a bad -inline=budget value yields.
func badBudgetErr(s string) error {
	_, err := inline.ParseBudget(s)
	return err
}

// badConvErr produces the error a bad -conv=spec value yields.
func badConvErr(s string) error {
	_, err := mach.ParseConvention(s)
	return err
}

func TestInlineFlag(t *testing.T) {
	cases := []struct {
		in  string
		set bool
		raw string
	}{
		{"true", true, "true"}, // bare -inline
		{"75", true, "75"},
		{"false", false, ""}, // -inline=false disables
	}
	for _, c := range cases {
		var v inlineFlag
		if err := v.Set(c.in); err != nil {
			t.Fatalf("Set(%q): %v", c.in, err)
		}
		if v.set != c.set || v.raw != c.raw {
			t.Errorf("Set(%q) = {set:%v raw:%q}, want {set:%v raw:%q}", c.in, v.set, v.raw, c.set, c.raw)
		}
	}
	if !(&inlineFlag{}).IsBoolFlag() {
		t.Error("inlineFlag must be bool-like so bare -inline parses")
	}
}

// TestCompareModes checks every -compare row against chow88.Compile and
// Run of the same suite program under that row's mode, in the mode order
// base, A–E.
func TestCompareModes(t *testing.T) {
	src := benchprog.Lookup("dhrystone").Source
	var out strings.Builder
	if err := compareModes(&out, []string{src}); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	modes := []chow88.Mode{chow88.ModeBase(), chow88.ModeA(), chow88.ModeB(), chow88.ModeC(), chow88.ModeD(), chow88.ModeE()}
	if len(rows) != 1+len(modes) {
		t.Fatalf("got %d lines, want a header and %d rows:\n%s", len(rows), len(modes), out.String())
	}
	for i, m := range modes {
		prog, err := chow88.Compile(src, m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prog.Run()
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		agg := st.LoadsByClass[mcode.ClassAggregate] + st.StoresByClass[mcode.ClassAggregate]
		want := []string{m.Name, fmt.Sprint(st.Cycles), fmt.Sprint(st.ScalarLS()), fmt.Sprint(st.SaveRestoreLS()), fmt.Sprint(agg), fmt.Sprint(st.Calls)}
		if got := strings.Fields(rows[1+i]); !reflect.DeepEqual(got, want) {
			t.Errorf("row %d = %q, want %q", 1+i, got, want)
		}
	}
}
