package main

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"chow88"
	"chow88/internal/codegen"
	"chow88/internal/front"
	"chow88/internal/inline"
	"chow88/internal/mach"
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
