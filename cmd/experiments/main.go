// Command experiments regenerates the paper's evaluation: Table 1,
// Table 2, the Figure 1–4 demonstrations, and the extensions (profile
// feedback, inlining, the calling-convention sweep and per-program tuner).
//
// Usage:
//
//	experiments [-table1] [-table2] [-fig1] [-fig2] [-fig3] [-fig4]
//	            [-height] [-profile] [-inline] [-sweep] [-tune] [-all]
//	            [-sample n] [-gen n] [-conv spec]...
//
// The sweep and the tuner explore the calling-convention design space the
// paper fixes by fiat: candidate partitions of the 20 allocatable registers
// into caller-saved and callee-saved classes (with 0–6 parameter registers).
// -sample bounds the candidates to a deterministic spread of the full
// enumeration (0 takes all of it; unset, the sweep samples 24 and the tuner
// 16); -conv (repeatable) adds explicit specs such as
// "caller=v1,t0-t9;callee=a0-a3,s0-s8;params=a0-a3"; -gen sets the
// synthetic programs the sweep adds to the 13-program suite.
//
// Failures exit with chowcc's classified codes: a malformed or incoherent
// -conv spec exits with the bad-convention code (12).
package main

import (
	"flag"
	"fmt"
	"os"

	"chow88"
	"chow88/internal/experiments"
	"chow88/internal/mach"
	"chow88/internal/obs"
)

func main() {
	t1 := flag.Bool("table1", false, "reproduce Table 1 (shrink-wrap and IPRA effects)")
	t2 := flag.Bool("table2", false, "reproduce Table 2 (7 caller-saved vs 7 callee-saved)")
	f1 := flag.Bool("fig1", false, "demonstrate Figure 1 (call-tree register reuse)")
	f2 := flag.Bool("fig2", false, "demonstrate Figure 2 (save placement vs CFG form)")
	f3 := flag.Bool("fig3", false, "demonstrate Figure 3 (per-path shrink-wrap effect)")
	f4 := flag.Bool("fig4", false, "demonstrate Figure 4 (save placement vs call frequency)")
	height := flag.Bool("height", false, "run the call-graph-height ablation (D vs E crossover)")
	profile := flag.Bool("profile", false, "measure profile feedback vs static frequency estimates")
	inl := flag.Bool("inline", false, "measure profile-guided inlining vs IPRA with pixie attribution")
	sweep := flag.Bool("sweep", false, "sweep calling conventions over the suite plus synthetic programs")
	tune := flag.Bool("tune", false, "profile-guided per-program convention selection")
	sample := flag.Int("sample", -1, "candidate conventions sampled from the enumeration (0 = all; unset = 24 for -sweep, 16 for -tune)")
	gen := flag.Int("gen", 4, "synthetic progen programs added to the -sweep workload")
	// -conv repeats rather than taking a list: specs contain commas. Specs
	// are parsed after flag.Parse so a bad one exits with the
	// bad-convention code, not the flag package's usage code.
	var conv []string
	flag.Func("conv", "convention spec added to the -sweep and -tune candidates (repeatable)", func(s string) error {
		conv = append(conv, s)
		return nil
	})
	all := flag.Bool("all", false, "run everything")
	stats := flag.Bool("stats", false, "collect and print per-measurement compile/run metrics")
	flag.Parse()

	fail := func(err error) {
		code, _ := chow88.ClassifyError(err)
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(code)
	}
	var extra []*mach.Config
	for _, s := range conv {
		c, err := mach.ParseConvention(s)
		if err != nil {
			fail(err)
		}
		extra = append(extra, c)
	}
	// candidates is the sampled enumeration plus the -conv specs; def is
	// the sample size when -sample is unset.
	candidates := func(def int) []*mach.Config {
		if *sample >= 0 {
			def = *sample
		}
		return append(experiments.SampleConventions(def), extra...)
	}

	if !(*t1 || *t2 || *f1 || *f2 || *f3 || *f4 || *height || *profile || *inl || *sweep || *tune) {
		*all = true
	}
	if *stats {
		obs.Begin(obs.Options{})
	}
	if *all || *t1 {
		rows, err := experiments.Table1()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatTable(
			"Table 1. Effects of applying the techniques on the 13-program suite",
			rows, experiments.Keys1))
		fmt.Println("Key: A = -O2 + shrink-wrap; B = -O3; C = -O3 + shrink-wrap")
		fmt.Println()
		if s := experiments.FormatObs("Table 1 compile/run metrics", rows, experiments.Keys1); s != "" {
			fmt.Println(s)
		}
	}
	if *all || *t2 {
		rows, err := experiments.Table2()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatTable(
			"Table 2. Effects of the two register classes (mode C, 7 registers)",
			rows, experiments.Keys2))
		fmt.Println("Key: D = 7 caller-saved only; E = 7 callee-saved only")
		fmt.Println()
		if s := experiments.FormatObs("Table 2 compile/run metrics", rows, experiments.Keys2); s != "" {
			fmt.Println(s)
		}
	}
	type figFn struct {
		on bool
		fn func() (string, error)
	}
	for _, fg := range []figFn{
		{*all || *f1, experiments.Fig1},
		{*all || *f2, experiments.Fig2},
		{*all || *f3, experiments.Fig3},
		{*all || *f4, experiments.Fig4},
		{*all || *height, experiments.HeightSweep},
		{*all || *profile, experiments.ProfileFeedback},
		{*all || *inl, experiments.InlineVsIPRA},
		{*all || *sweep, func() (string, error) {
			wl, err := experiments.SweepWorkload(*gen)
			if err != nil {
				return "", err
			}
			rep, err := experiments.Sweep(candidates(24), wl, 0)
			if err != nil {
				return "", err
			}
			return experiments.FormatSweep(rep), nil
		}},
		{*all || *tune, func() (string, error) {
			rows, err := experiments.Tune(candidates(16), 0)
			if err != nil {
				return "", err
			}
			return experiments.FormatTune(rows), nil
		}},
	} {
		if !fg.on {
			continue
		}
		s, err := fg.fn()
		if err != nil {
			fail(err)
		}
		fmt.Println(s)
	}
}
