// Command chowcc compiles a CW source file, mirroring the paper's compiler
// driver: -O2 selects intra-procedural priority-based coloring, -O3 adds
// one-pass inter-procedural allocation, and -shrinkwrap toggles optimized
// save/restore placement. The result can be disassembled, executed, or
// inspected (call graph, allocation plan, per-function summaries), or run
// under all six measurement modes side by side (-compare).
//
// Usage:
//
//	chowcc [flags] file.cw
//
// Flags:
//
//	-O2 / -O3        optimization level (default -O2)
//	-shrinkwrap      enable shrink-wrapping (default true, as under -O2/-O3)
//	-regs full|caller7|callee7
//	-conv=<spec>     compile under an explicit register convention, e.g.
//	                 "caller=v1,a0-a3,t0-t9;callee=s0-s8;params=a0-a3"
//	                 (overrides -regs; incoherent specs are rejected with
//	                 their named reason and exit code 12)
//	-run             execute and print the program output and trace stats
//	-compare         compile and run under all six measurement modes (base,
//	                 A–E; the mode flags are ignored) and print one row of
//	                 trace stats per mode: cycles, scalar loads+stores,
//	                 save/restore, aggregate traffic and calls
//	-engine=fast     simulator engine for -run: fast (predecoded block
//	                 dispatch, the default) or reference (per-instruction
//	                 oracle); unknown names are rejected with exit code 10
//	-timeout=10s     wall-clock limit for -run (0 = none)
//	-S               print the disassembly
//	-ir              print the optimized IR
//	-plan            print the call graph, open/closed classification and
//	                 register summaries
//	-explain[=proc]  print the decision-provenance journal: every allocation
//	                 decision (classification, spills, §6 wrap choices,
//	                 linkage negotiation, save/restore placements, inlining
//	                 verdicts) with its cause; optionally filtered to one
//	                 procedure. With -json the journal attaches to the
//	                 compile report instead (field "Explain")
//	-open f,g        force the named procedures open (separate compilation)
//	-pgo             profile-guided build: a baseline training run attaches
//	                 measured block frequencies before the final compile
//	-inline[=budget] profile-guided procedure integration (implies -pgo);
//	                 budget is the code-growth allowance in percent of the
//	                 pre-inlining instruction count (default 50)
//	-incremental=f.state
//	                 reuse the previous build recorded in the statefile; only
//	                 the edit's summary-delta frontier is recompiled, and the
//	                 statefile is rewritten for the next run (created if
//	                 missing; corruption or mode changes fall back to a full
//	                 recompile)
//	-strict          fail on linkage-invariant violations instead of degrading
//	-validate=false  disable the linkage-invariant validator
//	-stats           print compile and run metrics tables on stderr
//	-trace=out.json  write a Chrome trace_event file (open in Perfetto)
//	-json            emit the run result as a JSON document on stdout
//
// Exit codes (each failure class is distinct, so scripts and the fuzz
// harness can triage without parsing messages):
//
//	0  success
//	1  internal error (lower/opt failure, recovered panic, I/O)
//	2  usage error
//	3  parse error
//	4  semantic error
//	5  linkage-invariant violation (compiling under -strict)
//	6  code-generation failure
//	7  machine trap at run time
//	8  instruction budget exceeded
//	9  wall-clock deadline exceeded (-timeout)
//	10 unknown -engine name
//	11 invalid -inline budget
//	12 invalid register convention (-conv)
//
// Every failure prints exactly one structured diagnostic line on stderr:
// "chowcc: <class>: <detail>".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"chow88"
	"chow88/internal/core"
	"chow88/internal/explain"
	"chow88/internal/inline"
	"chow88/internal/ir"
	"chow88/internal/mach"
	"chow88/internal/mcode"
	"chow88/internal/obs"
	"chow88/internal/pixie"
	"chow88/internal/sim"
)

// Exit codes, one per failure class (shared with the error classifier the
// chowd daemon maps onto HTTP statuses).
const (
	exitUsage = chow88.ExitUsage
)

// inlineFlag is the -inline[=budget] value: bool-like (bare -inline works)
// but also accepting a percentage (-inline=75). The raw text is validated
// after flag parsing with inline.ParseBudget so a bad budget is classified
// with its own exit code rather than flag package's generic usage error.
type inlineFlag struct {
	set bool
	raw string
}

func (v *inlineFlag) String() string   { return v.raw }
func (v *inlineFlag) IsBoolFlag() bool { return true }
func (v *inlineFlag) Set(s string) error {
	if s == "false" {
		v.set = false
		v.raw = ""
		return nil
	}
	v.set = true
	v.raw = s
	return nil
}

// explainFlag is the -explain[=proc] value: bool-like (bare -explain prints
// the whole journal) but also accepting a procedure name to filter to.
type explainFlag struct {
	set  bool
	proc string
}

func (v *explainFlag) String() string   { return v.proc }
func (v *explainFlag) IsBoolFlag() bool { return true }
func (v *explainFlag) Set(s string) error {
	if s == "false" {
		v.set = false
		v.proc = ""
		return nil
	}
	v.set = true
	if s != "true" {
		v.proc = s
	}
	return nil
}

func main() {
	o3 := flag.Bool("O3", false, "enable inter-procedural register allocation")
	o2 := flag.Bool("O2", true, "baseline global optimization (always on)")
	sw := flag.Bool("shrinkwrap", true, "enable shrink-wrapping of callee-saved saves/restores")
	regs := flag.String("regs", "full", "register configuration: full, caller7, callee7")
	conv := flag.String("conv", "", "explicit register convention spec (overrides -regs), e.g. caller=v1,a0-a3,t0-t9;callee=s0-s8;params=a0-a3")
	doRun := flag.Bool("run", false, "execute the program on the simulator")
	compare := flag.Bool("compare", false, "run under all six measurement modes and print their stats side by side")
	engine := flag.String("engine", "", "simulator engine for -run: fast (default), reference")
	doAsm := flag.Bool("S", false, "print disassembly")
	doIR := flag.Bool("ir", false, "print optimized IR")
	doPlan := flag.Bool("plan", false, "print call graph and allocation plan")
	openList := flag.String("open", "", "comma-separated procedures to force open")
	pgo := flag.Bool("pgo", false, "profile-guided build (baseline training run attaches block frequencies)")
	var inlineOpt inlineFlag
	flag.Var(&inlineOpt, "inline", "profile-guided inlining, optionally with a code-growth budget percent (implies -pgo)")
	var explainOpt explainFlag
	flag.Var(&explainOpt, "explain", "print the decision-provenance journal, optionally filtered to one procedure")
	incrPath := flag.String("incremental", "", "statefile enabling incremental recompilation (created if missing)")
	strict := flag.Bool("strict", false, "fail on linkage-invariant violations instead of degrading")
	validate := flag.Bool("validate", true, "run the linkage-invariant validator after planning and codegen")
	timeout := flag.Duration("timeout", 0, "wall-clock limit for -run (0 = none)")
	stats := flag.Bool("stats", false, "print compile and run metrics tables on stderr")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON file to the given path")
	jsonOut := flag.Bool("json", false, "emit the run result as JSON on stdout (implies -run)")
	flag.Parse()

	if *stats || *jsonOut || *traceOut != "" {
		obs.Begin(obs.Options{Trace: *traceOut != ""})
	}
	if explainOpt.set {
		explain.Begin()
	}

	if err := sim.ValidateEngine(*engine); err != nil {
		fatal(err)
	}

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: chowcc [flags] file.cw [more.cw ...]")
		flag.Usage()
		os.Exit(2)
	}
	// Multiple files are separate program units linked together (§7 of the
	// paper); extern declarations resolve against the other units.
	var units []string
	for _, name := range flag.Args() {
		b, err := os.ReadFile(name)
		if err != nil {
			fatal(err)
		}
		units = append(units, string(b))
	}
	if *compare {
		if err := compareModes(os.Stdout, units); err != nil {
			fatal(err)
		}
		return
	}

	mode := core.ModeBase()
	if *o3 {
		mode = core.ModeC()
	}
	_ = *o2
	mode.ShrinkWrap = *sw
	regsName := *regs
	switch *regs {
	case "full":
	case "caller7":
		mode.Config = mach.CallerOnly7()
	case "callee7":
		mode.Config = mach.CalleeOnly7()
	default:
		fatal(fmt.Errorf("unknown register configuration %q", *regs))
	}
	if *conv != "" {
		cfg, err := mach.ParseConvention(*conv)
		if err != nil {
			fatal(err)
		}
		mode.Config = cfg
		regsName = cfg.Name
	}
	if *openList != "" {
		mode.ForceOpen = strings.Split(*openList, ",")
	}
	mode.Validate = *validate
	mode.Strict = *strict
	mode.Name = fmt.Sprintf("O%d sw=%v regs=%s", map[bool]int{false: 2, true: 3}[*o3], *sw, regsName)
	if inlineOpt.set {
		budget, err := inline.ParseBudget(inlineOpt.raw)
		if err != nil {
			fatal(err)
		}
		mode.Inline = true
		mode.InlineBudget = budget
		mode.Name += fmt.Sprintf(" inline=%d", budget)
	}
	usePGO := *pgo || inlineOpt.set
	if usePGO && *incrPath != "" {
		fmt.Fprintln(os.Stderr, "chowcc: usage error: -pgo/-inline cannot be combined with -incremental")
		os.Exit(exitUsage)
	}

	var prog *chow88.Program
	var err error
	switch {
	case *incrPath != "":
		prog, err = chow88.CompileUnitsIncremental(mode, *incrPath, units...)
	case usePGO:
		prog, err = chow88.CompileUnitsProfiled(mode, units...)
	default:
		prog, err = chow88.CompileUnits(mode, units...)
	}
	if err != nil {
		fatal(err)
	}
	if usePGO {
		fmt.Fprintln(os.Stderr, "chowcc: pgo: measured block frequencies attached from training run")
	}
	if prog.Inline != nil {
		fmt.Fprintf(os.Stderr, "chowcc: %s\n", prog.Inline)
	} else if inlineOpt.set {
		fmt.Fprintln(os.Stderr, "chowcc: inline: discarded (integrated build failed validation)")
	}

	if *doIR {
		fmt.Print(ir.ModuleString(prog.Module))
	}
	if *doPlan {
		printPlan(prog.Plan)
	}
	if *doAsm {
		fmt.Print(prog.Disassemble())
	}
	if explainOpt.set && !*jsonOut {
		fmt.Print(explain.Current().Artifact().Narrative(explainOpt.proc))
	}
	var res *chow88.RunResult
	if *doRun || *jsonOut || !(*doIR || *doPlan || *doAsm || explainOpt.set) {
		res, err = prog.RunWith(chow88.RunOptions{Deadline: *timeout, Engine: *engine})
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			writeJSON(mode.Name, prog, res)
		} else {
			pixie.PrintRun(os.Stdout, os.Stderr, mode.Name, res.Output, &res.Stats)
		}
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "\n%s", prog.Report.Table())
		if res != nil && res.Report != nil {
			fmt.Fprintf(os.Stderr, "\n%s", res.Report.Table())
		}
	}
	if *traceOut != "" {
		writeTrace(*traceOut)
	}
}

// compareModes compiles and runs the linked units under each of the six
// measurement modes, printing one row of trace statistics per mode.
func compareModes(w io.Writer, units []string) error {
	fmt.Fprintf(w, "%-14s %12s %10s %10s %10s %8s\n",
		"mode", "cycles", "scalar l+s", "save/rest", "aggregate", "calls")
	for _, m := range []chow88.Mode{
		chow88.ModeBase(), chow88.ModeA(), chow88.ModeB(),
		chow88.ModeC(), chow88.ModeD(), chow88.ModeE(),
	} {
		prog, err := chow88.CompileUnits(m, units...)
		if err != nil {
			return fmt.Errorf("[%s] %w", m.Name, err)
		}
		res, err := prog.Run()
		if err != nil {
			return fmt.Errorf("[%s] %w", m.Name, err)
		}
		st := res.Stats
		agg := st.LoadsByClass[mcode.ClassAggregate] + st.StoresByClass[mcode.ClassAggregate]
		fmt.Fprintf(w, "%-14s %12d %10d %10d %10d %8d\n",
			m.Name, st.Cycles, st.ScalarLS(), st.SaveRestoreLS(), agg, st.Calls)
	}
	return nil
}

// writeJSON emits the whole run — mode, program output, trace stats and the
// observability reports — as one machine-readable document.
func writeJSON(mode string, prog *chow88.Program, res *chow88.RunResult) {
	doc := struct {
		Mode           string
		Output         []int64
		Stats          chow88.Stats
		Engine         string
		FallbackReason string             `json:",omitempty"`
		Compile        *obs.CompileReport `json:",omitempty"`
		Run            *obs.RunReport     `json:",omitempty"`
	}{mode, res.Output, res.Stats, res.Engine, res.FallbackReason, prog.Report, res.Report}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}
}

func writeTrace(path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := obs.End().WriteTrace(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func printPlan(pp *core.ProgramPlan) {
	fmt.Printf("processing order (depth-first, bottom-up):")
	for _, f := range pp.Order {
		fmt.Printf(" %s", f.Name)
	}
	fmt.Println()
	var names []string
	for f := range pp.Funcs {
		names = append(names, f.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := pp.Module.Lookup(name)
		fp := pp.Funcs[f]
		state := "closed"
		if fp.Open {
			state = "OPEN (" + fp.OpenReason + ")"
		}
		fmt.Printf("\n%s: %s\n", name, state)
		fmt.Printf("  registers used: %s (tree: %s)\n", fp.Alloc.UsedRegs, fp.TreeUsed)
		fmt.Printf("  spilled ranges: %d\n", fp.Alloc.Spilled)
		if fp.Summary != nil {
			fmt.Printf("  summary: %s\n", fp.Summary)
		}
		if !fp.Plan.Regs().Empty() {
			for _, r := range fp.Plan.Regs().Regs() {
				var saves, restores []string
				for _, b := range fp.Plan.SaveAt[r] {
					saves = append(saves, b.Name)
				}
				for _, b := range fp.Plan.RestoreAt[r] {
					restores = append(restores, b.Name)
				}
				fmt.Printf("  %s saved at {%s}, restored at {%s}\n",
					r, strings.Join(saves, ","), strings.Join(restores, ","))
			}
		}
	}
}

// fatal prints the structured one-line diagnostic for err and exits with
// its class's code (chow88.ClassifyError, shared with the chowd daemon's
// HTTP error mapping).
func fatal(err error) {
	code, label := chow88.ClassifyError(err)
	fmt.Fprintf(os.Stderr, "chowcc: %s: %v\n", label, err)
	os.Exit(code)
}
