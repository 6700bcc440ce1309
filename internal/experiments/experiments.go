// Package experiments regenerates the paper's evaluation artifacts: Table 1
// (the effect of shrink-wrapping and inter-procedural allocation on cycles
// and scalar loads/stores across the 13-program suite), Table 2 (7
// caller-saved vs 7 callee-saved registers), and executable demonstrations
// of Figures 1–4.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"chow88/internal/benchprog"
	"chow88/internal/core"
	"chow88/internal/front"
	"chow88/internal/ir"
	"chow88/internal/obs"
	"chow88/internal/pipeline"
	"chow88/internal/pixie"
	"chow88/internal/sim"
)

// measured is one compile+run of a benchmark under one mode: the trace
// stats and output, the integrator's report (nil unless the mode inlined and
// the inlined build survived), plus the per-measurement obs reports when a
// session is active (nil otherwise).
type measured struct {
	stats   *pixie.Stats
	output  []int64
	inline  *obs.InlineReport
	compile *obs.CompileReport
	run     *obs.RunReport
}

// run compiles src under mode and executes it, returning the trace stats.
// The front end is shared across modes through internal/front's cache, so
// a table's six-mode matrix lowers and optimizes each benchmark once.
func run(src string, mode core.Mode) (*measured, error) {
	return execute(pipeline.Compile(context.Background(), src, mode, "Compile"))
}

// execute runs a finished compile on the default engine.
func execute(c *pipeline.Compiled, err error) (*measured, error) {
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(c.Code, sim.Options{})
	if err != nil {
		return nil, err
	}
	return &measured{stats: &res.Stats, output: res.Output, inline: c.Plan.Inline, compile: c.Report, run: res.Report}, nil
}

// sameOutput reports where got diverges from want.
func sameOutput(got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("output diverged")
	}
	for k := range got {
		if got[k] != want[k] {
			return fmt.Errorf("output diverged at %d", k)
		}
	}
	return nil
}

// Measurement holds one benchmark's stats under every mode of a table.
type Measurement struct {
	Name  string
	Lines int
	// CyclesPerCall under the baseline, the paper's call-intensity column.
	CyclesPerCall float64
	// Base is the -O2 (shrink-wrap off) reference.
	Base *pixie.Stats
	// ByMode holds stats per mode key (e.g. "A", "B", "C", "D", "E").
	ByMode map[string]*pixie.Stats
	// CompileObs and RunObs hold the per-measurement observability reports
	// when a session is active, keyed like ByMode plus "base"; empty
	// otherwise.
	CompileObs map[string]*obs.CompileReport
	RunObs     map[string]*obs.RunReport
}

// CycleReduction returns column I for the given mode key: % reduction in
// executed cycles relative to the baseline.
func (m *Measurement) CycleReduction(key string) float64 {
	return pixie.PercentReduction(m.Base.Cycles, m.ByMode[key].Cycles)
}

// ScalarLSReduction returns column II: % reduction in scalar loads/stores.
func (m *Measurement) ScalarLSReduction(key string) float64 {
	return pixie.PercentReduction(m.Base.ScalarLS(), m.ByMode[key].ScalarLS())
}

// modesFor maps table column keys to compilation modes.
func modesFor(keys []string) map[string]core.Mode {
	all := map[string]core.Mode{
		"A": core.ModeA(),
		"B": core.ModeB(),
		"C": core.ModeC(),
		"D": core.ModeD(),
		"E": core.ModeE(),
	}
	out := map[string]core.Mode{}
	for _, k := range keys {
		out[k] = all[k]
	}
	return out
}

// RunSuite measures every benchmark under the baseline plus the listed
// column modes. Output equality across modes is verified as it goes.
func RunSuite(keys []string) ([]*Measurement, error) {
	modes := modesFor(keys)
	var out []*Measurement
	for _, b := range benchprog.All() {
		base, err := run(b.Source, core.ModeBase())
		if err != nil {
			return nil, fmt.Errorf("%s [base]: %w", b.Name, err)
		}
		wantOut := base.output
		m := &Measurement{
			Name:          b.Name,
			Lines:         b.Lines,
			CyclesPerCall: base.stats.CyclesPerCall(),
			Base:          base.stats,
			ByMode:        map[string]*pixie.Stats{},
			CompileObs:    map[string]*obs.CompileReport{},
			RunObs:        map[string]*obs.RunReport{},
		}
		m.noteObs("base", base)
		for _, k := range keys {
			got, err := run(b.Source, modes[k])
			if err != nil {
				return nil, fmt.Errorf("%s [%s]: %w", b.Name, k, err)
			}
			if err := sameOutput(got.output, wantOut); err != nil {
				return nil, fmt.Errorf("%s [%s]: %w", b.Name, k, err)
			}
			m.ByMode[k] = got.stats
			m.noteObs(k, got)
		}
		out = append(out, m)
	}
	return out, nil
}

// noteObs files one measurement's obs reports under the given mode key.
func (m *Measurement) noteObs(key string, r *measured) {
	if r.compile != nil {
		m.CompileObs[key] = r.compile
	}
	if r.run != nil {
		m.RunObs[key] = r.run
	}
}

// FormatObs renders the per-measurement compile and run metrics collected
// while an obs session was active: one row per (program, mode) with the
// compile wall time and the headline allocator/engine counters beside it.
// Returns "" when no reports were collected (observability disabled).
func FormatObs(title string, rows []*Measurement, keys []string) string {
	collected := false
	for _, m := range rows {
		if len(m.CompileObs) > 0 || len(m.RunObs) > 0 {
			collected = true
			break
		}
	}
	if !collected {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s", title, "\n")
	fmt.Fprintf(&b, "%-11s %-5s %10s %6s %7s %6s %10s %12s %10s %s%s",
		"program", "mode", "compile", "funcs", "spilled", "saves",
		"engine", "blk entries", "run", "fallback", "\n")
	all := append([]string{"base"}, keys...)
	for _, m := range rows {
		for _, k := range all {
			cr, rr := m.CompileObs[k], m.RunObs[k]
			if cr == nil && rr == nil {
				continue
			}
			engine, fallback, entries, runWall := "-", "-", int64(0), int64(0)
			if rr != nil {
				engine = rr.Engine
				entries = rr.Counter("sim.block_entries")
				runWall = rr.WallNanos
				if rr.FallbackReason != "" {
					fallback = truncate(rr.FallbackReason, 40)
				}
			}
			fmt.Fprintf(&b, "%-11s %-5s %10s %6d %7d %6d %10s %12d %10s %s%s",
				m.Name, k,
				fmtWall(cr),
				cr.Counter("plan.funcs_planned"),
				cr.Counter("regalloc.ranges_spilled"),
				cr.Counter("plan.save_sites"),
				engine, entries,
				time.Duration(runWall).Round(time.Microsecond),
				fallback, "\n")
		}
	}
	cs := front.CacheStats()
	fmt.Fprintf(&b, "front cache: %d/%d entries, %d hits, %d misses, %d evictions\n",
		cs.Entries, cs.Cap, cs.Hits, cs.Misses, cs.Evictions)
	return b.String()
}

// truncate clips s to at most n runes for table rendering.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

func fmtWall(cr *obs.CompileReport) string {
	if cr == nil {
		return "-"
	}
	return time.Duration(cr.WallNanos).Round(time.Microsecond).String()
}

// Table1 runs the measurements for the paper's Table 1 (columns A, B, C).
func Table1() ([]*Measurement, error) { return RunSuite([]string{"A", "B", "C"}) }

// Table2 runs the measurements for Table 2 (columns D, E).
func Table2() ([]*Measurement, error) { return RunSuite([]string{"D", "E"}) }

// FormatTable renders measurements in the paper's layout.
func FormatTable(title string, rows []*Measurement, keys []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-11s %6s %11s |", "program", "lines", "cycles/call")
	for _, k := range keys {
		fmt.Fprintf(&b, " I.%s%%", k)
	}
	b.WriteString(" |")
	for _, k := range keys {
		fmt.Fprintf(&b, " II.%s%%", k)
	}
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", 34+13*2*len(keys)))
	b.WriteString("\n")
	for _, m := range rows {
		fmt.Fprintf(&b, "%-11s %6d %11.0f |", m.Name, m.Lines, m.CyclesPerCall)
		for _, k := range keys {
			fmt.Fprintf(&b, " %5.1f", m.CycleReduction(k))
		}
		b.WriteString(" |")
		for _, k := range keys {
			fmt.Fprintf(&b, " %6.1f", m.ScalarLSReduction(k))
		}
		b.WriteString("\n")
	}
	b.WriteString("\nI = % reduction in cycles; II = % reduction in scalar loads/stores,\n")
	b.WriteString("both relative to -O2 with shrink-wrap disabled (positive is better).\n")
	return b.String()
}

// Keys1 and Keys2 are the column sets of the two tables.
var (
	Keys1 = []string{"A", "B", "C"}
	Keys2 = []string{"D", "E"}
)

// DetailRow exposes the raw counters used by the tables (for EXPERIMENTS.md
// and debugging).
func DetailRow(m *Measurement, key string) string {
	st := m.ByMode[key]
	return fmt.Sprintf("%s[%s]: cycles %d→%d, scalarLS %d→%d, save/restore %d→%d",
		m.Name, key, m.Base.Cycles, st.Cycles,
		m.Base.ScalarLS(), st.ScalarLS(),
		m.Base.SaveRestoreLS(), st.SaveRestoreLS())
}

// irModuleFor compiles src to optimized IR (shared by the figure demos).
func irModuleFor(src string) (*ir.Module, error) {
	return front.Module(src, true, true)
}
