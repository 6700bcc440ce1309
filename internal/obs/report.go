// Reports: the session's registry diffed over a snapshot window and
// shaped for humans (Table) or machines (encoding/json). CompileReport
// rides on chow88.Program, RunReport on sim.Result.
package obs

import (
	"fmt"
	"strings"
	"time"
)

// Stat is one named counter or gauge value.
type Stat struct {
	Name  string
	Value int64
}

// PhaseStat is one phase timer: how many spans of the phase closed in the
// window and their cumulative wall time.
type PhaseStat struct {
	Phase string
	Count int64
	Nanos int64
}

// Report is a window of registry activity: everything that happened
// between a Snapshot and the moment ReportSince was called. Zero-valued
// phases and counters are suppressed.
type Report struct {
	// WallNanos is the window's wall-clock width.
	WallNanos int64
	Phases    []PhaseStat `json:",omitempty"`
	Counters  []Stat      `json:",omitempty"`
	// Gauges hold end-of-window high-water marks (not diffs).
	Gauges []Stat `json:",omitempty"`
}

// CompileReport describes one compilation.
type CompileReport struct {
	Report
	// Training isolates the profile-feedback training build and run;
	// nil for plain compiles. The enclosing Report covers the final
	// build only, so the two phases read separately.
	Training *Report `json:",omitempty"`
	// Demotions records every graceful-degradation intervention the
	// pipeline took: procedures replanned or demoted to the open
	// convention after a validation failure or a recovered panic.
	// Empty for clean compiles.
	Demotions []Demotion `json:",omitempty"`
	// Explain carries the decision-provenance journal artifact
	// (*explain.Artifact) when a journal was active during the compile.
	// Typed any because obs sits below explain in the import graph.
	Explain any `json:",omitempty"`
}

// Demotion is one graceful-degradation intervention on one procedure.
type Demotion struct {
	// Func is the procedure intervened on.
	Func string
	// Phase is the pipeline stage whose failure triggered the
	// intervention: "plan", "validate", "codegen" or "code-check".
	Phase string
	// Action is what the pipeline did: "replan" (recompute the plan),
	// "replan-nosw" (recompute with shrink-wrapping disabled for the
	// procedure) or "demote" (force the open convention and recompute).
	Action string
	// Reason is the violation rule or recovered panic that triggered it.
	Reason string
}

func (d Demotion) String() string {
	return fmt.Sprintf("%s: %s after %s failure (%s)", d.Func, d.Action, d.Phase, d.Reason)
}

// InlineReport summarizes one run of the profile-guided inliner over a
// module: what was considered, what was spliced, what the growth budget
// refused, and which procedures became uncalled and were dropped. It rides
// on core.ProgramPlan and chow88.Program so drivers can print the one-line
// diagnostic without re-deriving anything.
type InlineReport struct {
	// Budget is the code-growth allowance in percent of the pre-inlining
	// instruction count.
	Budget int
	// BaseInstrs / FinalInstrs are IR instruction counts before and after.
	BaseInstrs      int
	FinalInstrs     int
	SitesConsidered int
	SitesInlined    int
	// BudgetStopped counts candidates skipped because splicing them would
	// have exceeded the growth budget.
	BudgetStopped   int
	ProcsEliminated int
	// Inlined lists the accepted sites in the order they were spliced.
	Inlined []InlinedSite `json:",omitempty"`
}

// InlinedSite is one accepted inlining decision.
type InlinedSite struct {
	Caller string
	Callee string
	// Freq is the call block's execution-frequency estimate at decision
	// time (measured count under profile feedback, 10^depth otherwise).
	Freq float64
}

// String is the one-line driver diagnostic.
func (r *InlineReport) String() string {
	if r == nil {
		return ""
	}
	return fmt.Sprintf("inline: %d/%d sites inlined, %d procs eliminated, ir %d -> %d instrs (budget %d%%, %d stopped)",
		r.SitesInlined, r.SitesConsidered, r.ProcsEliminated, r.BaseInstrs, r.FinalInstrs, r.Budget, r.BudgetStopped)
}

// RunReport describes one simulator run.
type RunReport struct {
	Report
	// Engine is the engine that executed the run: "fast" or "reference".
	Engine string
	// FallbackReason explains a reference-engine run the fast engine
	// declined (static verification failure, degenerate initial stack
	// pointer). Empty when the fast engine ran.
	FallbackReason string `json:",omitempty"`
	// SuperHits are this run's per-superinstruction dispatch counts,
	// attributed via block entry counters, largest first (ties by name).
	SuperHits []Stat `json:",omitempty"`
}

// ReportSince diffs the registry against sn. A nil session returns nil.
func (s *Session) ReportSince(sn Snapshot) *Report {
	if s == nil {
		return nil
	}
	now := s.Snap()
	r := &Report{}
	if !sn.wall.IsZero() {
		r.WallNanos = now.wall.Sub(sn.wall).Nanoseconds()
	} else {
		r.WallNanos = now.wall.Sub(s.start).Nanoseconds()
	}
	for p := Phase(0); p < NumPhases; p++ {
		if n := now.phaseN[p] - sn.phaseN[p]; n > 0 {
			r.Phases = append(r.Phases, PhaseStat{
				Phase: p.Name(),
				Count: n,
				Nanos: now.phaseNS[p] - sn.phaseNS[p],
			})
		}
	}
	for c := Counter(0); c < NumCounters; c++ {
		if d := now.counters[c] - sn.counters[c]; d != 0 {
			r.Counters = append(r.Counters, Stat{Name: c.Name(), Value: d})
		}
	}
	for g := Gauge(0); g < NumGauges; g++ {
		if v := now.gauges[g]; v != 0 {
			r.Gauges = append(r.Gauges, Stat{Name: g.Name(), Value: v})
		}
	}
	return r
}

// Counter looks up a counter diff by report name; zero when absent.
func (r *Report) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	for _, st := range r.Counters {
		if st.Name == name {
			return st.Value
		}
	}
	return 0
}

// Gauge looks up a gauge by report name; zero when absent.
func (r *Report) Gauge(name string) int64 {
	if r == nil {
		return 0
	}
	for _, st := range r.Gauges {
		if st.Name == name {
			return st.Value
		}
	}
	return 0
}

// PhaseNanos looks up a phase's cumulative time; zero when the phase never
// closed a span in the window.
func (r *Report) PhaseNanos(phase string) int64 {
	if r == nil {
		return 0
	}
	for _, p := range r.Phases {
		if p.Phase == phase {
			return p.Nanos
		}
	}
	return 0
}

func fmtDur(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

// Table renders the report as an aligned text block.
func (r *Report) Table() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	r.writeTable(&b, "")
	return b.String()
}

func (r *Report) writeTable(b *strings.Builder, indent string) {
	fmt.Fprintf(b, "%swall time %s\n", indent, fmtDur(r.WallNanos))
	for _, p := range r.Phases {
		fmt.Fprintf(b, "%s  %-34s %12s  ×%d\n", indent, "phase "+p.Phase, fmtDur(p.Nanos), p.Count)
	}
	for _, c := range r.Counters {
		fmt.Fprintf(b, "%s  %-34s %12d\n", indent, c.Name, c.Value)
	}
	for _, g := range r.Gauges {
		fmt.Fprintf(b, "%s  %-34s %12d  (max)\n", indent, g.Name, g.Value)
	}
}

// Table renders the compile report, with the training window (when
// present) as an indented sub-block.
func (r *CompileReport) Table() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString("compile:\n")
	r.Report.writeTable(&b, "  ")
	for _, d := range r.Demotions {
		fmt.Fprintf(&b, "  degraded %s\n", d)
	}
	if r.Training != nil {
		b.WriteString("  training build+run:\n")
		r.Training.writeTable(&b, "    ")
	}
	return b.String()
}

// superHitsShown caps the superinstruction rows Table prints (the JSON
// form always carries all of them).
const superHitsShown = 12

// Table renders the run report: the engine line, the metrics window and
// the hottest superinstructions.
func (r *RunReport) Table() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "run: engine=%s", r.Engine)
	if r.FallbackReason != "" {
		fmt.Fprintf(&b, " (fallback: %s)", r.FallbackReason)
	}
	b.WriteString("\n")
	r.Report.writeTable(&b, "  ")
	if len(r.SuperHits) > 0 {
		n := len(r.SuperHits)
		fmt.Fprintf(&b, "  hottest superinstructions (of %d executed kinds):\n", n)
		if n > superHitsShown {
			n = superHitsShown
		}
		for _, st := range r.SuperHits[:n] {
			fmt.Fprintf(&b, "    %-32s %12d\n", st.Name, st.Value)
		}
	}
	return b.String()
}
