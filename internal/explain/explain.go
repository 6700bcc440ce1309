// Package explain is the decision-provenance journal: a structured record
// of every allocation decision the compiler takes — open/closed
// classification, spills and split rounds, the §6 propagate-vs-wrap choice,
// parameter-register negotiation, each save/restore placement with the
// eq-3.x term that licensed it, demotion ladder steps and inlining
// verdicts — keyed by procedure and serializable for diffing across modes.
//
// The journal follows internal/obs's discipline exactly: a process-global
// atomic pointer, nil-safe methods, and a disabled path that costs one
// atomic load and zero allocations (instrumentation sites must guard with
// `if j := explain.Current(); j != nil { ... }` so the fmt work of building
// a Decision is never done dark — held by TestExplainDisabledAllocFree).
//
// Determinism: decisions are bucketed per function and the artifact
// serializes buckets in module order, not in the bottom-up order planning
// records them — so cold and cached compiles produce byte-identical
// journals. Nothing in a Decision depends on timing: no timestamps, and
// every set iterated while recording (RegSet.ForEach, CallSites, plan site
// slices) has a fixed order.
package explain

import (
	"sync"
	"sync/atomic"

	"chow88/internal/obs"
)

// Decision kinds. The narrative renderer and explaindiff switch on these.
const (
	// KindClassify is the open/closed verdict (§3), cause one of the enum
	// closed/main/extern/addr-taken/cycle/force-open/demotion.
	KindClassify = "classify"
	// KindSpill is one live range sent to memory, cause "interference",
	// "cost" or "no-registers".
	KindSpill = "spill"
	// KindSplit is a live-range splitting round, cause "kept" or "reverted".
	KindSplit = "split"
	// KindWrap is the §6 propagate-vs-wrap choice for one callee-saved
	// register, cause "propagate" or "wrap".
	KindWrap = "wrap"
	// KindCallSite is the negotiated linkage of one call site: what the
	// callee clobbers and where arguments go, cause "summary" or "default".
	KindCallSite = "callsite"
	// KindSummary is the register-usage summary published to callers (§2).
	KindSummary = "summary"
	// KindParam is one parameter's negotiated location (§4).
	KindParam = "param"
	// KindSave / KindRestore are save/restore placements: shrink-wrap sites
	// licensed by eq 3.5/3.6, entry/exit defaults, around-call saves of
	// live clobbered registers, and the return-address slot.
	KindSave    = "save"
	KindRestore = "restore"
	// KindDemote is one degradation-ladder step, cause "demote", "replan"
	// or "replan-nosw".
	KindDemote = "demote"
	// KindInline / KindInlineRefuse are procedure-integrator verdicts.
	KindInline       = "inline"
	KindInlineRefuse = "inline-refuse"
	// KindDiscard is the module-level inline retreat (pipeline rebuilt the
	// pristine pre-inlining clone).
	KindDiscard = "discard-inlining"
)

// Decision is one recorded choice. Fields beyond Kind are optional and
// kind-dependent; the zero value of each is omitted from the JSON form.
type Decision struct {
	Kind string `json:"kind"`
	// Reg names the register the decision is about (save/restore/wrap/param).
	Reg string `json:"reg,omitempty"`
	// Callee names the other procedure involved (callsite/inline).
	Callee string `json:"callee,omitempty"`
	// Block names the basic block the decision lands in.
	Block string `json:"block,omitempty"`
	// Cause is the compact machine-matchable reason enum for the kind.
	Cause string `json:"cause,omitempty"`
	// Detail is the human-readable account, including the numbers actually
	// compared (the §6 costs, the eq-3.x terms, the inline budget state).
	Detail string `json:"detail,omitempty"`
	// Freq is the execution-frequency estimate that priced the decision
	// (measured counts under profile feedback, 10^depth otherwise).
	Freq float64 `json:"freq,omitempty"`
	// Cost is the kind-specific figure of merit (net spill benefit, split
	// traffic delta, inline splice cost, §6 local save cost).
	Cost float64 `json:"cost,omitempty"`
}

// Journal accumulates decisions for one compile. All methods are safe for
// concurrent use and safe on a nil receiver.
type Journal struct {
	mu     sync.Mutex
	funcs  map[string][]Decision
	module []Decision
	order  []string
}

var current atomic.Pointer[Journal]

// Begin installs a fresh journal as the process-global current journal and
// returns it. The previous journal (if any) is displaced.
func Begin() *Journal {
	j := &Journal{funcs: map[string][]Decision{}}
	current.Store(j)
	return j
}

// End uninstalls and returns the current journal; nil if none was active.
func End() *Journal {
	j := current.Load()
	current.Store(nil)
	return j
}

// Current returns the active journal, nil when recording is disabled. This
// is the one atomic load the disabled path costs.
func Current() *Journal { return current.Load() }

// Record appends one decision to fn's bucket. Nil-safe; instrumentation
// sites should still guard on Current() != nil so Decision construction
// (fmt formatting) is skipped entirely when recording is off.
func (j *Journal) Record(fn string, d Decision) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.funcs[fn] = append(j.funcs[fn], d)
	j.mu.Unlock()
	obs.Current().ExplainEvent(PhaseOf(d), fn, d.Kind+subject(d))
}

// RecordModule appends one module-level decision (inline retreats).
func (j *Journal) RecordModule(d Decision) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.module = append(j.module, d)
	j.mu.Unlock()
	obs.Current().ExplainEvent(PhaseOf(d), "", d.Kind+subject(d))
}

// SetModuleOrder fixes the bucket serialization order to the module's
// function order; core.PlanModule calls it at the start of planning.
// Buckets for functions not in the order (e.g. a caller inlining erased)
// are appended after it, sorted by name.
func (j *Journal) SetModuleOrder(names []string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.order = append(j.order[:0], names...)
	j.mu.Unlock()
}

// DropPlacements removes every save/restore decision recorded so far.
// codegen.Generate calls it on entry: the degradation loop may generate
// code several times per compile, and only the final generation's
// placements describe the program actually shipped.
func (j *Journal) DropPlacements() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for name, ds := range j.funcs {
		kept := ds[:0]
		for _, d := range ds {
			if d.Kind != KindSave && d.Kind != KindRestore {
				kept = append(kept, d)
			}
		}
		j.funcs[name] = kept
	}
}

// Reset clears everything recorded so far. CompileProfiled resets between
// the training and final builds so the artifact describes the program
// actually shipped; the pipeline resets before an inline retreat's rebuild
// for the same reason (re-recording the retreat itself afterwards).
func (j *Journal) Reset() {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.funcs = map[string][]Decision{}
	j.module = nil
	j.order = nil
	j.mu.Unlock()
}

// PhaseOf maps a decision to the pipeline phase whose trace span owns it:
// planning decisions nest under the plan spans, inliner verdicts under the
// inline span, and everything recorded at codegen time or by the
// degradation ladder under the top-level compile span.
func PhaseOf(d Decision) string {
	switch d.Kind {
	case KindInline, KindInlineRefuse:
		return "inline"
	case KindDemote, KindDiscard:
		return "compile"
	case KindSave, KindRestore:
		// All save/restore records are cut at codegen time (plan-driven
		// sites, around-call traffic, the RA slot), under the compile span.
		return "compile"
	default:
		return "plan"
	}
}

// subject is the short trace-event suffix identifying what the decision is
// about.
func subject(d Decision) string {
	switch {
	case d.Reg != "":
		return " " + d.Reg
	case d.Callee != "":
		return " " + d.Callee
	default:
		return ""
	}
}
