// Package obs is the compiler and simulator observability layer: span
// tracing of pipeline phases (exported as Chrome trace_event JSON, viewable
// in Perfetto), an atomic metrics registry of counters/gauges/phase timers,
// and report structs the drivers attach to compiled programs and run
// results.
//
// The layer is strictly passive — it observes decisions, it never makes
// them — and it is built to cost nothing when nobody is looking:
//
//   - Disabled is the default. obs.Current() returns nil until a session is
//     installed with obs.Begin, and every method of *Session and Span is
//     nil-safe, so instrumentation sites read as straight-line code with no
//     conditionals at the call site.
//   - The disabled path is allocation-free and branch-cheap: one atomic
//     pointer load plus a nil check. BenchmarkObsDisabled in this package
//     holds that path to zero allocations.
//   - Counters and gauges are fixed enums indexed into arrays of
//     atomic.Int64, so concurrent compiles and runs sharing one session
//     (chowd's request workers) record without locks, and a Snapshot is a
//     fixed-size value that costs no allocation to take.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies one registry counter. Counters accumulate; reports
// diff them against a Snapshot so one session can cover many compiles.
type Counter uint8

// The registry's counters. Names (counterNames) carry a subsystem prefix
// so reports group naturally.
const (
	// Front-end compile cache (internal/front).
	CFrontCacheHit Counter = iota
	CFrontCacheMiss
	CFrontCacheEvict
	// Register allocation (internal/core, internal/regalloc).
	CPlanFuncs
	CProcsClosed
	CProcsOpen
	CCalleeSavedFreed
	CShrinkWrapRegs
	CEntryExitRegs
	CSaveSites
	CRestoreSites
	CSpilledRanges
	CSplitRounds
	CSplitKept
	CRangesColored
	CRangesSpilled
	// Code generation and linking (internal/codegen).
	CCodegenFuncs
	CLinkCodeWords
	// Linkage validation and graceful degradation (internal/check,
	// internal/pipeline, internal/faultinject).
	CCheckViolations
	CCheckDemotions
	CCheckReplans
	CCheckPanics
	CCheckFaults
	// Simulator (internal/sim).
	CSimRunsFast
	CSimRunsRef
	CSimVerifyFallback
	CSimStackFallback
	CSimBudgetHandoff
	CSimBlockEntries
	CSimInterpBridges
	CSimPredecodes
	// CSimImageCacheHits counts runs whose program was the most recently
	// predecoded one, so its memoized image was reused.
	CSimImageCacheHits
	CSimTailInlined
	// Incremental recompilation (internal/incr).
	CIncrFullRebuild
	CIncrFuncsReused
	CIncrFuncsReplanned
	CIncrSummaryCutoffs
	CIncrDeltaPropagations
	CIncrDemandCompiles
	CIncrCodeReused
	// Profile-guided inlining (internal/inline).
	CInlineSitesConsidered
	CInlineSitesInlined
	CInlineBudgetStopped
	CInlineProcsEliminated
	CInlineDiscards
	// Compile-as-a-service daemon (internal/daemon).
	CDaemonAccepted
	CDaemonRejectedQueue
	CDaemonRejectedSize
	CDaemonBadRequests
	CDaemonDeadlines
	CDaemonPanics
	CDaemonStateEvictions
	CDaemonDrainRefusals
	CDaemonStateSaveErrors

	NumCounters
)

var counterNames = [NumCounters]string{
	CFrontCacheHit:     "front.cache_hits",
	CFrontCacheMiss:    "front.cache_misses",
	CFrontCacheEvict:   "front.cache_evictions",
	CPlanFuncs:         "plan.funcs_planned",
	CProcsClosed:       "plan.procs_closed",
	CProcsOpen:         "plan.procs_open",
	CCalleeSavedFreed:  "plan.callee_saved_freed_by_summary",
	CShrinkWrapRegs:    "plan.regs_shrink_wrapped",
	CEntryExitRegs:     "plan.regs_entry_exit",
	CSaveSites:         "plan.save_sites",
	CRestoreSites:      "plan.restore_sites",
	CSpilledRanges:     "plan.spilled_ranges",
	CSplitRounds:       "plan.split_rounds",
	CSplitKept:         "plan.split_kept",
	CRangesColored:     "regalloc.ranges_colored",
	CRangesSpilled:     "regalloc.ranges_spilled",
	CCodegenFuncs:      "codegen.funcs_emitted",
	CLinkCodeWords:     "link.code_words",
	CCheckViolations:   "check.violations",
	CCheckDemotions:    "check.demotions",
	CCheckReplans:      "check.replans",
	CCheckPanics:       "check.panics_recovered",
	CCheckFaults:       "check.faults_injected",
	CSimRunsFast:       "sim.runs_fast",
	CSimRunsRef:        "sim.runs_reference",
	CSimVerifyFallback: "sim.verify_fallbacks",
	CSimStackFallback:  "sim.stack_fallbacks",
	CSimBudgetHandoff:  "sim.budget_handoffs",
	CSimBlockEntries:   "sim.block_entries",
	CSimInterpBridges:  "sim.interp_bridges",
	CSimPredecodes:     "sim.predecodes",
	CSimImageCacheHits: "sim.image_cache_hits",
	CSimTailInlined:    "sim.tail_blocks_inlined",

	CIncrFullRebuild:       "incr.full_rebuilds",
	CIncrFuncsReused:       "incr.funcs_reused",
	CIncrFuncsReplanned:    "incr.funcs_replanned",
	CIncrSummaryCutoffs:    "incr.summary_cutoffs",
	CIncrDeltaPropagations: "incr.delta_propagations",
	CIncrDemandCompiles:    "incr.demand_compiles",
	CIncrCodeReused:        "incr.code_reused",

	CInlineSitesConsidered: "inline.sites_considered",
	CInlineSitesInlined:    "inline.sites_inlined",
	CInlineBudgetStopped:   "inline.budget_stopped",
	CInlineProcsEliminated: "inline.procs_eliminated",
	CInlineDiscards:        "inline.discards",

	CDaemonAccepted:        "daemon.accepted",
	CDaemonRejectedQueue:   "daemon.rejected_queue_full",
	CDaemonRejectedSize:    "daemon.rejected_too_large",
	CDaemonBadRequests:     "daemon.bad_requests",
	CDaemonDeadlines:       "daemon.deadline_exceeded",
	CDaemonPanics:          "daemon.request_panics",
	CDaemonStateEvictions:  "daemon.state_evictions",
	CDaemonDrainRefusals:   "daemon.drain_refusals",
	CDaemonStateSaveErrors: "daemon.state_save_errors",
}

// Name returns the counter's report name.
func (c Counter) Name() string { return counterNames[c] }

// Gauge identifies a high-water-mark value: SetMax keeps the maximum
// observed, so reports show e.g. the deepest admission queue of a daemon
// session.
type Gauge uint8

// The registry's gauges.
const (
	GFrontCacheEntries Gauge = iota
	GIncrFrontier
	GDaemonQueueHigh
	GDaemonBusyHigh

	NumGauges
)

var gaugeNames = [NumGauges]string{
	GFrontCacheEntries: "front.cache_entries",
	GIncrFrontier:      "incr.frontier_size",
	GDaemonQueueHigh:   "daemon.queue_high_water",
	GDaemonBusyHigh:    "daemon.busy_workers_high_water",
}

// Name returns the gauge's report name.
func (g Gauge) Name() string { return gaugeNames[g] }

// Phase identifies one pipeline phase for span tracing and phase timers.
type Phase uint8

// The traced pipeline phases.
const (
	PhaseCompile Phase = iota
	PhaseParse
	PhaseSema
	PhaseLower
	PhaseOpt
	PhasePlan
	PhaseValidate
	PhaseCodegen
	PhaseLink
	PhasePredecode
	PhaseRun
	PhaseIncr
	PhaseInline

	NumPhases
)

var phaseNames = [NumPhases]string{
	PhaseCompile:   "compile",
	PhaseParse:     "parse",
	PhaseSema:      "sema",
	PhaseLower:     "lower",
	PhaseOpt:       "opt",
	PhasePlan:      "plan",
	PhaseValidate:  "validate",
	PhaseCodegen:   "codegen",
	PhaseLink:      "link",
	PhasePredecode: "predecode",
	PhaseRun:       "run",
	PhaseIncr:      "incremental",
	PhaseInline:    "inline",
}

// Name returns the phase's span category / report name.
func (p Phase) Name() string { return phaseNames[p] }

// Options configure a session.
type Options struct {
	// Trace retains span events for export as Chrome trace_event JSON.
	// Metrics and phase timers are always collected by an active session;
	// only event retention is optional.
	Trace bool
	// TraceCap bounds the retained trace events; once reached, further
	// events are dropped (and counted — see Session.TraceDropped). Zero
	// means unbounded, the right choice for one-shot CLI invocations; a
	// long-lived session (the chowd daemon) must cap retention or the
	// trace buffer grows without limit.
	TraceCap int
}

// Session is one observation window. All methods are safe on a nil
// receiver (no-ops returning zero values) and safe for concurrent use.
type Session struct {
	start    time.Time
	tracing  bool
	traceCap int

	counters [NumCounters]atomic.Int64
	gauges   [NumGauges]atomic.Int64
	phaseNS  [NumPhases]atomic.Int64
	phaseN   [NumPhases]atomic.Int64

	trace struct {
		sync.Mutex
		events  []traceEvent
		dropped int64
	}
}

// current is the installed session; nil means observability is disabled.
var current atomic.Pointer[Session]

// Begin installs a fresh session as the current one and returns it. The
// previous session, if any, is replaced. Sessions are meant to be
// process-wide (a CLI invocation, one test); concurrent Begin calls race
// for the slot, last one wins.
func Begin(opts Options) *Session {
	s := NewSession(opts)
	current.Store(s)
	return s
}

// End uninstalls the current session and returns it for reading; nil when
// no session was active.
func End() *Session {
	s := current.Load()
	current.Store(nil)
	return s
}

// EndIf uninstalls s if it is still the current session, leaving a newer
// session installed by someone else in place.
func EndIf(s *Session) { current.CompareAndSwap(s, nil) }

// Current returns the installed session, or nil when observability is
// disabled. The nil result is usable directly: every method no-ops.
func Current() *Session { return current.Load() }

// NewSession builds a session without installing it (tests observe in
// isolation this way).
func NewSession(opts Options) *Session {
	return &Session{start: time.Now(), tracing: opts.Trace, traceCap: opts.TraceCap}
}

// Add bumps a counter by n.
func (s *Session) Add(c Counter, n int64) {
	if s == nil {
		return
	}
	s.counters[c].Add(n)
}

// SetMax raises a gauge to v when v exceeds the recorded maximum.
func (s *Session) SetMax(g Gauge, v int64) {
	if s == nil {
		return
	}
	for {
		old := s.gauges[g].Load()
		if v <= old || s.gauges[g].CompareAndSwap(old, v) {
			return
		}
	}
}

// Span opens a span of the given phase. Every span lands on one timeline
// (trace tid 0). The zero Span (and any span from a nil session) is a no-op
// to End.
func (s *Session) Span(p Phase, name string) Span {
	if s == nil {
		return Span{}
	}
	return Span{s: s, name: name, phase: p, start: time.Now()}
}

// Span is an open interval on the trace timeline. It is a value type: the
// disabled path constructs and discards it without allocating.
type Span struct {
	s     *Session
	name  string
	phase Phase
	start time.Time
}

// End closes the span: the elapsed time is added to the phase timer and,
// when tracing, a complete ("X") event is retained.
func (sp Span) End() {
	s := sp.s
	if s == nil {
		return
	}
	d := time.Since(sp.start)
	s.phaseNS[sp.phase].Add(int64(d))
	s.phaseN[sp.phase].Add(1)
	if s.tracing {
		s.addEvent(traceEvent{
			Name: sp.name,
			Cat:  sp.phase.Name(),
			Ph:   "X",
			TS:   float64(sp.start.Sub(s.start).Nanoseconds()) / 1e3,
			Dur:  float64(d.Nanoseconds()) / 1e3,
		})
	}
}

// Snapshot captures the registry state at one instant so a report can
// cover exactly one compile or one run within a longer session.
type Snapshot struct {
	wall     time.Time
	counters [NumCounters]int64
	gauges   [NumGauges]int64
	phaseNS  [NumPhases]int64
	phaseN   [NumPhases]int64
}

// Snap captures the current registry state. On a nil session it returns a
// zero snapshot (whose wall time is the zero Time).
func (s *Session) Snap() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	var sn Snapshot
	sn.wall = time.Now()
	for i := range sn.counters {
		sn.counters[i] = s.counters[i].Load()
	}
	for i := range sn.gauges {
		sn.gauges[i] = s.gauges[i].Load()
	}
	for i := range sn.phaseNS {
		sn.phaseNS[i] = s.phaseNS[i].Load()
		sn.phaseN[i] = s.phaseN[i].Load()
	}
	return sn
}
