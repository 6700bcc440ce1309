// Package faultinject is the compiler's chaos layer: named injection
// points inside the register-allocation and code-generation pipeline that
// corrupt exactly the linkage artifacts the internal/check validator
// guards — a summary register bit, a shrink-wrap save site, a published
// parameter location — or panic while planning or emitting one function.
//
// The layer exists to prove the validator's coverage: the chaos
// differential suite (make chaos) arms each point in turn and asserts the
// compiled program still produces interpreter-oracle-identical output,
// because the fault was either caught (and the procedure demoted to the
// safe open convention) or never eligible to fire.
//
// Injection is option-gated and costs one atomic pointer load per
// per-function site when disarmed; nothing in this package runs per
// instruction. An armed Plan fires a bounded number of times (once unless
// Plan.Times raises it), so graceful degradation always converges.
package faultinject

import (
	"fmt"
	"sync/atomic"

	"chow88/internal/mach"
	"chow88/internal/obs"
)

// Point names one injection site.
type Point int

// The registered injection points.
const (
	// PointCorruptSummary clears one register bit from a closed
	// procedure's published register-usage summary, making the summary an
	// unsound subset of the call tree's actual usage.
	PointCorruptSummary Point = iota
	// PointDropSave deletes one save site from a procedure's save/restore
	// plan, leaving a CFG path that modifies a callee-saved register
	// uncovered.
	PointDropSave
	// PointFlipParamReg reroutes one register-passed parameter in a closed
	// procedure's published summary to a different register, so callers
	// deliver the argument where the callee will never look.
	PointFlipParamReg
	// PointPanicPlan panics while the allocator plans one function.
	PointPanicPlan
	// PointPanicCodegen panics while the code generator emits one
	// function.
	PointPanicCodegen
	// PointPanicDaemonWorker panics inside one chowd request worker, after
	// admission but before any compilation work. The daemon's per-request
	// containment must turn it into a structured error response; the
	// process and its other workers must be unaffected.
	PointPanicDaemonWorker
	// PointCorruptStatefile flips one byte of an incremental statefile's
	// checksummed payload as it is written, simulating torn or bit-rotted
	// state on disk. The next load must reject the file end to end and
	// degrade to a full rebuild, never a miscompile.
	PointCorruptStatefile

	NumPoints
)

var pointNames = [NumPoints]string{
	PointCorruptSummary:    "corrupt-summary-bit",
	PointDropSave:          "drop-save-site",
	PointFlipParamReg:      "flip-param-reg",
	PointPanicPlan:         "panic-plan-worker",
	PointPanicCodegen:      "panic-codegen-worker",
	PointPanicDaemonWorker: "panic-daemon-worker",
	PointCorruptStatefile:  "corrupt-statefile",
}

// String returns the point's stable name (used in demotion reasons).
func (p Point) String() string {
	if p >= 0 && p < NumPoints {
		return pointNames[p]
	}
	return fmt.Sprintf("point-%d", int(p))
}

// Points returns every registered injection point.
func Points() []Point {
	out := make([]Point, NumPoints)
	for i := range out {
		out[i] = Point(i)
	}
	return out
}

// CompilePoints returns the points that can fire inside a single Compile
// call — the compile-path chaos suite arms exactly these. The remaining
// points live on the service path (the chowd daemon's request workers and
// the incremental statefile writer) and are exercised by the daemon chaos
// suite instead.
func CompilePoints() []Point {
	var out []Point
	for _, p := range Points() {
		switch p {
		case PointPanicDaemonWorker, PointCorruptStatefile:
			continue
		}
		out = append(out, p)
	}
	return out
}

// Plan arms one injection. By default a Plan fires at most once: the first
// eligible site claims it atomically, so a degraded re-plan of the same
// procedure compiles clean (the fault is transient, as real cosmic-ray or
// heisenbug-class faults are). Times raises the budget for persistent
// faults — the degradation tests use Times=2 to make a procedure fail
// again after its first demotion and prove the ladder escalates instead of
// demoting twice.
type Plan struct {
	// Point selects the injection site.
	Point Point
	// Func restricts the injection to the named procedure; empty targets
	// the first eligible site encountered.
	Func string
	// Times is how many claims the plan honors before going quiet; zero
	// means once (the historical transient-fault default).
	Times int

	fires atomic.Int32
	site  atomic.Pointer[string]
}

// Fired reports whether the plan's fault was injected at least once.
func (p *Plan) Fired() bool { return p != nil && p.fires.Load() > 0 }

// Site returns the name of the procedure the fault landed in; empty until
// Fired.
func (p *Plan) Site() string {
	if p == nil {
		return ""
	}
	if s := p.site.Load(); s != nil {
		return *s
	}
	return ""
}

// armed is the installed plan; nil means injection is off, and every site
// reduces to one atomic load.
var armed atomic.Pointer[Plan]

// Arm installs p as the active injection (replacing any previous one).
// Passing nil disarms.
func Arm(p *Plan) { armed.Store(p) }

// Armed reports whether any injection plan is installed; hot paths check
// this once (one atomic load) before preparing injection candidates.
func Armed() bool { return armed.Load() != nil }

// Disarm removes and returns the active plan.
func Disarm() *Plan {
	p := armed.Load()
	armed.Store(nil)
	return p
}

// claim atomically fires the armed plan if it targets (pt, fn) and still
// has firing budget left.
func claim(pt Point, fn string) bool {
	p := armed.Load()
	if p == nil || p.Point != pt {
		return false
	}
	if p.Func != "" && p.Func != fn {
		return false
	}
	limit := int32(p.Times)
	if limit <= 0 {
		limit = 1
	}
	for {
		n := p.fires.Load()
		if n >= limit {
			return false
		}
		if p.fires.CompareAndSwap(n, n+1) {
			s := fn
			p.site.Store(&s)
			return true
		}
	}
}

// CorruptSummary returns used with one bit cleared when the armed plan
// targets fn's summary and used is non-empty; otherwise used unchanged.
// The cleared bit is the lowest register in used, which the summary's
// consumers necessarily rely on (every bit of a published summary covers
// real call-tree usage).
func CorruptSummary(fn string, used mach.RegSet) mach.RegSet {
	if used.Empty() || armed.Load() == nil || !claim(PointCorruptSummary, fn) {
		return used
	}
	var lowest mach.Reg
	used.ForEach(func(r mach.Reg) {
		if lowest == 0 {
			lowest = r
		}
	})
	return used.Remove(lowest)
}

// DropSave reports whether fn's save plan for register r should lose its
// first save site. Fires once, on the first managed register offered.
func DropSave(fn string, r mach.Reg) bool {
	if armed.Load() == nil {
		return false
	}
	return claim(PointDropSave, fn)
}

// FlipParamReg returns a wrong register to publish for one of fn's
// register-passed parameters: the lowest allocatable register different
// from the genuine one. ok is false when disarmed or ineligible.
func FlipParamReg(fn string, genuine mach.Reg, allocatable mach.RegSet) (mach.Reg, bool) {
	if allocatable.Remove(genuine).Empty() || armed.Load() == nil || !claim(PointFlipParamReg, fn) {
		return genuine, false
	}
	wrong := genuine
	allocatable.Remove(genuine).ForEach(func(r mach.Reg) {
		if wrong == genuine {
			wrong = r
		}
	})
	return wrong, true
}

// PanicPlan panics when the armed plan targets the planning of fn.
func PanicPlan(fn string) {
	if armed.Load() == nil {
		return
	}
	if claim(PointPanicPlan, fn) {
		obs.Current().Add(obs.CCheckFaults, 1)
		panic(fmt.Sprintf("faultinject: %s in %s", PointPanicPlan, fn))
	}
}

// PanicCodegen panics when the armed plan targets the emission of fn.
func PanicCodegen(fn string) {
	if armed.Load() == nil {
		return
	}
	if claim(PointPanicCodegen, fn) {
		obs.Current().Add(obs.CCheckFaults, 1)
		panic(fmt.Sprintf("faultinject: %s in %s", PointPanicCodegen, fn))
	}
}

// PanicDaemonWorker panics inside a chowd request worker handling the
// named endpoint ("compile", "compile-incremental", "run").
func PanicDaemonWorker(endpoint string) {
	if armed.Load() == nil {
		return
	}
	if claim(PointPanicDaemonWorker, endpoint) {
		obs.Current().Add(obs.CCheckFaults, 1)
		panic(fmt.Sprintf("faultinject: %s handling %s", PointPanicDaemonWorker, endpoint))
	}
}

// CorruptStatefile reports whether the statefile being written to path
// should have one payload byte flipped (after its checksum was computed,
// so the corruption is detectable end to end).
func CorruptStatefile(path string) bool {
	if armed.Load() == nil {
		return false
	}
	if claim(PointCorruptStatefile, path) {
		obs.Current().Add(obs.CCheckFaults, 1)
		return true
	}
	return false
}
