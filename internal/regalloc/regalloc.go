// Package regalloc implements priority-based graph coloring register
// allocation (Chow–Hennessy) with the paper's extension for inter-procedural
// allocation: in inter-procedural mode priorities are computed per
// (live-range, register) pair, so that registers known to be unused by the
// callees of spanned calls carry values across those calls for free.
//
// The allocator itself is policy-free about call boundaries: an Oracle
// supplies, per call site, the set of registers the call may destroy and the
// locations where outgoing arguments must be placed. The intra-procedural
// oracle assumes the default linkage; the inter-procedural driver
// (internal/core) substitutes exact callee summaries.
package regalloc

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"chow88/internal/dataflow"
	"chow88/internal/explain"
	"chow88/internal/ir"
	"chow88/internal/liveness"
	"chow88/internal/mach"
	"chow88/internal/obs"
)

// Mode selects the register-usage convention the allocator assumes.
type Mode int

const (
	// Intra is ordinary per-procedure allocation: caller-saved registers
	// cost a save/restore pair around each spanned call; callee-saved
	// registers cost one save/restore pair at entry/exit.
	Intra Mode = iota
	// Inter makes every register operate in caller-saved mode (the paper's
	// convention for closed procedures processed in depth-first order).
	// Whether a used callee-saved register is then saved locally or
	// propagated to the ancestors is decided after allocation (§6).
	Inter
)

// ArgLoc says where an outgoing argument or incoming parameter lives at the
// call boundary.
type ArgLoc struct {
	InReg bool
	Reg   mach.Reg
	// Slot is the outgoing-argument stack slot index used when !InReg.
	Slot int
}

// Oracle supplies per-call-site linkage knowledge.
type Oracle interface {
	// Clobbered returns the set of allocatable registers whose contents the
	// call may destroy.
	Clobbered(call *ir.Instr) mach.RegSet
	// ArgLocs returns where each outgoing argument of the call must be
	// placed.
	ArgLocs(call *ir.Instr) []ArgLoc
}

// DefaultOracle implements the default linkage: every call clobbers all
// caller-saved registers (including idle parameter registers); the first
// len(Params) arguments travel in the parameter registers and the rest on
// the stack.
type DefaultOracle struct{ Config *mach.Config }

// Clobbered implements Oracle.
func (o DefaultOracle) Clobbered(*ir.Instr) mach.RegSet {
	return o.Config.CallerSaved.Union(o.Config.ParamSet())
}

// ArgLocs implements Oracle.
func (o DefaultOracle) ArgLocs(call *ir.Instr) []ArgLoc {
	return DefaultArgLocs(o.Config, len(call.Args))
}

// DefaultArgLocs returns the default convention's locations for n arguments.
func DefaultArgLocs(cfg *mach.Config, n int) []ArgLoc {
	out := make([]ArgLoc, n)
	for i := range out {
		if i < len(cfg.Params) {
			out[i] = ArgLoc{InReg: true, Reg: cfg.Params[i]}
		} else {
			out[i] = ArgLoc{Slot: i}
		}
	}
	return out
}

// Options configures one allocation run.
type Options struct {
	Config *mach.Config
	Mode   Mode
	Oracle Oracle
	// Prefer breaks priority ties toward registers already used in the
	// current call tree, minimizing the tree's register footprint (Fig. 1).
	Prefer mach.RegSet
	// MustSave holds callee-saved registers this procedure will save at
	// entry/exit regardless of its own usage (its closed children use them),
	// waiving their entry/exit charge: the parent may use them freely (§3).
	MustSave mach.RegSet
	// ParamIn gives incoming parameter locations under the default
	// convention; leave nil in Inter mode, where parameters may settle in
	// arbitrary registers.
	ParamIn []ArgLoc
}

// LocKind discriminates Loc.
type LocKind int

// Location kinds.
const (
	LocNone LocKind = iota // temp never occurs
	LocReg                 // lives in Reg
	LocMem                 // lives in a frame slot ("not allocated")
)

// Loc is the storage assigned to one temp.
type Loc struct {
	Kind LocKind
	Reg  mach.Reg
}

// Result is the allocation outcome for one function.
type Result struct {
	F    *ir.Func
	Locs []Loc // indexed by temp ID
	// UsedRegs is every register assigned to some temp.
	UsedRegs mach.RegSet
	// Live and Ranges expose the underlying analyses for later phases.
	Live   *liveness.Result
	Ranges []*liveness.Range
	// Spilled counts ranges left in memory for lack of a profitable register.
	Spilled int
}

// LocOf returns the location of t.
func (r *Result) LocOf(t *ir.Temp) Loc { return r.Locs[t.ID] }

// Allocate runs priority-based coloring over f.
func Allocate(f *ir.Func, opts Options) *Result {
	if opts.Oracle == nil {
		opts.Oracle = DefaultOracle{Config: opts.Config}
	}
	dataflow.Loops(f)
	live := liveness.Analyze(f)
	ranges := liveness.Ranges(f, live)
	graph := liveness.BuildInterference(f, live)

	res := &Result{
		F:      f,
		Locs:   make([]Loc, f.NumTemps()),
		Live:   live,
		Ranges: ranges,
	}

	// Whether idle parameter registers are candidates is the Config's
	// choice: the full configuration includes $a0–$a3 in its caller-saved
	// set; the restricted Table 2 configurations exclude them.
	allocatable := opts.Config.Allocatable()
	if allocatable.Empty() {
		j := explain.Current()
		for _, r := range ranges {
			if r.Occurrences > 0 {
				res.Locs[r.Temp.ID] = Loc{Kind: LocMem}
				res.Spilled++
				if j != nil {
					j.Record(f.Name, explain.Decision{
						Kind: explain.KindSpill, Cause: "no-registers", Cost: r.Weight,
						Detail: fmt.Sprintf("%s: configuration has no allocatable registers", r.Temp),
					})
				}
			}
		}
		res.recordObs()
		return res
	}

	prefs := computePreferences(f, opts)

	// A parameter kept in memory costs one extra store to put it there (the
	// callee spills the incoming register, or the caller writes the stack
	// slot); credit register residency accordingly.
	for _, p := range f.Params {
		if r := ranges[p.ID]; r.Occurrences > 0 {
			r.Weight++
		}
	}

	callCost := callCosts(ranges, opts.Oracle)

	// Candidate order: Chow's priority, savings normalized by range size.
	type cand struct {
		r    *liveness.Range
		prio float64
	}
	cands := make([]cand, 0, len(ranges))
	for _, r := range ranges {
		if r.Occurrences == 0 {
			continue
		}
		size := float64(len(r.Blocks))
		if size == 0 {
			size = 1
		}
		best := bestStaticNet(r, callCost[r.Temp.ID], opts, allocatable)
		cands = append(cands, cand{r: r, prio: best / size})
	}
	slices.SortStableFunc(cands, func(a, b cand) int {
		if a.prio != b.prio {
			if a.prio > b.prio {
				return -1
			}
			return 1
		}
		return a.r.Temp.ID - b.r.Temp.ID
	})

	for _, c := range cands {
		r := c.r
		id := r.Temp.ID
		cc := callCost[id]
		bonus := prefs[id]
		forbidden := mach.RegSet(0)
		graph.Neighbors(id).ForEach(func(n int) {
			if res.Locs[n].Kind == LocReg {
				forbidden = forbidden.Add(res.Locs[n].Reg)
			}
		})
		bestReg, bestNet := mach.Reg(0), math.Inf(-1)
		found := false
		// In intra-procedural mode a range that spans calls prefers the
		// callee-saved class on cost ties (§2: one save/restore at
		// entry/exit beats one around every call, and it frees the
		// caller-saved registers for call-free ranges); a call-free range
		// prefers caller-saved (no save/restore at all). In
		// inter-procedural mode the summaries already price each register,
		// and ties go to caller-saved: touching a callee-saved register
		// widens its activity range and forces a save somewhere up the
		// graph (§6), which the per-range cost cannot see.
		var classPref mach.RegSet
		if opts.Mode == Intra && r.Spans() {
			classPref = opts.Config.CalleeSaved
		} else {
			classPref = opts.Config.CallerSaved
		}
		allocatable.Minus(forbidden).ForEach(func(reg mach.Reg) {
			net := r.Weight - regCost(cc, reg, opts, res.UsedRegs)
			if bonus != nil {
				net += bonus[reg]
			}
			if better(net, reg, bestNet, bestReg, found, res.UsedRegs, opts.Prefer, classPref) {
				bestReg, bestNet, found = reg, net, true
			}
		})
		// A strictly negative net means a stack home is cheaper than any
		// register. A zero net ties — take the register: the save/restore
		// charge is then already paid, so later ranges share the register
		// for free (the callee-saved entry/exit cost amortizes over all of
		// its users).
		if !found || bestNet < 0 {
			res.Locs[id] = Loc{Kind: LocMem}
			res.Spilled++
			if j := explain.Current(); j != nil {
				if !found {
					var holders []string
					graph.Neighbors(id).ForEach(func(n int) {
						if len(holders) < 3 && res.Locs[n].Kind == LocReg {
							holders = append(holders, fmt.Sprintf("%s in %s", ranges[n].Temp, res.Locs[n].Reg))
						}
					})
					j.Record(f.Name, explain.Decision{
						Kind: explain.KindSpill, Cause: "interference", Cost: r.Weight,
						Detail: fmt.Sprintf("%s: every allocatable register held by an interfering range (%s)",
							r.Temp, strings.Join(holders, ", ")),
					})
				} else {
					j.Record(f.Name, explain.Decision{
						Kind: explain.KindSpill, Cause: "cost", Reg: bestReg.String(), Cost: bestNet,
						Detail: fmt.Sprintf("%s: best candidate %s nets %.4g (savings %.4g - save/restore cost); stack home is cheaper",
							r.Temp, bestReg, bestNet, r.Weight),
					})
				}
			}
			continue
		}
		res.Locs[id] = Loc{Kind: LocReg, Reg: bestReg}
		res.UsedRegs = res.UsedRegs.Add(bestReg)
	}
	res.recordObs()
	return res
}

// recordObs publishes the allocation outcome to the active obs session.
func (r *Result) recordObs() {
	s := obs.Current()
	if s == nil {
		return
	}
	colored := int64(0)
	for _, l := range r.Locs {
		if l.Kind == LocReg {
			colored++
		}
	}
	s.Add(obs.CRangesColored, colored)
	s.Add(obs.CRangesSpilled, int64(r.Spilled))
}

// better decides whether (net, reg) beats the current best, breaking ties
// first toward the preferred register class, then toward registers already
// in use (function-local or the preferred call-tree set), then toward lower
// register numbers, for determinism and to minimize the call tree's
// register footprint.
func better(net float64, reg mach.Reg, bestNet float64, bestReg mach.Reg, found bool, used, prefer, classPref mach.RegSet) bool {
	if !found || net > bestNet {
		return true
	}
	if net < bestNet {
		return false
	}
	sNew, sOld := tieScore(reg, used, prefer, classPref), tieScore(bestReg, used, prefer, classPref)
	if sNew != sOld {
		return sNew > sOld
	}
	return reg < bestReg
}

// tieScore ranks a register for better's tie-break: preferred class first,
// then already used, then in the preferred call-tree set.
func tieScore(r mach.Reg, used, prefer, classPref mach.RegSet) int {
	s := 0
	if classPref.Has(r) {
		s += 4
	}
	if used.Has(r) {
		s += 2
	}
	if prefer.Has(r) {
		s++
	}
	return s
}

// callCosts prices every call-spanning range's register choices: entry
// reg of a range's vector is the frequency-weighted save/restore cost of
// keeping it in reg across the calls it spans that may destroy reg. The
// vectors are indexed by temp ID (nil for a range that spans no call or
// never occurs) and share one backing array. The oracle is asked once per
// (range, spanned call); each entry adds its terms in r.Calls order, so the
// sums are the ones a per-register walk of r.Calls computes.
func callCosts(ranges []*liveness.Range, oracle Oracle) []*[mach.NumRegs]float64 {
	n := 0
	for _, r := range ranges {
		if r.Occurrences > 0 && r.Spans() {
			n++
		}
	}
	costs := make([]*[mach.NumRegs]float64, len(ranges))
	backing := make([][mach.NumRegs]float64, n)
	for id, r := range ranges {
		if r.Occurrences == 0 || !r.Spans() {
			continue
		}
		cc := &backing[0]
		backing = backing[1:]
		for _, cs := range r.Calls {
			c := 2 * cs.Block.Freq()
			oracle.Clobbered(cs.Instr).ForEach(func(reg mach.Reg) { cc[reg] += c })
		}
		costs[id] = cc
	}
	return costs
}

// regCost returns the frequency-weighted save/restore cost of keeping a
// range in reg, given the range's call-cost vector cc (nil when it spans no
// call).
func regCost(cc *[mach.NumRegs]float64, reg mach.Reg, opts Options, usedSoFar mach.RegSet) float64 {
	if opts.Mode == Intra && opts.Config.IsCalleeSaved(reg) {
		// One save at entry plus one restore per exit, charged once per
		// register, unless the register must be saved anyway for the sake
		// of closed children.
		if !usedSoFar.Has(reg) && !opts.MustSave.Has(reg) {
			return 2
		}
		return 0
	}
	// Caller-saved behaviour (also every register under Inter mode): pay a
	// save and a restore around each spanned call that clobbers reg.
	if cc == nil {
		return 0
	}
	return cc[reg]
}

// bestStaticNet estimates the best achievable net benefit for ordering
// purposes (ignoring neighbors, assuming callee-saved charges apply).
func bestStaticNet(r *liveness.Range, cc *[mach.NumRegs]float64, opts Options, allocatable mach.RegSet) float64 {
	best := math.Inf(-1)
	allocatable.ForEach(func(reg mach.Reg) {
		net := r.Weight - regCost(cc, reg, opts, 0)
		if net > best {
			best = net
		}
	})
	return best
}

// preferences holds per-register priority bonuses indexed by temp ID (nil
// for a temp with none), derived from the parameter-passing optimization
// (§4): a temp that is an outgoing argument gains priority for the register
// the callee expects it in, and an incoming parameter gains priority for
// the register it arrives in, so the value can stay put from caller to
// callee.
type preferences []*[mach.NumRegs]float64

func (p preferences) add(id int, reg mach.Reg, v float64) {
	if p[id] == nil {
		p[id] = new([mach.NumRegs]float64)
	}
	p[id][reg] += v
}

func computePreferences(f *ir.Func, opts Options) preferences {
	p := make(preferences, f.NumTemps())
	// Incoming parameters prefer their arrival registers.
	for i, t := range f.Params {
		if opts.ParamIn != nil && i < len(opts.ParamIn) && opts.ParamIn[i].InReg {
			p.add(t.ID, opts.ParamIn[i].Reg, 1)
		}
	}
	// Outgoing arguments prefer the registers the callee expects.
	for _, cs := range f.CallSites() {
		locs := opts.Oracle.ArgLocs(cs.Instr)
		freq := cs.Block.Freq()
		for i, a := range cs.Instr.Args {
			if a.Temp == nil || i >= len(locs) || !locs[i].InReg {
				continue
			}
			p.add(a.Temp.ID, locs[i].Reg, freq)
		}
	}
	return p
}
