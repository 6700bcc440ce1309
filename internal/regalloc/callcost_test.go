package regalloc

import (
	"fmt"
	"testing"

	"chow88/internal/benchprog"
	"chow88/internal/dataflow"
	"chow88/internal/front"
	"chow88/internal/ir"
	"chow88/internal/liveness"
	"chow88/internal/mach"
	"chow88/internal/progen"
)

// siteOracle is a stub Oracle that gives every call site its own clobber
// set and counts its Clobbered queries.
type siteOracle struct {
	cfg     *mach.Config
	clobber map[*ir.Instr]mach.RegSet
	queries int
}

func newSiteOracle(f *ir.Func, cfg *mach.Config, seed uint64) *siteOracle {
	o := &siteOracle{cfg: cfg, clobber: map[*ir.Instr]mach.RegSet{}}
	for k, cs := range f.CallSites() {
		o.clobber[cs.Instr] = mach.RegSet(mix(seed+uint64(k))) & cfg.Allocatable()
	}
	return o
}

func (o *siteOracle) Clobbered(call *ir.Instr) mach.RegSet {
	o.queries++
	return o.clobber[call]
}

func (o *siteOracle) ArgLocs(call *ir.Instr) []ArgLoc { return DefaultArgLocs(o.cfg, len(call.Args)) }

// mix is splitmix64's finalizer: a cheap, well-spread hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// perRegCost is the per-register cost walk regCost ran before the call-cost
// vectors, kept as the oracle for TestCallCostsMatchPerRegisterWalk.
func perRegCost(r *liveness.Range, reg mach.Reg, opts Options, usedSoFar mach.RegSet) float64 {
	cost := 0.0
	calleeSaved := opts.Config.IsCalleeSaved(reg)
	if opts.Mode == Intra && calleeSaved {
		if !usedSoFar.Has(reg) && !opts.MustSave.Has(reg) {
			cost += 2
		}
		return cost
	}
	for _, cs := range r.Calls {
		if opts.Oracle.Clobbered(cs.Instr).Has(reg) {
			cost += 2 * cs.Block.Freq()
		}
	}
	return cost
}

// TestCallCostsMatchPerRegisterWalk holds regCost over the call-cost
// vectors bit-identical to the per-register walk of r.Calls, in Intra and
// Inter modes, for every range of every function of the suite, Large and
// progen programs. A stub oracle gives each call site its own clobber set.
// Each function is checked twice: with static 10^depth frequencies, and
// with profile counts above 2^53, where float64 addition is not
// associative, so a vector that summed its terms in another order than
// r.Calls would differ. Allocate may ask the oracle at most once per
// (range, spanned call).
func TestCallCostsMatchPerRegisterWalk(t *testing.T) {
	type program struct{ name, src string }
	var progs []program
	for _, p := range append(benchprog.All(), benchprog.Large()) {
		progs = append(progs, program{p.Name, p.Source})
	}
	seeds := 100
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		progs = append(progs, program{fmt.Sprintf("progen%d", seed), progen.Generate(int64(seed), progen.DefaultConfig())})
	}
	cfg := mach.Default()
	allocatable := cfg.Allocatable()
	for pi, p := range progs {
		m, err := front.Build(p.src, true)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		for fi, f := range m.Funcs {
			if f.Extern {
				continue
			}
			for _, profiled := range []bool{false, true} {
				where := fmt.Sprintf("%s: %s (profiled=%v)", p.name, f.Name, profiled)
				for bi, b := range f.Blocks {
					if profiled {
						b.SetProfile(1<<53 + int64(mix(uint64(bi))>>11))
					} else {
						b.ClearProfile()
					}
				}
				dataflow.Loops(f)
				ranges := liveness.Ranges(f, liveness.Analyze(f))
				oracle := newSiteOracle(f, cfg, uint64(pi)<<20|uint64(fi))
				spanned := 0
				for _, r := range ranges {
					if r.Occurrences > 0 {
						spanned += len(r.Calls)
					}
				}
				costs := callCosts(ranges, oracle)
				if oracle.queries > spanned {
					t.Errorf("%s: callCosts asked the oracle %d times for %d (range, spanned call) pairs", where, oracle.queries, spanned)
				}
				for _, mode := range []Mode{Intra, Inter} {
					opts := Options{Config: cfg, Mode: mode, Oracle: oracle, MustSave: cfg.CalleeSaved & 0x5555_5555}
					for _, r := range ranges {
						if r.Occurrences == 0 {
							continue
						}
						cc := costs[r.Temp.ID]
						if (cc == nil) == r.Spans() {
							t.Fatalf("%s: %s spans %d calls but has call-cost vector %v", where, r.Temp, len(r.Calls), cc)
						}
						for _, used := range []mach.RegSet{0, cfg.CalleeSaved & 0xaaaa_aaaa, allocatable} {
							allocatable.ForEach(func(reg mach.Reg) {
								got, want := regCost(cc, reg, opts, used), perRegCost(r, reg, opts, used)
								if got != want {
									t.Errorf("%s: %v mode %d %s used=%s: regCost %v, per-register walk %v",
										where, r.Temp, mode, reg, used, got, want)
								}
							})
						}
					}
				}
				// The whole allocation, candidate ordering and coloring
				// included, stays within the same query budget.
				for _, mode := range []Mode{Intra, Inter} {
					oracle.queries = 0
					res := Allocate(f, Options{Config: cfg, Mode: mode, Oracle: oracle})
					budget := 0
					for _, r := range res.Ranges {
						if r.Occurrences > 0 {
							budget += len(r.Calls)
						}
					}
					if oracle.queries > budget {
						t.Errorf("%s: Allocate (mode %d) asked the oracle %d times for %d (range, spanned call) pairs",
							where, mode, oracle.queries, budget)
					}
				}
			}
		}
	}
}
