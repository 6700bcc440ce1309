package dataflow_test

import (
	"fmt"
	"testing"

	"chow88/internal/benchprog"
	"chow88/internal/dataflow"
	"chow88/internal/front"
	"chow88/internal/ir"
	"chow88/internal/opt"
	"chow88/internal/progen"
)

// mapDominators is the map-keyed immediate-dominator computation Dominators
// ran before its result was indexed by block ID, kept as the oracle for
// TestDominatorsLoopsMatchMapVersions.
func mapDominators(f *ir.Func) map[*ir.Block]*ir.Block {
	rpo := f.RPO()
	index := make(map[*ir.Block]int, len(rpo))
	for i, b := range rpo {
		index[b] = i
	}
	idom := make(map[*ir.Block]*ir.Block, len(rpo))
	entry := f.Entry()
	idom[entry] = entry
	intersect := func(a, b *ir.Block) *ir.Block {
		for a != b {
			for index[a] > index[b] {
				a = idom[a]
			}
			for index[b] > index[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == entry {
				continue
			}
			var newIdom *ir.Block
			for _, p := range b.Preds {
				if idom[p] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != nil && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

func mapDominates(idom map[*ir.Block]*ir.Block, a, b *ir.Block) bool {
	for {
		if a == b {
			return true
		}
		next := idom[b]
		if next == nil || next == b {
			return false
		}
		b = next
	}
}

// mapLoops is the map-keyed natural-loop finder Loops ran before its
// membership sets were indexed by block ID: member sets per header, and the
// loop depth of every block (the map version wrote it into LoopDepth).
func mapLoops(f *ir.Func) (members map[*ir.Block]map[*ir.Block]bool, depth map[*ir.Block]int) {
	idom := mapDominators(f)
	members = map[*ir.Block]map[*ir.Block]bool{}
	for _, b := range f.RPO() {
		for _, s := range b.Succs {
			if !mapDominates(idom, s, b) {
				continue
			}
			l := members[s]
			if l == nil {
				l = map[*ir.Block]bool{s: true}
				members[s] = l
			}
			stack := []*ir.Block{b}
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l[n] {
					continue
				}
				l[n] = true
				stack = append(stack, n.Preds...)
			}
		}
	}
	depth = map[*ir.Block]int{}
	for _, l := range members {
		for b := range l {
			depth[b]++
		}
	}
	return members, depth
}

// TestDominatorsLoopsMatchMapVersions holds the block-ID-indexed Dominators
// and Loops equal to the map-keyed versions for every function of the
// suite, Large and progen programs, on the lowered IR and again after the
// optimizer has rewritten it (deleting and renumbering blocks): the same
// idom per block, the same loop headers, the same members per loop with no
// block listed twice, and the same LoopDepth on every block.
func TestDominatorsLoopsMatchMapVersions(t *testing.T) {
	type program struct{ name, src string }
	var progs []program
	for _, p := range append(benchprog.All(), benchprog.Large()) {
		progs = append(progs, program{p.Name, p.Source})
	}
	seeds := 400
	if testing.Short() {
		seeds = 25
	}
	for seed := 0; seed < seeds; seed++ {
		progs = append(progs, program{fmt.Sprintf("progen%d", seed), progen.Generate(int64(seed), progen.DefaultConfig())})
	}
	check := func(name, stage string, m *ir.Module) {
		for _, f := range m.Funcs {
			if f.Extern || len(f.Blocks) == 0 {
				continue
			}
			where := fmt.Sprintf("%s %s: %s", name, stage, f.Name)
			idom, wantIdom := dataflow.Dominators(f), mapDominators(f)
			for _, b := range f.Blocks {
				if idom[b.ID] != wantIdom[b] {
					t.Errorf("%s: idom(%s) = %v, map version %v", where, b, idom[b.ID], wantIdom[b])
				}
			}
			wantMembers, wantDepth := mapLoops(f)
			loops := dataflow.Loops(f)
			if len(loops) != len(wantMembers) {
				t.Errorf("%s: %d loops, map version %d", where, len(loops), len(wantMembers))
			}
			for _, l := range loops {
				want, ok := wantMembers[l.Header]
				if !ok {
					t.Errorf("%s: header %s is not a map-version header", where, l.Header)
					continue
				}
				seen := map[*ir.Block]bool{}
				for _, b := range l.Blocks {
					if seen[b] {
						t.Errorf("%s: loop %s lists %s twice", where, l.Header, b)
					}
					seen[b] = true
					if !want[b] {
						t.Errorf("%s: loop %s has %s, map version does not", where, l.Header, b)
					}
				}
				if len(seen) != len(want) {
					t.Errorf("%s: loop %s has %d members, map version %d", where, l.Header, len(seen), len(want))
				}
			}
			for _, b := range f.Blocks {
				if b.LoopDepth != wantDepth[b] {
					t.Errorf("%s: LoopDepth(%s) = %d, map version %d", where, b, b.LoopDepth, wantDepth[b])
				}
			}
		}
	}
	for _, p := range progs {
		m, err := front.Build(p.src, false)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		check(p.name, "lowered", m)
		opt.Run(m)
		check(p.name, "optimized", m)
	}
}
