package core

import (
	"chow88/internal/dataflow"
	"chow88/internal/explain"
	"chow88/internal/ir"
	"chow88/internal/mach"
	"chow88/internal/regalloc"
)

// SavePlan records where each managed callee-saved register is saved and
// restored inside one procedure. Saves execute at the entries of the listed
// blocks; restores execute at their exits, immediately before the
// terminator.
type SavePlan struct {
	SaveAt    map[mach.Reg][]*ir.Block
	RestoreAt map[mach.Reg][]*ir.Block

	// saveWhy/restoreWhy hold the eq-3.x provenance note per placement site,
	// filled only while an explain journal is active. Unexported: the plan's
	// serialized forms (and the incremental linkage digest) never carry them.
	saveWhy    map[mach.Reg]map[*ir.Block]string
	restoreWhy map[mach.Reg]map[*ir.Block]string
}

// NewSavePlan returns an empty plan.
func NewSavePlan() *SavePlan {
	return &SavePlan{SaveAt: map[mach.Reg][]*ir.Block{}, RestoreAt: map[mach.Reg][]*ir.Block{}}
}

func noteWhy(m map[mach.Reg]map[*ir.Block]string, r mach.Reg, b *ir.Block, why string) map[mach.Reg]map[*ir.Block]string {
	if m == nil {
		m = map[mach.Reg]map[*ir.Block]string{}
	}
	if m[r] == nil {
		m[r] = map[*ir.Block]string{}
	}
	m[r][b] = why
	return m
}

// SaveWhy / RestoreWhy return the recorded provenance of one site; empty
// when no journal was active while the plan was built.
func (p *SavePlan) SaveWhy(r mach.Reg, b *ir.Block) string    { return p.saveWhy[r][b] }
func (p *SavePlan) RestoreWhy(r mach.Reg, b *ir.Block) string { return p.restoreWhy[r][b] }

// Regs returns the set of registers the plan manages. A nil plan manages
// nothing.
func (p *SavePlan) Regs() mach.RegSet {
	var s mach.RegSet
	if p == nil {
		return s
	}
	for r := range p.SaveAt {
		s = s.Add(r)
	}
	return s
}

// SaveAtEntryOnly reports whether r's only save site is the procedure's
// entry block — the §6 criterion for propagating the save/restore to the
// ancestors instead of keeping it local.
func (p *SavePlan) SaveAtEntryOnly(f *ir.Func, r mach.Reg) bool {
	sites := p.SaveAt[r]
	return len(sites) == 1 && sites[0] == f.Entry()
}

// Drop removes r from the plan (used when §6 decides to propagate upward).
func (p *SavePlan) Drop(r mach.Reg) {
	delete(p.SaveAt, r)
	delete(p.RestoreAt, r)
	delete(p.saveWhy, r)
	delete(p.restoreWhy, r)
}

// EntryExitPlan places every register of regs at the procedure entry and all
// exits — the unoptimized convention used when shrink-wrapping is disabled.
func EntryExitPlan(f *ir.Func, regs mach.RegSet) *SavePlan {
	p := NewSavePlan()
	exits := f.ExitBlocks()
	explainOn := explain.Current() != nil
	regs.ForEach(func(r mach.Reg) {
		p.SaveAt[r] = []*ir.Block{f.Entry()}
		p.RestoreAt[r] = append([]*ir.Block(nil), exits...)
		if explainOn {
			p.saveWhy = noteWhy(p.saveWhy, r, f.Entry(), "entry/exit convention (shrink-wrap off)")
			for _, x := range exits {
				p.restoreWhy = noteWhy(p.restoreWhy, r, x, "entry/exit convention (shrink-wrap off)")
			}
		}
	})
	return p
}

// regAPP computes the APP attribute (§5): for every block, the set of
// managed registers active in it. A register is active throughout the live
// range of every temp assigned to it (its "region of activity" — using the
// whole live range, not just reference sites, keeps restores from landing
// inside a region where the register still carries a live value), in blocks
// whose calls may destroy it according to the callee's summary (the parent
// answers for its children's unsaved callee-saved usage, §3), and in blocks
// where an outgoing argument is marshalled into it. The result is indexed
// by block ID.
func regAPP(f *ir.Func, alloc *regalloc.Result, oracle regalloc.Oracle, managed mach.RegSet) []mach.RegSet {
	app := make([]mach.RegSet, f.NumBlockIDs())
	for _, rng := range alloc.Ranges {
		l := alloc.Locs[rng.Temp.ID]
		if l.Kind != regalloc.LocReg || !managed.Has(l.Reg) {
			continue
		}
		for _, b := range rng.Blocks {
			app[b.ID] = app[b.ID].Add(l.Reg)
		}
	}
	for _, cs := range f.CallSites() {
		s := oracle.Clobbered(cs.Instr) & managed
		for _, al := range oracle.ArgLocs(cs.Instr) {
			if al.InReg && managed.Has(al.Reg) {
				s = s.Add(al.Reg)
			}
		}
		app[cs.Block.ID] = app[cs.Block.ID].Union(s)
	}
	return app
}

// ShrinkWrap computes optimized save/restore placement for the managed
// registers using the anticipability/availability equations (3.1)–(3.6),
// with the paper's two refinements: usage-range extension to keep insertion
// points correct without creating new CFG nodes (Fig. 2), and whole-loop
// APP propagation so a wrapped region never sits strictly inside a loop.
// app is the APP attribute indexed by block ID (regAPP's result); the
// extensions are made in it in place.
func ShrinkWrap(f *ir.Func, app []mach.RegSet, managed mach.RegSet) *SavePlan {
	plan := NewSavePlan()
	if managed.Empty() {
		return plan
	}
	loops := dataflow.Loops(f)
	blocks := f.RPO()

	// The flow sets are dense over block IDs: one flat slice per equation
	// family instead of a hash lookup in every fixpoint step.
	ids := f.NumBlockIDs()
	sets := make([]mach.RegSet, 4*ids)
	antIn := sets[0*ids : 1*ids]
	antOut := sets[1*ids : 2*ids]
	avIn := sets[2*ids : 3*ids]
	avOut := sets[3*ids : 4*ids]
	isExit := make([]bool, ids)
	for _, b := range blocks {
		if t := b.Terminator(); t != nil && t.Op == ir.OpRet {
			isExit[b.ID] = true
		}
	}
	entry := f.Entry()

	// Loop rule: a register used anywhere in a loop is treated as used
	// throughout the loop, so saves/restores never land inside it (§5).
	extendLoops := func() bool {
		changed := false
		for _, l := range loops {
			var union mach.RegSet
			for _, b := range l.Blocks {
				union = union.Union(app[b.ID])
			}
			for _, b := range l.Blocks {
				if app[b.ID] != app[b.ID].Union(union) {
					app[b.ID] = app[b.ID].Union(union)
					changed = true
				}
			}
		}
		return changed
	}
	for extendLoops() {
	}

	solve := func() {
		// Anticipability: backward, all-paths. Initialize interior to the
		// full set so the intersections converge downward.
		for _, b := range blocks {
			if isExit[b.ID] {
				antOut[b.ID] = 0
			} else {
				antOut[b.ID] = managed
			}
			antIn[b.ID] = app[b.ID].Union(antOut[b.ID])
		}
		for changed := true; changed; {
			changed = false
			for i := len(blocks) - 1; i >= 0; i-- {
				b := blocks[i]
				if !isExit[b.ID] {
					out := managed
					for _, s := range b.Succs {
						out &= antIn[s.ID]
					}
					if out != antOut[b.ID] {
						antOut[b.ID] = out
						changed = true
					}
				}
				in := app[b.ID].Union(antOut[b.ID])
				if in != antIn[b.ID] {
					antIn[b.ID] = in
					changed = true
				}
			}
		}
		// Availability: forward, all-paths.
		for _, b := range blocks {
			if b == entry {
				avIn[b.ID] = 0
			} else {
				avIn[b.ID] = managed
			}
			avOut[b.ID] = app[b.ID].Union(avIn[b.ID])
		}
		for changed := true; changed; {
			changed = false
			for _, b := range blocks {
				if b != entry {
					in := managed
					for _, p := range b.Preds {
						in &= avOut[p.ID]
					}
					if in != avIn[b.ID] {
						avIn[b.ID] = in
						changed = true
					}
				}
				out := app[b.ID].Union(avIn[b.ID])
				if out != avOut[b.ID] {
					avOut[b.ID] = out
					changed = true
				}
			}
		}
	}

	// Range extension (Fig. 2): insertion points must have uniform
	// predecessors (for saves) and successors (for restores); where paths
	// mix "already covered" with "not covered", extend the usage range into
	// the uncovered neighbours instead of splitting edges.
	extendRanges := func() bool {
		changed := false
		for _, b := range blocks {
			// Save side: want to insert where use is anticipated but not
			// available. A predecessor that neither anticipates nor has the
			// use available is an uncovered path; if any other predecessor
			// is covered, extend APP into the uncovered ones.
			need := antIn[b.ID] &^ avIn[b.ID]
			if need != 0 && len(b.Preds) > 0 {
				var covered, uncovered mach.RegSet
				for _, p := range b.Preds {
					cov := antIn[p.ID].Union(avOut[p.ID])
					covered = covered.Union(cov & need)
					uncovered = uncovered.Union(need &^ cov)
				}
				ext := covered & uncovered
				if ext != 0 {
					for _, p := range b.Preds {
						add := ext &^ (antIn[p.ID].Union(avOut[p.ID]))
						if add != 0 {
							app[p.ID] = app[p.ID].Union(add)
							changed = true
						}
					}
				}
			}
			// Restore side, symmetric on the reverse graph.
			need = avOut[b.ID] &^ antOut[b.ID]
			if need != 0 && len(b.Succs) > 0 {
				var covered, uncovered mach.RegSet
				for _, s := range b.Succs {
					cov := avOut[s.ID].Union(antIn[s.ID])
					covered = covered.Union(cov & need)
					uncovered = uncovered.Union(need &^ cov)
				}
				ext := covered & uncovered
				if ext != 0 {
					for _, s := range b.Succs {
						add := ext &^ (avOut[s.ID].Union(antIn[s.ID]))
						if add != 0 {
							app[s.ID] = app[s.ID].Union(add)
							changed = true
						}
					}
				}
			}
		}
		return changed
	}

	solve()
	for i := 0; i < 4*len(blocks)+8; i++ {
		if !extendRanges() {
			break
		}
		for extendLoops() {
		}
		solve()
	}

	// SAVE (3.5): at entries of blocks where the use is anticipated, not
	// yet available, and not anticipated in any predecessor.
	explainOn := explain.Current() != nil
	for _, b := range blocks {
		save := antIn[b.ID] &^ avIn[b.ID]
		for _, p := range b.Preds {
			save &^= antIn[p.ID].Union(avOut[p.ID])
		}
		save.ForEach(func(r mach.Reg) {
			plan.SaveAt[r] = append(plan.SaveAt[r], b)
			if explainOn {
				why := "eq 3.5: anticipated here, not available, no covered predecessor"
				if !app[b.ID].Has(r) {
					why += " (hoisted by range extension)"
				}
				plan.saveWhy = noteWhy(plan.saveWhy, r, b, why)
			}
		})
		// RESTORE (3.6): at exits of blocks where the use is available, no
		// longer anticipated, and not available in any successor.
		restore := avOut[b.ID] &^ antOut[b.ID]
		for _, s := range b.Succs {
			restore &^= avOut[s.ID].Union(antIn[s.ID])
		}
		restore.ForEach(func(r mach.Reg) {
			plan.RestoreAt[r] = append(plan.RestoreAt[r], b)
			if explainOn {
				why := "eq 3.6: available at exit, no longer anticipated, no covered successor"
				if !app[b.ID].Has(r) {
					why += " (sunk by range extension)"
				}
				plan.restoreWhy = noteWhy(plan.restoreWhy, r, b, why)
			}
		})
	}
	return plan
}
