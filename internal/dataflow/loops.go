package dataflow

import "chow88/internal/ir"

// Dominators computes the immediate-dominator relation for f using the
// classic iterative algorithm over reverse postorder. The returned slice is
// indexed by block ID: the entry block maps to itself, and a block
// unreachable from the entry maps to nil.
func Dominators(f *ir.Func) []*ir.Block { return dominators(f, f.RPO()) }

// dominators is Dominators over f's reverse postorder rpo.
func dominators(f *ir.Func, rpo []*ir.Block) []*ir.Block {
	ids := f.NumBlockIDs()
	idom := make([]*ir.Block, ids)
	if len(rpo) == 0 {
		return idom
	}
	index := make([]int, ids)
	for i, b := range rpo {
		index[b.ID] = i
	}
	entry := f.Entry()
	idom[entry.ID] = entry

	intersect := func(a, b *ir.Block) *ir.Block {
		for a != b {
			for index[a.ID] > index[b.ID] {
				a = idom[a.ID]
			}
			for index[b.ID] > index[a.ID] {
				b = idom[b.ID]
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
				if idom[p.ID] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != nil && idom[b.ID] != newIdom {
				idom[b.ID] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether a dominates b under the idom slice Dominators
// returned.
func Dominates(idom []*ir.Block, a, b *ir.Block) bool {
	for {
		if a == b {
			return true
		}
		next := idom[b.ID]
		if next == nil || next == b {
			return false
		}
		b = next
	}
}

// Loop is a natural loop: a header and its member blocks, the header first
// and each member listed once.
type Loop struct {
	Header *ir.Block
	Blocks []*ir.Block
}

// Loops finds the natural loops of f (one per header; back edges sharing a
// header are merged), in reverse postorder of their headers, and annotates
// every block's LoopDepth with its loop nesting level. Blocks outside any
// loop get depth 0.
func Loops(f *ir.Func) []*Loop {
	for _, b := range f.Blocks {
		b.LoopDepth = 0
	}
	if len(f.Blocks) == 0 {
		return nil
	}
	rpo := f.RPO()
	idom := dominators(f, rpo)
	ids := f.NumBlockIDs()
	// One membership set per header: the walks of a header's back edges
	// may be separated by another loop's walk, so a single "last loop"
	// stamp per block would let the second walk list a block twice.
	byHeader := make([]*Loop, ids)
	member := make([][]bool, ids)
	var stack []*ir.Block
	for _, b := range rpo {
		for _, s := range b.Succs {
			if !Dominates(idom, s, b) {
				continue // not a back edge
			}
			l, in := byHeader[s.ID], member[s.ID]
			if l == nil {
				l = &Loop{Header: s, Blocks: []*ir.Block{s}}
				in = make([]bool, ids)
				in[s.ID] = true
				byHeader[s.ID], member[s.ID] = l, in
			}
			// Walk predecessors backward from the latch to the header.
			stack = append(stack[:0], b)
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if in[n.ID] {
					continue
				}
				in[n.ID] = true
				l.Blocks = append(l.Blocks, n)
				stack = append(stack, n.Preds...)
			}
		}
	}

	var out []*Loop
	for _, h := range rpo {
		if l := byHeader[h.ID]; l != nil {
			out = append(out, l)
			for _, b := range l.Blocks {
				b.LoopDepth++
			}
		}
	}
	return out
}
