package regalloc

import (
	"fmt"
	"sort"

	"chow88/internal/ir"
	"chow88/internal/liveness"
)

// SplitSpilled implements the live-range splitting of Chow's priority-based
// coloring at basic-block granularity: a range that failed to obtain a
// register profitably is broken into block-local pieces connected through a
// home slot in the frame. Within each block that references the value, a
// fresh temp carries it (one load at block entry when the incoming value is
// needed, one store at block exit when a new value must flow out); the
// block-local pieces are short and call-free far more often than the
// original range, so a re-allocation round colors most of them.
//
// Splitting is capped at a few of the highest-weight spilled ranges: a
// split piece that itself fails to color in the re-allocation round costs
// extra glue traffic, so flooding a block with more pieces than the
// register file can hold is counterproductive.
//
// Returns the number of ranges split. The caller re-runs Allocate on the
// rewritten function.
func SplitSpilled(f *ir.Func, res *Result, allocatable int) int {
	split := 0
	// Identify candidates on the allocation that just ran: memory-resident
	// temps referenced in at least two blocks. Parameters are excluded —
	// their home is the incoming argument slot, which the calling
	// convention owns.
	params := map[int]bool{}
	for _, p := range f.Params {
		params[p.ID] = true
	}
	type cand struct {
		temp *ir.Temp
		rng  *liveness.Range
	}
	var cands []cand
	for _, rng := range res.Ranges {
		id := rng.Temp.ID
		if res.Locs[id].Kind != LocMem || params[id] || rng.Occurrences < 2 {
			continue
		}
		if refBlocks(f, rng.Temp) < 2 {
			continue
		}
		cands = append(cands, cand{temp: rng.Temp, rng: rng})
	}
	if len(cands) == 0 {
		return 0
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].rng.Weight != cands[j].rng.Weight {
			return cands[i].rng.Weight > cands[j].rng.Weight
		}
		return cands[i].temp.ID < cands[j].temp.ID
	})
	limit := allocatable - 3
	if limit < 1 {
		limit = 1
	}
	if len(cands) > limit {
		cands = cands[:limit]
	}

	live := res.Live
	for _, c := range cands {
		home := &ir.LocalArray{
			Name:     fmt.Sprintf("%s.home", c.temp.Name),
			Size:     1,
			IsSpill:  true,
			SpillVar: c.temp.IsVar,
		}
		f.LocalArrays = append(f.LocalArrays, home)
		ref := ir.ArrayRef{Local: home}

		for _, b := range f.Blocks {
			first, defs, uses := scanBlock(b, c.temp)
			if first == -1 {
				continue // not referenced here; the home carries the value
			}
			piece := f.NewTemp(fmt.Sprintf("%s@%s", c.temp.Name, b.Name), c.temp.IsVar)
			replaceInBlock(b, c.temp, piece)

			// Load the incoming value if the first access reads it.
			if uses && firstAccessReads(b, piece, first) {
				ld := &ir.Instr{Op: ir.OpLoadIdx, Dst: piece, Arr: ref, A: ir.ConstOp(0)}
				b.Instrs = append(b.Instrs[:first], append([]*ir.Instr{ld}, b.Instrs[first:]...)...)
			}
			// Store the outgoing value if the block redefines it and the
			// original range is live out.
			if defs && live.Out(b).Get(c.temp.ID) {
				st := &ir.Instr{Op: ir.OpStoreIdx, Arr: ref, A: ir.ConstOp(0), B: ir.TempOp(piece)}
				n := len(b.Instrs)
				if t := b.Terminator(); t != nil {
					b.Instrs = append(b.Instrs[:n-1], st, b.Instrs[n-1])
				} else {
					b.Instrs = append(b.Instrs, st)
				}
			}
		}
		split++
	}
	return split
}

// refBlocks counts the blocks referencing t.
func refBlocks(f *ir.Func, t *ir.Temp) int {
	n := 0
	var buf []*ir.Temp
	for _, b := range f.Blocks {
		found := false
		for _, in := range b.Instrs {
			if in.Dst == t {
				found = true
				break
			}
			buf = in.Uses(buf[:0])
			for _, u := range buf {
				if u == t {
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if found {
			n++
		}
	}
	return n
}

// scanBlock finds the first instruction index referencing t and whether the
// block contains defs and uses of it.
func scanBlock(b *ir.Block, t *ir.Temp) (first int, defs, uses bool) {
	first = -1
	var buf []*ir.Temp
	for i, in := range b.Instrs {
		hit := false
		if in.Dst == t {
			defs = true
			hit = true
		}
		buf = in.Uses(buf[:0])
		for _, u := range buf {
			if u == t {
				uses = true
				hit = true
			}
		}
		if hit && first == -1 {
			first = i
		}
	}
	return first, defs, uses
}

// firstAccessReads reports whether the first reference to piece (at index
// first, post-replacement) reads it before writing it.
func firstAccessReads(b *ir.Block, piece *ir.Temp, first int) bool {
	in := b.Instrs[first]
	var buf []*ir.Temp
	buf = in.Uses(buf[:0])
	for _, u := range buf {
		if u == piece {
			return true
		}
	}
	return false
}

// replaceInBlock substitutes piece for t in every instruction of b.
func replaceInBlock(b *ir.Block, t, piece *ir.Temp) {
	repl := func(o *ir.Operand) {
		if o.Temp == t {
			o.Temp = piece
		}
	}
	for _, in := range b.Instrs {
		if in.Dst == t {
			in.Dst = piece
		}
		repl(&in.A)
		repl(&in.B)
		for i := range in.Args {
			repl(&in.Args[i])
		}
	}
}
