// Package opt is the baseline scalar optimizer, standing in for the paper's
// -O2 global optimizer (Uopt): constant folding, block-local value numbering
// (CSE) and copy/constant propagation, liveness-based dead-code elimination,
// and control-flow simplification.
//
// The paper's baseline matters: its allocator improves on an already
// competent -O2, and the evaluation normalizes everything against it. All
// compilation modes here run the same optimizer so the measured deltas come
// from the allocation techniques alone.
package opt

import (
	"chow88/internal/dataflow"
	"chow88/internal/ir"
	"chow88/internal/liveness"
)

// Run optimizes every function of m in place.
func Run(m *ir.Module) {
	for _, f := range m.Funcs {
		if f.Extern {
			continue
		}
		RunFunc(f)
	}
}

// RunFunc optimizes a single function to a fixpoint (bounded).
func RunFunc(f *ir.Func) {
	s := newScratch(f.NumTemps())
	for i := 0; i < maxRounds; i++ {
		if !round(f, s) {
			break
		}
	}
}

// maxRounds bounds RunFunc's fixpoint iteration.
const maxRounds = 8

// round runs every pass over f once and reports whether any changed it.
func round(f *ir.Func, s *scratch) bool {
	changed := false
	for _, b := range f.Blocks {
		if s.localOptimize(b) {
			changed = true
		}
	}
	if foldBranches(f) {
		changed = true
	}
	if simplifyCFG(f) {
		changed = true
	}
	if s.deadCodeElim(f) {
		changed = true
	}
	return changed
}

// vnOperand is an operand's contribution to an expression key: a constant,
// or the value number of a temp. A value number names a value within one
// block: number t.ID is the value temp t held on entry to the block, and
// numbers from the function's temp count up are fresh values computed in
// the block. The tag keeps a constant apart from an equal value number.
type vnOperand struct {
	isConst bool
	v       int64
}

// exprKey identifies a pure computation for value numbering.
type exprKey struct {
	op     ir.Op
	a, b   vnOperand
	global *ir.Global     // OpLoadG's global, OpLoadIdx's global array
	local  *ir.LocalArray // OpLoadIdx's local array
	callee *ir.Func       // OpFuncAddr's function
}

// scratch is the value-numbering state of one RunFunc call, reused across
// its blocks and rounds.
type scratch struct {
	// vn[t.ID] is temp t's current value number when stamp[t.ID] == epoch,
	// and t.ID otherwise; bumping epoch resets every temp at once.
	vn    []int
	stamp []uint32
	epoch uint32
	// Fresh value numbers count up from firstFresh, the temp count.
	firstFresh int
	next       int
	// constVal maps value numbers to known constants.
	constVal map[int]int64
	// holder maps value numbers to a temp currently holding the value.
	holder map[int]*ir.Temp
	// available maps expression keys to value numbers.
	available map[exprKey]int

	// Dead-code elimination buffers.
	liveNow dataflow.BitVec
	keep    []bool
	uses    []*ir.Temp
}

func newScratch(temps int) *scratch {
	return &scratch{
		vn:         make([]int, temps),
		stamp:      make([]uint32, temps),
		firstFresh: temps,
		constVal:   map[int]int64{},
		holder:     map[int]*ir.Temp{},
		available:  map[exprKey]int{},
		liveNow:    dataflow.NewBitVec(temps),
	}
}

// reset forgets every value of the previous block.
func (s *scratch) reset() {
	s.epoch++
	s.next = s.firstFresh
	clear(s.constVal)
	clear(s.holder)
	clear(s.available)
}

// valueOf returns the value number t currently holds.
func (s *scratch) valueOf(t *ir.Temp) int {
	if s.stamp[t.ID] == s.epoch {
		return s.vn[t.ID]
	}
	return t.ID
}

// setValue records that t now holds value number n.
func (s *scratch) setValue(t *ir.Temp, n int) {
	s.vn[t.ID] = n
	s.stamp[t.ID] = s.epoch
}

// fresh returns a value number no other value in the block has.
func (s *scratch) fresh() int {
	n := s.next
	s.next++
	return n
}

func (s *scratch) operandKey(o ir.Operand) vnOperand {
	if o.Temp != nil {
		return vnOperand{v: int64(s.valueOf(o.Temp))}
	}
	return vnOperand{isConst: true, v: o.Const}
}

// killLoads invalidates the available loads that match.
func (s *scratch) killLoads(match func(k exprKey) bool) {
	for k := range s.available {
		if match(k) {
			delete(s.available, k)
		}
	}
}

// localOptimize performs constant folding, copy/constant propagation, and
// value numbering within one block. Returns whether anything changed.
func (s *scratch) localOptimize(b *ir.Block) bool {
	s.reset()
	changed := false

	substitute := func(o *ir.Operand) {
		if o.Temp == nil {
			return
		}
		n := s.valueOf(o.Temp)
		if c, ok := s.constVal[n]; ok {
			*o = ir.ConstOp(c)
			changed = true
			return
		}
		if h, ok := s.holder[n]; ok && h != o.Temp && s.valueOf(h) == n {
			*o = ir.TempOp(h)
			changed = true
		}
	}

	for idx, in := range b.Instrs {
		// Propagate into operands.
		switch in.Op {
		case ir.OpJmp:
		case ir.OpCall, ir.OpCallInd:
			if in.Op == ir.OpCallInd {
				substitute(&in.A)
			}
			for i := range in.Args {
				substitute(&in.Args[i])
			}
		default:
			substitute(&in.A)
			substitute(&in.B)
		}

		// Fold pure ops with constant operands.
		if folded, ok := fold(in); ok {
			b.Instrs[idx] = folded
			in = folded
			changed = true
		}

		// Effects on the local value state.
		switch in.Op {
		case ir.OpConst:
			n := s.fresh()
			s.setValue(in.Dst, n)
			s.constVal[n] = in.Imm
			s.holder[n] = in.Dst
		case ir.OpCopy:
			if in.A.Temp != nil {
				n := s.valueOf(in.A.Temp)
				s.setValue(in.Dst, n)
				if _, ok := s.holder[n]; !ok {
					s.holder[n] = in.A.Temp
				}
			} else {
				n := s.fresh()
				s.setValue(in.Dst, n)
				s.constVal[n] = in.A.Const
				s.holder[n] = in.Dst
			}
		case ir.OpNeg, ir.OpNot, ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
			ir.OpCmpEq, ir.OpCmpNe, ir.OpCmpLt, ir.OpCmpLe, ir.OpCmpGt, ir.OpCmpGe,
			ir.OpLoadG, ir.OpLoadIdx, ir.OpFuncAddr:
			key := exprKey{op: in.Op, global: in.Global}
			if in.Op == ir.OpFuncAddr {
				key.callee = in.Callee
			} else {
				key.a = s.operandKey(in.A)
				key.b = s.operandKey(in.B)
			}
			if in.Op == ir.OpLoadIdx {
				if in.Arr.Global != nil {
					key.global = in.Arr.Global
				} else {
					key.local = in.Arr.Local
				}
			}
			if n, ok := s.available[key]; ok {
				if h, hok := s.holder[n]; hok && s.valueOf(h) == n && h != in.Dst {
					// Replace the recomputation with a copy (CSE).
					b.Instrs[idx] = &ir.Instr{Op: ir.OpCopy, Dst: in.Dst, A: ir.TempOp(h)}
					s.setValue(in.Dst, n)
					changed = true
					continue
				}
			}
			n := s.fresh()
			s.setValue(in.Dst, n)
			s.holder[n] = in.Dst
			s.available[key] = n
		case ir.OpStoreG:
			// A scalar-global store invalidates loads of that global (and,
			// conservatively, nothing else).
			s.killLoads(func(k exprKey) bool { return k.op == ir.OpLoadG && k.global == in.Global })
		case ir.OpStoreIdx:
			// An indexed store conservatively invalidates all indexed loads.
			s.killLoads(func(k exprKey) bool { return k.op == ir.OpLoadIdx })
		case ir.OpCall, ir.OpCallInd:
			// A call may store to any global.
			s.killLoads(func(k exprKey) bool { return k.op == ir.OpLoadG || k.op == ir.OpLoadIdx })
			if in.Dst != nil {
				n := s.fresh()
				s.setValue(in.Dst, n)
				s.holder[n] = in.Dst
			}
		}
	}
	return changed
}

// fold evaluates pure instructions with constant operands.
func fold(in *ir.Instr) (*ir.Instr, bool) {
	c := func(v int64) (*ir.Instr, bool) {
		return &ir.Instr{Op: ir.OpConst, Dst: in.Dst, Imm: v}, true
	}
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	switch in.Op {
	case ir.OpNeg:
		if in.A.IsConst() {
			return c(-in.A.Const)
		}
	case ir.OpNot:
		if in.A.IsConst() {
			return c(b2i(in.A.Const == 0))
		}
	case ir.OpCopy:
		if in.A.IsConst() {
			return c(in.A.Const)
		}
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpCmpEq, ir.OpCmpNe, ir.OpCmpLt, ir.OpCmpLe, ir.OpCmpGt, ir.OpCmpGe:
		if !in.A.IsConst() || !in.B.IsConst() {
			// Algebraic identities with one constant.
			if in.Op == ir.OpAdd && in.B.IsConst() && in.B.Const == 0 && in.A.Temp != nil {
				return &ir.Instr{Op: ir.OpCopy, Dst: in.Dst, A: in.A}, true
			}
			if in.Op == ir.OpAdd && in.A.IsConst() && in.A.Const == 0 && in.B.Temp != nil {
				return &ir.Instr{Op: ir.OpCopy, Dst: in.Dst, A: in.B}, true
			}
			if in.Op == ir.OpSub && in.B.IsConst() && in.B.Const == 0 && in.A.Temp != nil {
				return &ir.Instr{Op: ir.OpCopy, Dst: in.Dst, A: in.A}, true
			}
			if in.Op == ir.OpMul && in.B.IsConst() && in.B.Const == 1 && in.A.Temp != nil {
				return &ir.Instr{Op: ir.OpCopy, Dst: in.Dst, A: in.A}, true
			}
			if in.Op == ir.OpMul && in.A.IsConst() && in.A.Const == 1 && in.B.Temp != nil {
				return &ir.Instr{Op: ir.OpCopy, Dst: in.Dst, A: in.B}, true
			}
			return nil, false
		}
		x, y := in.A.Const, in.B.Const
		switch in.Op {
		case ir.OpAdd:
			return c(x + y)
		case ir.OpSub:
			return c(x - y)
		case ir.OpMul:
			return c(x * y)
		case ir.OpDiv:
			if y == 0 {
				return nil, false // keep the trap
			}
			if x == -1<<63 && y == -1 {
				return c(x)
			}
			return c(x / y)
		case ir.OpRem:
			if y == 0 {
				return nil, false
			}
			if x == -1<<63 && y == -1 {
				return c(0)
			}
			return c(x % y)
		case ir.OpCmpEq:
			return c(b2i(x == y))
		case ir.OpCmpNe:
			return c(b2i(x != y))
		case ir.OpCmpLt:
			return c(b2i(x < y))
		case ir.OpCmpLe:
			return c(b2i(x <= y))
		case ir.OpCmpGt:
			return c(b2i(x > y))
		case ir.OpCmpGe:
			return c(b2i(x >= y))
		}
	}
	return nil, false
}

// foldBranches turns branches on constants into jumps.
func foldBranches(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpBr || !t.A.IsConst() {
			continue
		}
		target := t.Target
		if t.A.Const == 0 {
			target = t.Else
		}
		b.Instrs[len(b.Instrs)-1] = &ir.Instr{Op: ir.OpJmp, Target: target}
		changed = true
	}
	if changed {
		f.ComputeCFG()
		f.RemoveUnreachable()
	}
	return changed
}

// deadCodeElim removes side-effect-free instructions whose results are dead.
func (s *scratch) deadCodeElim(f *ir.Func) bool {
	live := liveness.Analyze(f)
	swept := false
	for _, b := range f.Blocks {
		liveNow := s.liveOut(live, b)
		// Backward sweep marking dead defs.
		if cap(s.keep) < len(b.Instrs) {
			s.keep = make([]bool, len(b.Instrs))
		}
		keep := s.keep[:len(b.Instrs)]
		deleted := false
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			dead := in.Dst != nil && !liveNow.Get(in.Dst.ID) && !in.HasSideEffects()
			keep[i] = !dead
			if dead {
				deleted = true
				continue
			}
			s.step(liveNow, in)
		}
		if deleted {
			out := b.Instrs[:0]
			for i, in := range b.Instrs {
				if keep[i] {
					out = append(out, in)
				}
			}
			clear(b.Instrs[len(out):])
			b.Instrs = out
			swept = true
		}
	}
	// Calls whose results are dead keep the call but drop the destination.
	// Liveness changes only if the sweep deleted something.
	if swept {
		live = liveness.Analyze(f)
	}
	changed := swept
	for _, b := range f.Blocks {
		liveNow := s.liveOut(live, b)
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			if in.Op.IsCall() && in.Dst != nil && !liveNow.Get(in.Dst.ID) {
				in.Dst = nil
				changed = true
			}
			s.step(liveNow, in)
		}
	}
	return changed
}

// liveOut loads b's live-out set into the reused liveNow buffer.
func (s *scratch) liveOut(live *liveness.Result, b *ir.Block) dataflow.BitVec {
	s.liveNow.Copy(live.Out(b))
	return s.liveNow
}

// step moves liveNow backward over in: its def dies, its uses become live.
func (s *scratch) step(liveNow dataflow.BitVec, in *ir.Instr) {
	if in.Dst != nil {
		liveNow.Clear(in.Dst.ID)
	}
	s.uses = in.Uses(s.uses[:0])
	for _, t := range s.uses {
		liveNow.Set(t.ID)
	}
}

// simplifyCFG threads jumps through empty blocks and merges straight-line
// pairs, shrinking the CFG the shrink-wrap analysis sees.
func simplifyCFG(f *ir.Func) bool {
	changed := false
	// Thread jumps to blocks that only jump elsewhere.
	jumpOnly := func(b *ir.Block) *ir.Block {
		if len(b.Instrs) == 1 && b.Instrs[0].Op == ir.OpJmp {
			return b.Instrs[0].Target
		}
		return nil
	}
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil {
			continue
		}
		redirect := func(blk *ir.Block) *ir.Block {
			seen := map[*ir.Block]bool{}
			for {
				next := jumpOnly(blk)
				if next == nil || seen[blk] || next == blk {
					return blk
				}
				seen[blk] = true
				blk = next
			}
		}
		switch t.Op {
		case ir.OpJmp:
			if n := redirect(t.Target); n != t.Target {
				t.Target = n
				changed = true
			}
		case ir.OpBr:
			if n := redirect(t.Target); n != t.Target {
				t.Target = n
				changed = true
			}
			if n := redirect(t.Else); n != t.Else {
				t.Else = n
				changed = true
			}
			if t.Target == t.Else {
				b.Instrs[len(b.Instrs)-1] = &ir.Instr{Op: ir.OpJmp, Target: t.Target}
				changed = true
			}
		}
	}
	if changed {
		f.ComputeCFG()
		f.RemoveUnreachable()
	}
	// Merge b -> s when b jumps to s and s has exactly one predecessor.
	merged := false
	for _, b := range f.Blocks {
		for {
			t := b.Terminator()
			if t == nil || t.Op != ir.OpJmp {
				break
			}
			s := t.Target
			if s == b || len(s.Preds) != 1 || s == f.Entry() {
				break
			}
			b.Instrs = append(b.Instrs[:len(b.Instrs)-1], s.Instrs...)
			s.Instrs = nil
			merged = true
			f.ComputeCFG()
		}
	}
	if merged {
		// Drop emptied blocks.
		var kept []*ir.Block
		for _, b := range f.Blocks {
			if len(b.Instrs) > 0 {
				kept = append(kept, b)
			}
		}
		f.Blocks = kept
		f.ComputeCFG()
		f.RemoveUnreachable()
		changed = true
	}
	return changed
}
