package dataflow

import (
	"slices"
	"testing"
	"testing/quick"

	"chow88/internal/ir"
)

func TestBitVecBasics(t *testing.T) {
	v := NewBitVec(130)
	v.Set(0)
	v.Set(64)
	v.Set(129)
	if !v.Get(0) || !v.Get(64) || !v.Get(129) || v.Get(1) {
		t.Fatal("get/set broken")
	}
	if v.Count() != 3 {
		t.Fatalf("count = %d", v.Count())
	}
	v.Clear(64)
	if v.Get(64) || v.Count() != 2 {
		t.Fatal("clear broken")
	}
	var got []int
	v.ForEach(func(i int) { got = append(got, i) })
	if len(got) != 2 || got[0] != 0 || got[1] != 129 {
		t.Fatalf("foreach = %v", got)
	}
	if v.String() != "{0, 129}" {
		t.Fatalf("string = %s", v.String())
	}
}

func TestBitVecSetOps(t *testing.T) {
	a := NewBitVec(100)
	b := NewBitVec(100)
	a.Set(1)
	a.Set(50)
	b.Set(50)
	b.Set(99)
	u := NewBitVec(100)
	u.Copy(a)
	if !u.Union(b) {
		t.Fatal("union should change")
	}
	if u.Count() != 3 {
		t.Fatalf("union count = %d", u.Count())
	}
	if u.Union(b) {
		t.Fatal("second union should not change")
	}
	i := NewBitVec(100)
	i.Copy(a)
	i.Intersect(b)
	if i.Count() != 1 || !i.Get(50) {
		t.Fatalf("intersect = %s", i)
	}
	d := NewBitVec(100)
	d.Copy(a)
	d.AndNot(b)
	if d.Count() != 1 || !d.Get(1) {
		t.Fatalf("andnot = %s", d)
	}
}

func TestBitVecFillAll(t *testing.T) {
	v := NewBitVec(70)
	v.FillAll(70)
	if v.Count() != 70 {
		t.Fatalf("fillall count = %d", v.Count())
	}
	v.ClearAll()
	if !v.Empty() {
		t.Fatal("clearall broken")
	}
}

// Property: union is idempotent, commutative in effect, and monotone in count.
func TestBitVecUnionProperties(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a := NewBitVec(256)
		b := NewBitVec(256)
		for _, x := range xs {
			a.Set(int(x))
		}
		for _, y := range ys {
			b.Set(int(y))
		}
		u1 := NewBitVec(256)
		u1.Copy(a)
		u1.Union(b)
		u2 := NewBitVec(256)
		u2.Copy(b)
		u2.Union(a)
		if !u1.Equal(u2) {
			return false
		}
		if u1.Count() < a.Count() || u1.Count() < b.Count() {
			return false
		}
		// Idempotent.
		u3 := NewBitVec(256)
		u3.Copy(u1)
		if u3.Union(u1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// diamond builds: entry -> a, b; a,b -> join; join -> exit (straight).
func diamond() *ir.Func {
	f := ir.NewFunc("d")
	entry := f.NewBlock()
	a := f.NewBlock()
	b := f.NewBlock()
	join := f.NewBlock()
	cond := f.NewTemp("c", true)
	entry.Instrs = []*ir.Instr{
		{Op: ir.OpConst, Dst: cond, Imm: 1},
		{Op: ir.OpBr, A: ir.TempOp(cond), Target: a, Else: b},
	}
	a.Instrs = []*ir.Instr{{Op: ir.OpJmp, Target: join}}
	b.Instrs = []*ir.Instr{{Op: ir.OpJmp, Target: join}}
	join.Instrs = []*ir.Instr{ir.NewRet(nil)}
	f.ComputeCFG()
	return f
}

func TestDominatorsDiamond(t *testing.T) {
	f := diamond()
	idom := Dominators(f)
	entry, a, b, join := f.Blocks[0], f.Blocks[1], f.Blocks[2], f.Blocks[3]
	if idom[a.ID] != entry || idom[b.ID] != entry {
		t.Errorf("idom(a/b) wrong")
	}
	if idom[join.ID] != entry {
		t.Errorf("idom(join) = %v, want entry", idom[join.ID])
	}
	if !Dominates(idom, entry, join) || Dominates(idom, a, join) {
		t.Errorf("dominates relation wrong")
	}
}

// loopFunc builds: entry -> head; head -> body|exit; body -> head.
func loopFunc() *ir.Func {
	f := ir.NewFunc("l")
	entry := f.NewBlock()
	head := f.NewBlock()
	body := f.NewBlock()
	exit := f.NewBlock()
	c := f.NewTemp("c", true)
	entry.Instrs = []*ir.Instr{
		{Op: ir.OpConst, Dst: c, Imm: 1},
		{Op: ir.OpJmp, Target: head},
	}
	head.Instrs = []*ir.Instr{{Op: ir.OpBr, A: ir.TempOp(c), Target: body, Else: exit}}
	body.Instrs = []*ir.Instr{{Op: ir.OpJmp, Target: head}}
	exit.Instrs = []*ir.Instr{ir.NewRet(nil)}
	f.ComputeCFG()
	return f
}

func TestLoops(t *testing.T) {
	f := loopFunc()
	loops := Loops(f)
	if len(loops) != 1 {
		t.Fatalf("loops = %d", len(loops))
	}
	l := loops[0]
	if l.Header != f.Blocks[1] {
		t.Errorf("header = %v", l.Header)
	}
	if !slices.Contains(l.Blocks, f.Blocks[2]) || slices.Contains(l.Blocks, f.Blocks[3]) {
		t.Errorf("membership wrong: %v", l.Blocks)
	}
	if f.Blocks[1].LoopDepth != 1 || f.Blocks[2].LoopDepth != 1 {
		t.Errorf("depths: head=%d body=%d", f.Blocks[1].LoopDepth, f.Blocks[2].LoopDepth)
	}
	if f.Blocks[0].LoopDepth != 0 || f.Blocks[3].LoopDepth != 0 {
		t.Errorf("outside-loop depths wrong")
	}
}

func TestNestedLoopDepth(t *testing.T) {
	// entry -> h1; h1 -> h2|exit; h2 -> b2|l1latch; b2 -> h2; l1latch -> h1.
	f := ir.NewFunc("n")
	entry := f.NewBlock()
	h1 := f.NewBlock()
	h2 := f.NewBlock()
	b2 := f.NewBlock()
	latch1 := f.NewBlock()
	exit := f.NewBlock()
	c := f.NewTemp("c", true)
	entry.Instrs = []*ir.Instr{{Op: ir.OpConst, Dst: c, Imm: 1}, {Op: ir.OpJmp, Target: h1}}
	h1.Instrs = []*ir.Instr{{Op: ir.OpBr, A: ir.TempOp(c), Target: h2, Else: exit}}
	h2.Instrs = []*ir.Instr{{Op: ir.OpBr, A: ir.TempOp(c), Target: b2, Else: latch1}}
	b2.Instrs = []*ir.Instr{{Op: ir.OpJmp, Target: h2}}
	latch1.Instrs = []*ir.Instr{{Op: ir.OpJmp, Target: h1}}
	exit.Instrs = []*ir.Instr{ir.NewRet(nil)}
	f.ComputeCFG()
	Loops(f)
	if h2.LoopDepth != 2 || b2.LoopDepth != 2 {
		t.Errorf("inner depths: h2=%d b2=%d, want 2", h2.LoopDepth, b2.LoopDepth)
	}
	if h1.LoopDepth != 1 || latch1.LoopDepth != 1 {
		t.Errorf("outer depths: h1=%d latch=%d, want 1", h1.LoopDepth, latch1.LoopDepth)
	}
	if b2.Freq() <= h1.Freq() {
		t.Errorf("freq should grow with depth")
	}
}

// TestLoopsTwoBackEdgesAroundInnerLoop: the outer header h has two back
// edges (l1 -> h, l2 -> h) whose walks the reverse postorder separates by
// the inner loop's walk (b -> h2). Both outer walks reach the inner blocks,
// so a membership stamp shared across headers would list h2 and b twice in
// the outer loop and raise their depth (and Freq) to 3.
func TestLoopsTwoBackEdgesAroundInnerLoop(t *testing.T) {
	// entry -> h; h -> h2|exit; h2 -> b|l1; b -> h2|l2; l1 -> h; l2 -> h.
	f := ir.NewFunc("twoback")
	entry := f.NewBlock()
	h := f.NewBlock()
	h2 := f.NewBlock()
	b := f.NewBlock()
	l1 := f.NewBlock()
	l2 := f.NewBlock()
	exit := f.NewBlock()
	c := f.NewTemp("c", true)
	entry.Instrs = []*ir.Instr{{Op: ir.OpConst, Dst: c, Imm: 1}, {Op: ir.OpJmp, Target: h}}
	h.Instrs = []*ir.Instr{{Op: ir.OpBr, A: ir.TempOp(c), Target: h2, Else: exit}}
	h2.Instrs = []*ir.Instr{{Op: ir.OpBr, A: ir.TempOp(c), Target: b, Else: l1}}
	b.Instrs = []*ir.Instr{{Op: ir.OpBr, A: ir.TempOp(c), Target: h2, Else: l2}}
	l1.Instrs = []*ir.Instr{{Op: ir.OpJmp, Target: h}}
	l2.Instrs = []*ir.Instr{{Op: ir.OpJmp, Target: h}}
	exit.Instrs = []*ir.Instr{ir.NewRet(nil)}
	f.ComputeCFG()

	// The shape only tests something if the inner back edge is visited
	// between the two outer ones.
	var order []*ir.Block
	for _, blk := range f.RPO() {
		if blk == l1 || blk == b || blk == l2 {
			order = append(order, blk)
		}
	}
	if !slices.Equal(order, []*ir.Block{l1, b, l2}) {
		t.Fatalf("latch order in RPO = %v, want [l1 b l2]", order)
	}

	loops := Loops(f)
	if len(loops) != 2 || loops[0].Header != h || loops[1].Header != h2 {
		t.Fatalf("loops = %v, want headers [h h2] in RPO", loops)
	}
	sortByID := func(bs []*ir.Block) []*ir.Block {
		bs = slices.Clone(bs)
		slices.SortFunc(bs, func(x, y *ir.Block) int { return x.ID - y.ID })
		return bs
	}
	if got, want := sortByID(loops[0].Blocks), []*ir.Block{h, h2, b, l1, l2}; !slices.Equal(got, want) {
		t.Errorf("outer members = %v, want %v", got, want)
	}
	if got, want := sortByID(loops[1].Blocks), []*ir.Block{h2, b}; !slices.Equal(got, want) {
		t.Errorf("inner members = %v, want %v", got, want)
	}
	for blk, want := range map[*ir.Block]int{entry: 0, h: 1, h2: 2, b: 2, l1: 1, l2: 1, exit: 0} {
		if blk.LoopDepth != want {
			t.Errorf("LoopDepth(%s) = %d, want %d", blk, blk.LoopDepth, want)
		}
	}
}
