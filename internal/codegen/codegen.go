// Package codegen translates allocated IR into executable machine code.
//
// It realizes every decision of the allocation plan: temps live in their
// assigned registers or frame slots; callee-saved registers are saved and
// restored exactly where the shrink-wrap plan says; caller-saved registers
// holding values live across a call are saved/restored around it only when
// the callee (per its summary) may actually destroy them; and outgoing
// arguments are marshalled into the registers the callee expects — the
// paper's parameter-passing optimization falls out as vanished moves.
package codegen

import (
	"fmt"
	"strings"

	"chow88/internal/core"
	"chow88/internal/explain"
	"chow88/internal/faultinject"
	"chow88/internal/ir"
	"chow88/internal/mach"
	"chow88/internal/mcode"
	"chow88/internal/obs"
	"chow88/internal/regalloc"
)

// Generate produces a linked program image from the allocation plan: each
// function's body is emitted from its own (now frozen) plan and the oracle,
// then the bodies are linked in module order. It also returns the
// relocatable bodies the image was linked from (EmitFuncs' slice, which
// Link does not modify), so a caller can keep them without emitting twice.
func Generate(pp *core.ProgramPlan) (*mcode.Program, []*FuncCode, error) {
	// Placement decisions journal at emission time; the degradation loop may
	// generate several times per compile, and only the last generation's
	// placements describe the shipped program, so earlier ones are dropped.
	explain.Current().DropPlacements()
	codes, err := EmitFuncs(pp)
	if err != nil {
		return nil, nil, err
	}
	prog, err := Link(pp.Module, codes)
	return prog, codes, err
}

// FuncCode is one function's emitted body as a relocatable artifact:
// branch targets (J/BEQZ/BNEZ) are function-relative offsets, and call
// sites (JAL) carry the callee's 1-based module index in Imm until Link
// resolves them against the final layout. Because the body depends only on
// the function's own plan and its callees' published linkage, incremental
// recompilation can reuse a FuncCode verbatim whenever neither changed.
type FuncCode struct {
	Code      []mcode.Instr
	FrameSize int
	// Blocks records each basic block's start offset, function-relative,
	// in f.Blocks order.
	Blocks []mcode.BlockSpan
}

// EmitFunc generates one function's relocatable body from its plan.
func EmitFunc(pp *core.ProgramPlan, fp *core.FuncPlan) (*FuncCode, error) {
	g, err := emitOne(pp, fp)
	if err != nil {
		return nil, err
	}
	return g.funcCode()
}

// funcCode freezes the generator's buffer into a FuncCode, resolving the
// intra-function branch fixups to function-relative targets.
func (g *fngen) funcCode() (*FuncCode, error) {
	fc := &FuncCode{Code: g.code, FrameSize: g.frameSize}
	for _, fx := range g.fixes {
		id := fx.blk.ID
		if id >= len(g.blockStart) || g.blockStart[id] < 0 {
			return nil, fmt.Errorf("codegen: unresolved block %s", fx.blk.Name)
		}
		fc.Code[fx.at].Target = g.blockStart[id]
	}
	fc.Blocks = make([]mcode.BlockSpan, len(g.f.Blocks))
	for i, blk := range g.f.Blocks {
		fc.Blocks[i] = mcode.BlockSpan{BlockID: blk.ID, Start: g.blockStart[blk.ID]}
	}
	return fc, nil
}

// EmitFuncs emits every non-extern function's body in module order,
// returning one FuncCode per module function, nil for externs. Every
// function is emitted even after a failure, and the first error in module
// order wins, for a deterministic message.
func EmitFuncs(pp *core.ProgramPlan) ([]*FuncCode, error) {
	os := obs.Current()
	codes := make([]*FuncCode, len(pp.Module.Funcs))
	var first error
	for i, f := range pp.Module.Funcs {
		if f.Extern {
			continue
		}
		fp := pp.Funcs[f]
		if fp == nil {
			if first == nil {
				first = &FuncError{Func: f.Name, Err: fmt.Errorf("no plan recorded")}
			}
			continue
		}
		sp := os.Span(obs.PhaseCodegen, f.Name)
		fc, err := EmitFunc(pp, fp)
		sp.End()
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		codes[i] = fc
		os.Add(obs.CCodegenFuncs, 1)
	}
	if first != nil {
		return nil, first
	}
	return codes, nil
}

// FuncError attributes a code-generation failure to one function, so the
// pipeline can degrade just that procedure instead of failing the module.
type FuncError struct {
	Func string
	// Recovered marks an error recovered from a panic (only under
	// Mode.Validate; without validation panics propagate as before).
	Recovered bool
	Err       error
}

func (e *FuncError) Error() string {
	if e.Recovered {
		return fmt.Sprintf("codegen %s: recovered panic: %v", e.Func, e.Err)
	}
	return fmt.Sprintf("codegen %s: %v", e.Func, e.Err)
}

func (e *FuncError) Unwrap() error { return e.Err }

// emitOne generates one function body. Under Mode.Validate a panic is
// contained and surfaced as a *FuncError for graceful degradation.
func emitOne(pp *core.ProgramPlan, fp *core.FuncPlan) (g *fngen, err error) {
	if pp.Mode.Validate {
		defer func() {
			if r := recover(); r != nil {
				obs.Current().Add(obs.CCheckPanics, 1)
				g = nil
				err = &FuncError{Func: fp.F.Name, Recovered: true, Err: fmt.Errorf("%v", r)}
			}
		}()
	}
	faultinject.PanicCodegen(fp.F.Name)
	g = newFngen(pp, fp)
	if e := g.run(); e != nil {
		return nil, &FuncError{Func: fp.F.Name, Err: e}
	}
	return g, nil
}

// Link concatenates the emitted bodies in module order (one FuncCode per
// m.Funcs entry, nil for externs) and resolves cross-function references.
// The FuncCodes are read-only: relocation copies each instruction, so the
// same artifacts can be relinked into later images (incremental builds).
func Link(m *ir.Module, codes []*FuncCode) (*mcode.Program, error) {
	os := obs.Current()
	linkSpan := os.Span(obs.PhaseLink, "link")
	defer linkSpan.End()
	prog := &mcode.Program{DataSize: m.DataSize()}

	// Startup stub: call main, then exit.
	prog.Code = append(prog.Code, mcode.Instr{Op: mcode.JAL}, mcode.Instr{Op: mcode.EXIT})

	for i, f := range m.Funcs {
		fi := &mcode.FuncInfo{Name: f.Name, Extern: f.Extern}
		prog.Funcs = append(prog.Funcs, fi)
		if f.Extern {
			fi.Entry = -1
			continue
		}
		fc := codes[i]
		if fc == nil {
			return nil, &FuncError{Func: f.Name, Err: fmt.Errorf("no code emitted")}
		}
		fi.Entry = len(prog.Code)
		fi.FrameSize = fc.FrameSize
		for _, in := range fc.Code {
			switch in.Op {
			case mcode.J, mcode.BEQZ, mcode.BNEZ:
				in.Target += fi.Entry
			}
			prog.Code = append(prog.Code, in)
		}
		fi.End = len(prog.Code)
		for _, bs := range fc.Blocks {
			fi.Blocks = append(fi.Blocks, mcode.BlockSpan{BlockID: bs.BlockID, Start: fi.Entry + bs.Start})
		}
	}

	// Resolve JAL targets (the startup stub, Imm 0, is skipped here and
	// pointed at main below).
	for i := range prog.Code {
		in := &prog.Code[i]
		if in.Op == mcode.JAL && in.Imm != 0 {
			idx := int(in.Imm) - 1
			if idx < 0 || idx >= len(prog.Funcs) {
				return nil, fmt.Errorf("codegen: jal to unknown function %d", in.Imm)
			}
			// Calls to extern functions trap at run time (as in the
			// interpreter); jumping to -1 leaves the code image.
			in.Target = prog.Funcs[idx].Entry
		}
	}
	// The stub calls main.
	mainIdx := -1
	for i, f := range m.Funcs {
		if f.Name == "main" {
			mainIdx = i
		}
	}
	if mainIdx < 0 {
		return nil, fmt.Errorf("codegen: no main")
	}
	prog.Code[0].Target = prog.Funcs[mainIdx].Entry
	// Static link-time check: a malformed image (bad target, bad register
	// field) fails here rather than trapping mid-run in the simulator.
	if err := mcode.Verify(prog); err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	os.Add(obs.CLinkCodeWords, int64(len(prog.Code)))
	return prog, nil
}

type fixup struct {
	at  int // index into g.code
	blk *ir.Block
}

type fngen struct {
	pp  *core.ProgramPlan
	fp  *core.FuncPlan
	f   *ir.Func
	cfg *mach.Config

	code []mcode.Instr
	// blockStart is each block's start offset by block ID, -1 for an ID
	// not (yet) emitted.
	blockStart []int
	fixes      []fixup

	frameSize int
	outArgs   int
	arrOffset map[*ir.LocalArray]int
	tempHome  map[int]int // temp ID -> frame offset (memory temps)
	// saveSlot holds the preserved-on-entry values of callee-saved
	// registers (the shrink-wrap plan); callSlot holds transient
	// around-call saves of live values. A register may need both at once —
	// its caller's original value and a current live value — so the pools
	// are disjoint.
	saveSlot   map[mach.Reg]int
	callSlot   map[mach.Reg]int
	raSlot     int
	isLeaf     bool
	paramIndex map[int]int // temp ID -> parameter position

	// exp is the active explain journal (nil when recording is off); every
	// save/restore the function emits is journaled as the placement ground
	// truth, with the plan's eq-3.x provenance note where one was recorded.
	exp *explain.Journal

	// linkage, while set, flags emitted instructions as call-linkage
	// overhead for the tracer — except save/restore-classified accesses,
	// which stay in their own attribution bucket.
	linkage bool

	// liveAcross maps each call instruction to the registers holding values
	// that must survive it.
	liveAcross map[*ir.Instr]mach.RegSet
	// savesByBlock / restoresByBlock invert the shrink-wrap plan, by block
	// ID; ForEach emits each block's registers in ascending order.
	savesByBlock    []mach.RegSet
	restoresByBlock []mach.RegSet
}

func newFngen(pp *core.ProgramPlan, fp *core.FuncPlan) *fngen {
	ids := fp.F.NumBlockIDs()
	blockStart := make([]int, ids)
	for i := range blockStart {
		blockStart[i] = -1
	}
	byBlock := make([]mach.RegSet, 2*ids)
	return &fngen{
		pp:  pp,
		fp:  fp,
		f:   fp.F,
		cfg: pp.Mode.Config,
		exp: explain.Current(),

		blockStart:      blockStart,
		arrOffset:       map[*ir.LocalArray]int{},
		tempHome:        map[int]int{},
		saveSlot:        map[mach.Reg]int{},
		callSlot:        map[mach.Reg]int{},
		paramIndex:      map[int]int{},
		liveAcross:      map[*ir.Instr]mach.RegSet{},
		savesByBlock:    byBlock[:ids:ids],
		restoresByBlock: byBlock[ids:],
	}
}

func (g *fngen) emit(in mcode.Instr) {
	if g.linkage && in.Class != mcode.ClassSaveRestore {
		in.Linkage = true
	}
	g.code = append(g.code, in)
}

func (g *fngen) emitBranch(op mcode.OpCode, rs mach.Reg, blk *ir.Block) {
	g.fixes = append(g.fixes, fixup{at: len(g.code), blk: blk})
	g.emit(mcode.Instr{Op: op, Rs: rs})
}

func (g *fngen) loc(t *ir.Temp) regalloc.Loc { return g.fp.Alloc.Locs[t.ID] }

func (g *fngen) homeClass(t *ir.Temp) mcode.MemClass {
	if t.IsVar {
		return mcode.ClassScalar
	}
	return mcode.ClassSpill
}

func (g *fngen) run() error {
	g.layout()
	g.prologue()
	for bi, b := range g.f.Blocks {
		g.blockStart[b.ID] = len(g.code)
		if b == g.f.Entry() {
			// Entry-block saves and parameter moves were emitted by the
			// prologue, which is part of this block's code span.
			g.blockStart[b.ID] = 0
		} else {
			g.savesByBlock[b.ID].ForEach(func(r mach.Reg) { g.emitSave(b, r) })
		}
		var next *ir.Block
		if bi+1 < len(g.f.Blocks) {
			next = g.f.Blocks[bi+1]
		}
		for ii, in := range b.Instrs {
			isTerm := ii == len(b.Instrs)-1
			if err := g.instr(b, in, isTerm, next); err != nil {
				return err
			}
		}
	}
	return nil
}

// layout assigns the frame: [outgoing args][local arrays][memory temps]
// [register save slots]. Incoming argument i of this function lives at
// frameSize + i (the caller's outgoing area).
func (g *fngen) layout() {
	for i, p := range g.f.Params {
		g.paramIndex[p.ID] = i
	}
	g.isLeaf = g.f.IsLeaf()

	// Outgoing argument area.
	for _, cs := range g.f.CallSites() {
		for _, al := range g.pp.Oracle.ArgLocs(cs.Instr) {
			if !al.InReg && al.Slot+1 > g.outArgs {
				g.outArgs = al.Slot + 1
			}
		}
	}
	off := g.outArgs
	for _, arr := range g.f.LocalArrays {
		g.arrOffset[arr] = off
		off += arr.Size
	}
	// Memory temps (stack-passed parameters use their incoming slots, fixed
	// up after the frame size is known).
	var stackParams []int
	for _, t := range g.f.Temps() {
		l := g.loc(t)
		if l.Kind != regalloc.LocMem {
			continue
		}
		if pi, isParam := g.paramIndex[t.ID]; isParam && g.incomingIsStack(pi) {
			stackParams = append(stackParams, t.ID)
			continue
		}
		g.tempHome[t.ID] = off
		off++
	}
	// Save slots: one pool for the shrink-wrap plan's preserved values,
	// a disjoint pool for transient around-call saves.
	planRegs := g.fp.Plan.Regs()
	var needCallSlot mach.RegSet
	for _, rng := range g.fp.Alloc.Ranges {
		l := g.fp.Alloc.Locs[rng.Temp.ID]
		if l.Kind != regalloc.LocReg {
			continue
		}
		for _, cs := range rng.Calls {
			g.liveAcross[cs.Instr] = g.liveAcross[cs.Instr].Add(l.Reg)
			if g.pp.Oracle.Clobbered(cs.Instr).Has(l.Reg) {
				needCallSlot = needCallSlot.Add(l.Reg)
			}
		}
	}
	planRegs.ForEach(func(r mach.Reg) {
		g.saveSlot[r] = off
		off++
	})
	needCallSlot.ForEach(func(r mach.Reg) {
		g.callSlot[r] = off
		off++
	})
	if !g.isLeaf {
		g.raSlot = off
		off++
	}
	g.frameSize = off
	for _, id := range stackParams {
		g.tempHome[id] = g.frameSize + g.paramIndex[id]
	}
	// Invert the save plan for per-block emission.
	for r, blks := range g.fp.Plan.SaveAt {
		for _, b := range blks {
			g.savesByBlock[b.ID] = g.savesByBlock[b.ID].Add(r)
		}
	}
	for r, blks := range g.fp.Plan.RestoreAt {
		for _, b := range blks {
			g.restoresByBlock[b.ID] = g.restoresByBlock[b.ID].Add(r)
		}
	}
}

// incomingIsStack reports whether parameter i of this function arrives on
// the stack under the convention this function was compiled with.
func (g *fngen) incomingIsStack(i int) bool {
	if g.pp.Mode.IPRA && !g.fp.Open {
		// Closed procedure: the published location is wherever the param
		// temp settled; memory temps are stack-passed.
		return true
	}
	return i >= len(g.cfg.Params)
}

func (g *fngen) emitSave(b *ir.Block, r mach.Reg) {
	g.emit(mcode.Instr{Op: mcode.SW, Rs: mach.SP, Rt: r, Imm: int64(g.saveSlot[r]), Class: mcode.ClassSaveRestore})
	if g.exp != nil {
		why := g.fp.Plan.SaveWhy(r, b)
		g.exp.Record(g.f.Name, explain.Decision{
			Kind: explain.KindSave, Reg: r.String(), Block: b.Name,
			Cause: planCause(why), Freq: b.Freq(), Detail: why,
		})
	}
}

func (g *fngen) emitRestore(b *ir.Block, r mach.Reg) {
	g.emit(mcode.Instr{Op: mcode.LW, Rd: r, Rs: mach.SP, Imm: int64(g.saveSlot[r]), Class: mcode.ClassSaveRestore})
	if g.exp != nil {
		why := g.fp.Plan.RestoreWhy(r, b)
		g.exp.Record(g.f.Name, explain.Decision{
			Kind: explain.KindRestore, Reg: r.String(), Block: b.Name,
			Cause: planCause(why), Freq: b.Freq(), Detail: why,
		})
	}
}

// planCause maps a plan site's provenance note to the cause enum: the eq-3.x
// notes come from ShrinkWrap, the convention note from EntryExitPlan, and an
// empty note from a plan built while no journal was active (a cached
// incremental plan).
func planCause(why string) string {
	switch {
	case why == "":
		return "plan"
	case strings.HasPrefix(why, "eq "):
		return "shrink-wrap"
	default:
		return "entry-exit"
	}
}

func (g *fngen) prologue() {
	g.linkage = true
	defer func() { g.linkage = false }()
	if g.frameSize > 0 {
		g.emit(mcode.Instr{Op: mcode.ADD, Rd: mach.SP, Rs: mach.SP, HasImm: true, Imm: int64(-g.frameSize)})
	}
	if !g.isLeaf {
		g.emit(mcode.Instr{Op: mcode.SW, Rs: mach.SP, Rt: mach.RA, Imm: int64(g.raSlot), Class: mcode.ClassSaveRestore})
		if g.exp != nil {
			g.exp.Record(g.f.Name, explain.Decision{
				Kind: explain.KindSave, Reg: mach.RA.String(), Block: g.f.Entry().Name,
				Cause: "ra", Freq: g.f.Entry().Freq(),
				Detail: "non-leaf: return address preserved across calls",
			})
		}
	}
	g.savesByBlock[g.f.Entry().ID].ForEach(func(r mach.Reg) { g.emitSave(g.f.Entry(), r) })
	g.paramMoves()
}

// paramMoves places incoming parameters into their allocated homes.
func (g *fngen) paramMoves() {
	ipraClosed := g.pp.Mode.IPRA && !g.fp.Open
	var moves []move
	for i, p := range g.f.Params {
		l := g.loc(p)
		if l.Kind == regalloc.LocNone {
			continue // parameter never referenced
		}
		if !g.fp.Alloc.Ranges[p.ID].EntryLive {
			// Redefined on every path before any use: the incoming value is
			// never needed, and the register's activity range (hence any
			// shrink-wrapped save) starts at the redefinition — delivering
			// into it here would clobber the caller's value ahead of the save.
			continue
		}
		if ipraClosed {
			// The argument was delivered directly to the allocated home.
			continue
		}
		if i < len(g.cfg.Params) {
			src := g.cfg.Params[i]
			if l.Kind == regalloc.LocReg {
				if l.Reg != src {
					moves = append(moves, move{dstReg: l.Reg, srcKind: srcReg, srcReg: src})
				}
			} else {
				// Store the register argument into the memory home first,
				// before any register-to-register shuffling clobbers it.
				g.emit(mcode.Instr{Op: mcode.SW, Rs: mach.SP, Rt: src, Imm: int64(g.tempHome[p.ID]), Class: mcode.ClassScalar})
			}
		} else if l.Kind == regalloc.LocReg {
			// Stack argument promoted to a register: load it after the
			// register moves (its target cannot be a source, sources are
			// only parameter registers).
			defer func(reg mach.Reg, slot int) {
				g.emit(mcode.Instr{Op: mcode.LW, Rd: reg, Rs: mach.SP, Imm: int64(slot), Class: mcode.ClassScalar})
			}(l.Reg, g.frameSize+i)
		}
		// Stack argument in memory: its home is its incoming slot; nothing
		// to do.
	}
	g.parallelMoves(moves)
}

type srcKind int

const (
	srcReg srcKind = iota
	srcConst
	srcMem
)

type move struct {
	dstReg   mach.Reg
	srcKind  srcKind
	srcReg   mach.Reg
	srcConst int64
	srcOff   int
	srcClass mcode.MemClass
}

// parallelMoves emits a set of register moves that must appear to happen
// simultaneously. Register-to-register transfers run first (breaking cycles
// through $at); constant and memory sources fill in afterwards, since they
// read no target registers.
func (g *fngen) parallelMoves(moves []move) {
	var regMoves []move
	var rest []move
	for _, m := range moves {
		if m.srcKind == srcReg {
			if m.srcReg != m.dstReg {
				regMoves = append(regMoves, m)
			}
		} else {
			rest = append(rest, m)
		}
	}
	for len(regMoves) > 0 {
		emitted := false
		for i, m := range regMoves {
			blocked := false
			for j, o := range regMoves {
				if i != j && o.srcReg == m.dstReg {
					blocked = true
					break
				}
			}
			if !blocked {
				g.emit(mcode.Instr{Op: mcode.MOVE, Rd: m.dstReg, Rs: m.srcReg})
				regMoves = append(regMoves[:i], regMoves[i+1:]...)
				emitted = true
				break
			}
		}
		if emitted {
			continue
		}
		// Cycle: rotate through the assembler temporary.
		m := regMoves[0]
		g.emit(mcode.Instr{Op: mcode.MOVE, Rd: mach.AT, Rs: m.srcReg})
		for i := range regMoves {
			if regMoves[i].srcReg == m.srcReg {
				regMoves[i].srcReg = mach.AT
			}
		}
	}
	for _, m := range rest {
		switch m.srcKind {
		case srcConst:
			g.emit(mcode.Instr{Op: mcode.LI, Rd: m.dstReg, Imm: m.srcConst})
		case srcMem:
			g.emit(mcode.Instr{Op: mcode.LW, Rd: m.dstReg, Rs: mach.SP, Imm: int64(m.srcOff), Class: m.srcClass})
		}
	}
}

// readOp brings an operand's value into a register, using scratch when the
// value is not already register-resident.
func (g *fngen) readOp(o ir.Operand, scratch mach.Reg) mach.Reg {
	if o.IsConst() {
		g.emit(mcode.Instr{Op: mcode.LI, Rd: scratch, Imm: o.Const})
		return scratch
	}
	l := g.loc(o.Temp)
	if l.Kind == regalloc.LocReg {
		return l.Reg
	}
	g.emit(mcode.Instr{Op: mcode.LW, Rd: scratch, Rs: mach.SP, Imm: int64(g.tempHome[o.Temp.ID]), Class: g.homeClass(o.Temp)})
	return scratch
}

// dstReg returns the register to compute a result into, plus a commit step
// that stores it home if the temp lives in memory.
func (g *fngen) dstReg(t *ir.Temp, scratch mach.Reg) (mach.Reg, func()) {
	l := g.loc(t)
	if l.Kind == regalloc.LocReg {
		return l.Reg, func() {}
	}
	return scratch, func() {
		g.emit(mcode.Instr{Op: mcode.SW, Rs: mach.SP, Rt: scratch, Imm: int64(g.tempHome[t.ID]), Class: g.homeClass(t)})
	}
}

// fitsImm reports whether v can be used as an ALU immediate (16-bit signed,
// as on the R2000).
func fitsImm(v int64) bool { return v >= -32768 && v <= 32767 }

var aluOp = map[ir.Op]mcode.OpCode{
	ir.OpAdd: mcode.ADD, ir.OpSub: mcode.SUB, ir.OpMul: mcode.MUL,
	ir.OpDiv: mcode.DIV, ir.OpRem: mcode.REM,
	ir.OpCmpEq: mcode.SEQ, ir.OpCmpNe: mcode.SNE,
	ir.OpCmpLt: mcode.SLT, ir.OpCmpLe: mcode.SLE,
}

func (g *fngen) instr(b *ir.Block, in *ir.Instr, isTerm bool, next *ir.Block) error {
	switch in.Op {
	case ir.OpConst:
		rd, commit := g.dstReg(in.Dst, mach.K0)
		g.emit(mcode.Instr{Op: mcode.LI, Rd: rd, Imm: in.Imm})
		commit()
	case ir.OpCopy:
		rd, commit := g.dstReg(in.Dst, mach.K0)
		rs := g.readOp(in.A, rd)
		if rs != rd {
			g.emit(mcode.Instr{Op: mcode.MOVE, Rd: rd, Rs: rs})
		}
		commit()
	case ir.OpNeg:
		rd, commit := g.dstReg(in.Dst, mach.K0)
		rs := g.readOp(in.A, mach.K0)
		g.emit(mcode.Instr{Op: mcode.SUB, Rd: rd, Rs: mach.Zero, Rt: rs})
		commit()
	case ir.OpNot:
		rd, commit := g.dstReg(in.Dst, mach.K0)
		rs := g.readOp(in.A, mach.K0)
		g.emit(mcode.Instr{Op: mcode.SEQ, Rd: rd, Rs: rs, HasImm: true, Imm: 0})
		commit()
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpCmpEq, ir.OpCmpNe, ir.OpCmpLt, ir.OpCmpLe, ir.OpCmpGt, ir.OpCmpGe:
		g.binary(in)
	case ir.OpLoadG:
		rd, commit := g.dstReg(in.Dst, mach.K0)
		g.emit(mcode.Instr{Op: mcode.LW, Rd: rd, Rs: mach.Zero, Imm: int64(in.Global.Addr), Class: mcode.ClassScalar})
		commit()
	case ir.OpStoreG:
		rs := g.readOp(in.A, mach.K0)
		g.emit(mcode.Instr{Op: mcode.SW, Rs: mach.Zero, Rt: rs, Imm: int64(in.Global.Addr), Class: mcode.ClassScalar})
	case ir.OpLoadIdx:
		g.loadIdx(in)
	case ir.OpStoreIdx:
		g.storeIdx(in)
	case ir.OpFuncAddr:
		rd, commit := g.dstReg(in.Dst, mach.K0)
		g.emit(mcode.Instr{Op: mcode.LI, Rd: rd, Imm: g.pp.Module.FuncIndex(in.Callee)})
		commit()
	case ir.OpCall, ir.OpCallInd:
		g.call(b, in)
	case ir.OpPrint:
		rs := g.readOp(in.A, mach.K0)
		g.emit(mcode.Instr{Op: mcode.PRINT, Rs: rs})
	case ir.OpJmp:
		g.emitBlockRestores(b, 0)
		if in.Target != next {
			g.emitBranch(mcode.J, 0, in.Target)
		}
	case ir.OpBr:
		cond := g.readOp(in.A, mach.K0)
		cond = g.emitBlockRestores(b, cond)
		switch {
		case in.Else == next:
			g.emitBranch(mcode.BNEZ, cond, in.Target)
		case in.Target == next:
			g.emitBranch(mcode.BEQZ, cond, in.Else)
		default:
			g.emitBranch(mcode.BNEZ, cond, in.Target)
			g.emitBranch(mcode.J, 0, in.Else)
		}
	case ir.OpRet:
		g.linkage = true
		if g.f.Returns {
			rs := g.readOp(in.A, mach.K0)
			g.emit(mcode.Instr{Op: mcode.MOVE, Rd: mach.V0, Rs: rs})
		}
		g.emitBlockRestores(b, 0)
		if !g.isLeaf {
			g.emit(mcode.Instr{Op: mcode.LW, Rd: mach.RA, Rs: mach.SP, Imm: int64(g.raSlot), Class: mcode.ClassSaveRestore})
			if g.exp != nil {
				g.exp.Record(g.f.Name, explain.Decision{
					Kind: explain.KindRestore, Reg: mach.RA.String(), Block: b.Name,
					Cause: "ra", Freq: b.Freq(),
					Detail: "non-leaf: return address reloaded before return",
				})
			}
		}
		if g.frameSize > 0 {
			g.emit(mcode.Instr{Op: mcode.ADD, Rd: mach.SP, Rs: mach.SP, HasImm: true, Imm: int64(g.frameSize)})
		}
		g.emit(mcode.Instr{Op: mcode.JR, Rs: mach.RA})
		g.linkage = false
	default:
		return fmt.Errorf("unhandled IR op %s", in.Op)
	}
	_ = isTerm
	return nil
}

// emitBlockRestores emits this block's shrink-wrap restores before its
// terminator. If the branch condition lives in a register being restored,
// it is first copied to $at; the (possibly relocated) condition register is
// returned.
func (g *fngen) emitBlockRestores(b *ir.Block, cond mach.Reg) mach.Reg {
	regs := g.restoresByBlock[b.ID]
	if regs.Has(cond) {
		g.emit(mcode.Instr{Op: mcode.MOVE, Rd: mach.AT, Rs: cond})
		cond = mach.AT
	}
	regs.ForEach(func(r mach.Reg) { g.emitRestore(b, r) })
	return cond
}

func (g *fngen) binary(in *ir.Instr) {
	op := in.Op
	a, bb := in.A, in.B
	// Gt/Ge become Lt/Le with swapped operands.
	if op == ir.OpCmpGt {
		op, a, bb = ir.OpCmpLt, bb, a
	} else if op == ir.OpCmpGe {
		op, a, bb = ir.OpCmpLe, bb, a
	}
	rd, commit := g.dstReg(in.Dst, mach.K0)
	ra := g.readOp(a, mach.K0)
	// Immediate form when the right operand is a small constant (division
	// keeps the register form so the zero-divisor trap logic is uniform).
	if bb.IsConst() && fitsImm(bb.Const) && op != ir.OpDiv && op != ir.OpRem {
		g.emit(mcode.Instr{Op: aluOp[op], Rd: rd, Rs: ra, HasImm: true, Imm: bb.Const})
		commit()
		return
	}
	rb := g.readOp(bb, mach.K1)
	g.emit(mcode.Instr{Op: aluOp[op], Rd: rd, Rs: ra, Rt: rb})
	commit()
}

// arrClass classifies an element access: aggregate for real arrays, scalar
// traffic for the one-word home slots of split live ranges.
func arrClass(arr ir.ArrayRef) mcode.MemClass {
	if arr.Local != nil && arr.Local.IsSpill {
		if arr.Local.SpillVar {
			return mcode.ClassScalar
		}
		return mcode.ClassSpill
	}
	return mcode.ClassAggregate
}

func (g *fngen) loadIdx(in *ir.Instr) {
	rd, commit := g.dstReg(in.Dst, mach.K0)
	class := arrClass(in.Arr)
	g.emitArrayAccess(in.Arr, in.A, func(base mach.Reg, off int64) {
		g.emit(mcode.Instr{Op: mcode.LW, Rd: rd, Rs: base, Imm: off, Class: class})
	})
	commit()
}

func (g *fngen) storeIdx(in *ir.Instr) {
	class := arrClass(in.Arr)
	g.emitArrayAccess(in.Arr, in.A, func(base mach.Reg, off int64) {
		// The address register is base (possibly $k1); the value may use
		// $k0 freely — the index value is consumed.
		rv := g.readOp(in.B, mach.K0)
		g.emit(mcode.Instr{Op: mcode.SW, Rs: base, Rt: rv, Imm: off, Class: class})
	})
}

// emitArrayAccess computes the base register and constant offset for an
// element access and invokes gen to emit the memory operation.
func (g *fngen) emitArrayAccess(arr ir.ArrayRef, idx ir.Operand, gen func(base mach.Reg, off int64)) {
	if arr.Global != nil {
		base := int64(arr.Global.Addr)
		if idx.IsConst() {
			gen(mach.Zero, base+idx.Const)
			return
		}
		ri := g.readOp(idx, mach.K1)
		gen(ri, base)
		return
	}
	off := int64(g.arrOffset[arr.Local])
	if idx.IsConst() {
		gen(mach.SP, off+idx.Const)
		return
	}
	ri := g.readOp(idx, mach.K1)
	g.emit(mcode.Instr{Op: mcode.ADD, Rd: mach.K1, Rs: mach.SP, Rt: ri})
	gen(mach.K1, off)
}

// call emits a complete call sequence:
//  1. save caller-side registers holding values live across the call that
//     the callee may destroy,
//  2. marshal outgoing arguments (stack stores, then a parallel register
//     shuffle, then constant/memory fills),
//  3. transfer control,
//  4. restore the saved registers,
//  5. collect the result.
func (g *fngen) call(b *ir.Block, in *ir.Instr) {
	g.linkage = true
	defer func() { g.linkage = false }()
	callee := "(indirect)"
	if in.Op == ir.OpCall {
		callee = in.Callee.Name
	}
	clob := g.pp.Oracle.Clobbered(in)
	toSave := g.liveAcross[in] & clob
	var saved []mach.Reg
	toSave.ForEach(func(r mach.Reg) {
		g.emit(mcode.Instr{Op: mcode.SW, Rs: mach.SP, Rt: r, Imm: int64(g.callSlot[r]), Class: mcode.ClassSaveRestore})
		saved = append(saved, r)
		if g.exp != nil {
			g.exp.Record(g.f.Name, explain.Decision{
				Kind: explain.KindSave, Reg: r.String(), Callee: callee, Block: b.Name,
				Cause: "around-call", Freq: b.Freq(),
				Detail: fmt.Sprintf("live across the call and %s clobbers it (summary %s)", callee, clob),
			})
		}
	})

	// Indirect target value is fetched into $k1 before argument marshalling
	// can overwrite its register.
	if in.Op == ir.OpCallInd {
		rs := g.readOp(in.A, mach.K1)
		if rs != mach.K1 {
			g.emit(mcode.Instr{Op: mcode.MOVE, Rd: mach.K1, Rs: rs})
		}
	}

	locs := g.pp.Oracle.ArgLocs(in)
	var moves []move
	for i, a := range in.Args {
		al := locs[i]
		if !al.InReg {
			// Stack argument: store now, while all source registers are
			// still intact.
			rv := g.readOp(a, mach.K0)
			g.emit(mcode.Instr{Op: mcode.SW, Rs: mach.SP, Rt: rv, Imm: int64(al.Slot), Class: mcode.ClassScalar})
			continue
		}
		m := move{dstReg: al.Reg}
		switch {
		case a.IsConst():
			m.srcKind = srcConst
			m.srcConst = a.Const
		default:
			l := g.loc(a.Temp)
			if l.Kind == regalloc.LocReg {
				m.srcKind = srcReg
				m.srcReg = l.Reg
			} else {
				m.srcKind = srcMem
				m.srcOff = g.tempHome[a.Temp.ID]
				m.srcClass = g.homeClass(a.Temp)
			}
		}
		moves = append(moves, m)
	}
	g.parallelMoves(moves)

	if in.Op == ir.OpCall {
		// The function index is stashed in Imm for the link step.
		g.emit(mcode.Instr{Op: mcode.JAL, Imm: g.pp.Module.FuncIndex(in.Callee)})
	} else {
		g.emit(mcode.Instr{Op: mcode.JALR, Rs: mach.K1})
	}

	for _, r := range saved {
		g.emit(mcode.Instr{Op: mcode.LW, Rd: r, Rs: mach.SP, Imm: int64(g.callSlot[r]), Class: mcode.ClassSaveRestore})
		if g.exp != nil {
			g.exp.Record(g.f.Name, explain.Decision{
				Kind: explain.KindRestore, Reg: r.String(), Callee: callee, Block: b.Name,
				Cause: "around-call", Freq: b.Freq(),
				Detail: "reload after the call that clobbered it",
			})
		}
	}
	if in.Dst != nil {
		rd, commit := g.dstReg(in.Dst, mach.K0)
		g.emit(mcode.Instr{Op: mcode.MOVE, Rd: rd, Rs: mach.V0})
		commit()
	}
}
