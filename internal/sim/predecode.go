// Predecoding: one-time translation of an mcode.Program into the dense
// internal ISA the fast engine executes.
//
// The translation splits immediate and register ALU forms into distinct
// opcodes (the per-iteration HasImm test disappears), renames writes to
// $zero into a scratch slot (the hardwired zero needs no re-clearing),
// discovers basic blocks, and resolves every static control edge to the
// target's *block index* so the executor follows edges without consulting
// a pc map. Each block records its precomputed statistics delta; the
// executor counts block entries and materializes pixie.Stats from the
// deltas once per run. Two superinstruction fusions cut dispatches
// further: compare-and-branch pairs (SLT/SLE/SEQ/SNE feeding BEQZ/BNEZ),
// and prologue/epilogue save/restore runs (consecutive same-base SW or LW)
// which become one bounds check plus a tight copy loop. Instructions that
// write $sp are followed by a synthetic stack guard, so the common case
// pays nothing for overflow detection; blocks that fall through without a
// control instruction get a synthetic terminator carrying the edge.
//
// The most recently predecoded image is memoized, so rerunning the program
// just run pays the decode once, and no older program is kept alive.
package sim

import (
	"sync/atomic"

	"chow88/internal/mach"
	"chow88/internal/mcode"
	"chow88/internal/obs"
	"chow88/internal/pixie"
)

// xop enumerates the internal ISA. The *R/*I suffixes are the register and
// immediate ALU forms; the *B forms are fused compare-and-branch.
type xop uint8

const (
	xLI xop = iota
	xMOVE
	xADDR
	xADDI
	xSUBR
	xSUBI
	xMULR
	xMULI
	xDIVR
	xDIVI
	xREMR
	xREMI
	xSLTR
	xSLTI
	xSLER
	xSLEI
	xSEQR
	xSEQI
	xSNER
	xSNEI
	xLW
	xSW
	xBEQZ
	xBNEZ
	xJ
	xJAL
	xJALR
	xJR
	xPRINT
	xEXIT
	// Fused compare-and-branch: the comparison result is still written to
	// rd (it may be read later), then the branch decides on it directly.
	xSLTRB
	xSLTIB
	xSLERB
	xSLEIB
	xSEQRB
	xSEQIB
	xSNERB
	xSNEIB
	// Memory runs: n consecutive same-base stores or loads executed under
	// one bounds check.
	xSWRUN
	xLWRUN
	// Pair superinstructions for the hottest adjacent opcode pairs in
	// compiled code (register shuffling around calls dominates the dynamic
	// mix): two dispatches become one. The MOVE half packs its registers
	// into whichever fields the primary op leaves free — rt/flags for
	// immediate forms, the low bytes of imm for register forms.
	xMOVE2    // MOVE ; MOVE
	xLIMOVE   // LI ; MOVE
	xLIDIVR   // LI rd,imm ; DIV rt, rs / rd   (imm != 0)
	xLIREMR   // LI rd,imm ; REM rt, rs % rd   (imm != 0)
	xADDRMOVE // ADD (reg) ; MOVE
	xADDIMOVE // ADD (imm) ; MOVE
	xMULRMOVE // MUL (reg) ; MOVE
	xMULIMOVE // MUL (imm) ; MOVE
	xMOVEADDR // MOVE ; ADD (reg)
	xMOVEADDI // MOVE ; ADD (imm)
	xMOVEMULR // MOVE ; MUL (reg)
	xMOVEMULI // MOVE ; MUL (imm)
	xMOVEJ    // MOVE ; J
	xMOVEJAL  // MOVE ; JAL      (imm = return address)
	xMOVEJR   // MOVE ; JR rt
	// LW-pair superinstructions. Fusions with a faultable half work
	// because the trap helpers reconstruct partial statistics from the
	// original code at any pc: a fault in the second half reports pc+1
	// with the first half's effects already applied. When the load is the
	// first half its offset moves to a1 (pairs fuse only when it fits
	// int32), freeing imm for the second op; the second op's registers
	// sit in rt/flags, with a third register packed into imm's low byte
	// for register forms.
	xLWMOVE  // LW ; MOVE
	xLWADDR  // LW ; ADD (reg)
	xLWADDI  // LW ; ADD (imm)
	xLWSEQR  // LW ; SEQ (reg)
	xLWSEQI  // LW ; SEQ (imm)
	xLWSLTR  // LW ; SLT (reg)
	xLWSLTI  // LW ; SLT (imm)
	xLWSLER  // LW ; SLE (reg)
	xLWSLEI  // LW ; SLE (imm)
	xLWSNER  // LW ; SNE (reg)
	xLWSNEI  // LW ; SNE (imm)
	xLWDIVR  // LW ; DIV (reg)  — divisor checked at run time
	xMOVELW  // MOVE ; LW       (offset stays in imm; move in rt/flags)
	xADDRLW  // ADD (reg) ; LW  (load rd in flags, base in imm's low byte)
	xADDILW  // ADD (imm) ; LW  (load rd/base in rt/flags, offset in a1)
	xMULIADD // MUL (imm) ; ADD (reg) — array indexing (scale, then base)
	// Triple superinstructions: a fused pair extended with the block
	// terminator, so load-test-branch sequences and tail jumps retire in a
	// single dispatch that falls straight into the edge code. In the
	// LW+compare+branch family the packed imm carries the load offset in
	// its low 32 bits and the compare operand (immediate or register
	// number) in its high 32; flags holds the compare source register
	// shifted left one, with fBNZ in bit 0; a1 is the taken block and a2
	// the pair's own block (the fallthrough block is always a2+1 — triples
	// fuse only when the branch does not sit on the last code index).
	xLWSEQRB // LW ; SEQ (reg) ; BEQZ/BNEZ
	xLWSEQIB // LW ; SEQ (imm) ; BEQZ/BNEZ
	xLWSNERB // LW ; SNE (reg) ; BEQZ/BNEZ
	xLWSNEIB // LW ; SNE (imm) ; BEQZ/BNEZ
	xLWSLTRB // LW ; SLT (reg) ; BEQZ/BNEZ
	xLWSLTIB // LW ; SLT (imm) ; BEQZ/BNEZ
	xLWSLERB // LW ; SLE (reg) ; BEQZ/BNEZ
	xLWSLEIB // LW ; SLE (imm) ; BEQZ/BNEZ
	// xADDIMOVEJ and xLIMOVEJR absorb an unconditional terminator into the
	// preceding pair: the J's target block rides in a1; the JR's source
	// register rides in rs (free in both pair encodings).
	xADDIMOVEJ // ADD (imm) ; MOVE ; J
	xLIMOVEJR  // LI ; MOVE ; JR
	// xLIREM2 is xLIREMR specialized to the constant 2, the dominant
	// divisor in the suite (parity tests): the compiler strength-reduces
	// the literal remainder where a variable divisor costs a hardware
	// divide.
	xLIREM2 // LI 2 ; REM (reg)
	// Peephole merges of adjacent superinstructions (see mergePeep).
	// xDIVLIREM2 keeps the divide's registers in rd/rs/rt and packs the
	// LI destination in flags and the remainder's dest/src into a1.
	// xMOVE2MOVEJAL packs the third move into imm's low bytes with the
	// return address above them. xMOVEADDMOVEMUL packs its two moves into
	// a1 (four register bytes), the multiply dest/src into flags/a2, and
	// the multiply immediate in imm.
	xDIVLIREM2      // DIV (reg) ; LI 2 ; REM (reg)
	xMOVE2MOVEJAL   // MOVE ; MOVE ; MOVE ; JAL
	xMOVEADDMOVEMUL // MOVE ; ADD (reg) ; MOVE ; MUL (imm)
	// xMOVELWADDMOVE shifts the load offset into imm's high half and packs
	// the add's three registers into imm's low bytes and the second move
	// into a1. xLWADDMOVEJ packs the add's register operand, the move, and
	// the jump's target block into imm (target above bit 24).
	xMOVELWADDMOVE // MOVE ; LW ; ADD (reg) ; MOVE
	xLWADDMOVEJ    // LW ; ADD (reg) ; MOVE ; J (or plain fallthrough)
	// xMOVEADDMOVEMULMOVEJ extends xMOVEADDMOVEMUL with a trailing move
	// and jump: the multiply immediate narrows to imm's low 32 bits (the
	// merge requires it to fit) with the target block above it, and the
	// final move's registers join the multiply source in a2.
	xMOVEADDMOVEMULMOVEJ // MOVE ; ADD (reg) ; MOVE ; MUL (imm) ; MOVE ; J
	// xMOVEFALL is a trailing move folded into its block's synthetic
	// fallthrough terminator (a2 = fallthrough block, as for xFALL).
	xMOVEFALL // MOVE ; fall off block end
	// xDIVLIREM2X2SNEB fuses a whole parity-compare block tail — two
	// strength-reduced divide/parity pairs feeding a compare-and-branch
	// (the dominant shape of bit-walking loops): eight instructions retire
	// in one dispatch. The first divide keeps rd/rs/rt; imm packs, from the
	// low byte up, the first LI destination, the first parity destination,
	// then the second divide's rd/rs/rt, LI destination and parity
	// destination. flags carries the compare destination shifted left one
	// with fBNZ in bit 0 (as for the LW triples); a1 is the taken block and
	// the fallthrough is a2+1. The merge requires each remainder to read
	// its own divide's quotient and the compare to read the two parities,
	// so the executor can re-read every intermediate from the register file
	// at the reference interpreter's program points (alias-exact).
	xDIVLIREM2X2SNEB // DIV ; LI 2 ; REM ; DIV ; LI 2 ; REM ; SNE ; BEQZ/BNEZ
	// Call-linkage fusions: every frame adjust pays its stack guard inside
	// the add's dispatch, and the epilogue adjust+guard absorbs the return
	// jump too (the JR's source register rides in rt, which the immediate
	// add leaves free).
	xADDISPG   // ADD (imm) writing $sp ; stack guard
	xADDISPGJR // ADD (imm) writing $sp ; stack guard ; JR
	// More straight-line pairs from the dynamic histogram: a store or a
	// constant load followed by the next argument's constant, and a
	// trailing constant folded into the synthetic fallthrough (as
	// xMOVEFALL). xSWLI keeps the store's offset in a1 (int32-gated) and
	// the constant in imm; xLI2 keeps the first constant in imm and the
	// second (int32-gated) in a1.
	xSWLI   // SW ; LI
	xLI2    // LI ; LI
	xLIFALL // LI ; fall off block end
	// xMULIADDLWSEQIB is the array-probe loop shape: scale an index,
	// add the base, load, compare against a constant, branch. It fuses
	// only when the load's base is the add's destination and the compare
	// reads the loaded value, so the executor re-reads both from the
	// register file at the reference program points; imm packs, low byte
	// up, the multiply dest and source, the load dest, the load offset
	// (int16), the multiply immediate (int16) and the compare operand
	// (int8), all range-gated at merge time. rd/rs/rt hold the add's
	// dest and sources, flags>>1 the compare dest, and a1/a2 follow the
	// LW triple convention (taken target; own block, fallthrough a2+1).
	xMULIADDLWSEQIB // MUL (imm) ; ADD (reg) ; LW ; SEQ (imm) ; BEQZ/BNEZ
	// xSPG is a synthetic stack guard emitted after any instruction that
	// writes $sp; pc names the writer, a2 its block.
	xSPG
	// xFALL is the synthetic terminator of a block that ends without a
	// control instruction: a2 is the fallthrough block (or -1 when control
	// would run off the code image), pc the block's last instruction.
	xFALL
)

// fBNZ gives a fused compare-and-branch BNEZ sense (branch when the
// comparison holds); clear means BEQZ (branch when it fails).
const fBNZ uint8 = 1

// zeroSink is the scratch register slot that absorbs writes to $zero.
const zeroSink = mach.NumRegs

// xinstr is one predecoded instruction.
//
// a1/a2 carry block indices for control: a1 is the branch/jump/call target
// block (or the memRun index for xSWRUN/xLWRUN, or the faulting
// instruction's own block for xJALR), a2 the fallthrough block for
// terminators and the instruction's own block for faultable mid-block
// instructions (loads, stores, divides, runs, guards) so trap handlers
// know which entry count to unwind.
type xinstr struct {
	op    xop
	rd    uint8
	rs    uint8
	rt    uint8
	flags uint8
	imm   int64
	a1    int32
	a2    int32
	pc    int32 // original code index (trap reporting, return addresses)
}

// runEnt is one access of a fused memory run.
type runEnt struct {
	off int64
	reg uint8 // data source (SW) or destination (LW, $zero renamed)
}

// memRun is a fused run of consecutive same-base loads or stores. minOff
// and maxOff bound the touched offsets so the whole run needs one bounds
// check on the fast path.
type memRun struct {
	base   uint8
	minOff int64
	maxOff int64
	ents   []runEnt
}

// block is one straight-line basic block.
type block struct {
	start, end int32 // original code span [start, end)
	x0         int32 // first predecoded instruction in image.xcode
	ninstr     int64 // == end - start; budget pre-check
	// delta is the full-execution statistics of the block — everything the
	// reference interpreter would count running start..end-1 without a
	// fault. Taken is control-dependent and always zero here; the executor
	// counts it when a terminating branch fires.
	delta pixie.Stats
}

// blkEnt is the hot per-block pair the executor reads on every block
// transition. block itself is large (it embeds a full pixie.Stats), so
// indexing blocks[] per entry costs a cache line per transition; ents[]
// packs eight blocks per line instead. A negative x0 marks a block whose
// whole body is a single unconditional jump: -x0-1 is the jump's target
// block, and the executor follows the edge in the entry loop without
// dispatching the jump at all (the entry bookkeeping — count, budget —
// still runs per threaded block).
type blkEnt struct {
	x0     int32 // == blocks[i].x0, or -(target block)-1 for a J-only block
	ninstr int32 // == blocks[i].ninstr
}

// image is the predecoded program. It is immutable once built and shared
// across concurrent runs.
type image struct {
	blocks []block
	ents   []blkEnt
	xcode  []xinstr
	runs   []memRun
	// tails[bi] lists the blocks whose bodies were tail-inlined into block
	// bi (in chain order): bi's ninstr and delta include theirs, and flush
	// attributes bi's entry count to their code ranges when profiling.
	tails [][]int32
	// blockIdx maps a code index to its block when the index is a block
	// head, -1 otherwise. The executor needs it only for dynamic control
	// (JR, JALR) and as the stop-set when the reference interpreter
	// bridges a non-head entry.
	blockIdx []int32
}

// imgEntry is the memo slot's content: the program it was predecoded
// from, and its image, or nil with the verification failure that rejected
// the program — memoized too, so a rerun of a bad image takes the
// reference path without re-verifying, and the fallback reason survives to
// be reported on each Result.
type imgEntry struct {
	p      *mcode.Program
	img    *image
	reason string
}

// lastImage memoizes the most recently predecoded program. Every caller
// outside tests runs each program once, and the reruns (tests, benchmarks,
// a traced warm rerun) rerun the program they just ran, so one slot catches
// every hit while keeping at most one dead program and its image alive.
var lastImage atomic.Pointer[imgEntry]

// imageFor returns the image for p, memoized when p is the most recently
// predecoded program, plus the verification failure message when
// predecoding rejected it (the image is then nil).
func imageFor(p *mcode.Program) (*image, string) {
	s := obs.Current()
	if e := lastImage.Load(); e != nil && e.p == p {
		s.Add(obs.CSimImageCacheHits, 1)
		return e.img, e.reason
	}
	sp := s.Span(obs.PhasePredecode, "predecode")
	e := &imgEntry{p: p}
	e.img, e.reason = predecode(p)
	sp.End()
	s.Add(obs.CSimPredecodes, 1)
	if s != nil && e.img != nil {
		inlined := 0
		for _, t := range e.img.tails {
			inlined += len(t)
		}
		s.Add(obs.CSimTailInlined, int64(inlined))
	}
	lastImage.Store(e)
	return e.img, e.reason
}

// runOffOK bounds offsets eligible for memory-run fusion; within it, the
// run's base+minOff / base+maxOff bounds check is overflow-free for any
// base inside the runBaseMax window.
func runOffOK(off int64) bool {
	return off > -(1<<32) && off < 1<<32
}

func isCmp(op mcode.OpCode) bool {
	return op == mcode.SLT || op == mcode.SLE || op == mcode.SEQ || op == mcode.SNE
}

func isControl(op mcode.OpCode) bool {
	switch op {
	case mcode.BEQZ, mcode.BNEZ, mcode.J, mcode.JAL, mcode.JALR, mcode.JR, mcode.EXIT:
		return true
	}
	return false
}

// addInstrStats adds the full execution statistics of one instruction —
// exactly the counters the reference interpreter bumps when it completes
// without trapping. Taken is control-dependent and accounted separately.
func addInstrStats(st *pixie.Stats, in *mcode.Instr) {
	st.Instrs++
	st.Cycles++
	if in.Linkage {
		st.LinkageCycles++
	}
	switch in.Op {
	case mcode.MUL:
		st.Cycles += 11
		st.MulDiv++
	case mcode.DIV, mcode.REM:
		st.Cycles += 34
		st.MulDiv++
	case mcode.LW:
		st.Loads++
		st.LoadsByClass[in.Class]++
	case mcode.SW:
		st.Stores++
		st.StoresByClass[in.Class]++
	case mcode.BEQZ, mcode.BNEZ:
		st.Branches++
	case mcode.JAL, mcode.JALR:
		st.Calls++
	}
}

// predecode builds the image, or returns nil plus the verification error
// when static verification rejects the program (the caller then runs the
// reference interpreter, which reproduces the original trap behaviour for
// bad images).
func predecode(p *mcode.Program) (*image, string) {
	if err := mcode.Verify(p); err != nil {
		return nil, err.Error()
	}
	n := len(p.Code)

	// Leaders: the startup stub, function entries, every static control
	// target, and every instruction after a control transfer (fallthrough
	// of a branch, return point of a call).
	leader := make([]bool, n)
	leader[0] = true
	for _, f := range p.Funcs {
		if !f.Extern {
			leader[f.Entry] = true
		}
	}
	for i := range p.Code {
		in := &p.Code[i]
		switch in.Op {
		case mcode.BEQZ, mcode.BNEZ, mcode.J, mcode.JAL:
			if in.Target >= 0 && in.Target < n {
				leader[in.Target] = true
			}
		}
		if isControl(in.Op) && i+1 < n {
			leader[i+1] = true
		}
	}

	// Pass 1: partition [0,n) into blocks and compute each block's static
	// statistics delta. blockIdx must be complete before translation so
	// control edges can be resolved to block indices.
	img := &image{blockIdx: make([]int32, n)}
	for i := range img.blockIdx {
		img.blockIdx[i] = -1
	}
	for i := 0; i < n; {
		start := i
		for {
			op := p.Code[i].Op
			i++
			if isControl(op) || i >= n || leader[i] {
				break
			}
		}
		b := block{start: int32(start), end: int32(i), ninstr: int64(i - start)}
		for pc := start; pc < i; pc++ {
			addInstrStats(&b.delta, &p.Code[pc])
		}
		img.blockIdx[start] = int32(len(img.blocks))
		img.blocks = append(img.blocks, b)
	}

	// Pass 2: translate each block.
	for bi := range img.blocks {
		b := &img.blocks[bi]
		b.x0 = int32(len(img.xcode))
		img.decodeBlock(p, b, int32(bi))
	}

	// Pass 3: tail inlining. A block ending in a plain jump (or a synthetic
	// fallthrough) whose target's body contains only duplication-safe
	// instructions absorbs a copy of that body in place of the jump, so hot
	// join blocks retire without a dispatch or a block transition — and a
	// chain of such targets keeps collapsing until an unsafe body, a cycle,
	// or the size cap stops it. The copy is position-independent: control
	// fields hold global block indices and pc fields original code indices.
	// Duplication-safe ops never fault and never consult their own block
	// index, so every trap still unwinds the count of the block that was
	// entered; the inlined instructions execute unconditionally (a basic
	// block branches only at its end), so folding the tails' ninstr and
	// delta into the inlining block keeps the entry-count accounting exact.
	img.inlineTails()

	img.ents = make([]blkEnt, len(img.blocks))
	for bi := range img.blocks {
		b := &img.blocks[bi]
		e := blkEnt{x0: b.x0, ninstr: int32(b.ninstr)}
		hi := len(img.xcode)
		if bi+1 < len(img.blocks) {
			hi = int(img.blocks[bi+1].x0)
		}
		if hi-int(b.x0) == 1 {
			if x := &img.xcode[b.x0]; x.op == xJ && x.a1 >= 0 {
				e.x0 = -x.a1 - 1
			}
		}
		img.ents[bi] = e
	}
	return img, ""
}

// inlineTailMax caps the predecoded length a block may grow to by tail
// inlining; it bounds code duplication on long jump chains.
const inlineTailMax = 40

// inlinableOp reports whether an internal instruction may be duplicated
// into another block's tail: it must not fault (faults unwind the entering
// block's count, and a copy runs under the inlining block's count, so a2
// would lie) and must not address its own block — which also rules out the
// LW triples whose fallthrough is addressed as a2+1, the stack guard, and
// the memory runs.
func inlinableOp(op xop) bool {
	switch op {
	case xLI, xMOVE, xADDR, xADDI, xSUBR, xSUBI, xMULR, xMULI,
		xSLTR, xSLTI, xSLER, xSLEI, xSEQR, xSEQI, xSNER, xSNEI,
		xBEQZ, xBNEZ, xJ, xJAL, xJR, xPRINT, xEXIT,
		xSLTRB, xSLTIB, xSLERB, xSLEIB, xSEQRB, xSEQIB, xSNERB, xSNEIB,
		xMOVE2, xLIMOVE, xLIDIVR, xLIREMR, xLIREM2,
		xADDRMOVE, xADDIMOVE, xMULRMOVE, xMULIMOVE,
		xMOVEADDR, xMOVEADDI, xMOVEMULR, xMOVEMULI,
		xMOVEJ, xMOVEJAL, xMOVEJR, xMULIADD,
		xADDIMOVEJ, xLIMOVEJR, xMOVE2MOVEJAL, xMOVEADDMOVEMUL,
		xMOVEADDMOVEMULMOVEJ, xMOVEFALL, xLI2, xLIFALL, xFALL:
		return true
	}
	return false
}

// inlineTails rebuilds xcode with safe jump targets copied into the jumping
// blocks (see the pass 3 comment in predecode). Block order is preserved,
// so [blocks[i].x0, blocks[i+1].x0) still spans block i's body.
func (img *image) inlineTails() {
	old := img.xcode
	spans := make([][2]int32, len(img.blocks))
	nin := make([]int64, len(img.blocks))
	deltas := make([]pixie.Stats, len(img.blocks))
	for bi := range img.blocks {
		hi := int32(len(old))
		if bi+1 < len(img.blocks) {
			hi = img.blocks[bi+1].x0
		}
		spans[bi] = [2]int32{img.blocks[bi].x0, hi}
		nin[bi] = img.blocks[bi].ninstr
		deltas[bi] = img.blocks[bi].delta
	}
	img.tails = make([][]int32, len(img.blocks))
	code := make([]xinstr, 0, len(old)+len(old)/8)
	for bi := range img.blocks {
		b := &img.blocks[bi]
		b.x0 = int32(len(code))
		code = append(code, old[spans[bi][0]:spans[bi][1]]...)
		room := inlineTailMax - int(spans[bi][1]-spans[bi][0])
		for {
			last := code[len(code)-1]
			// conv, when set, is what the terminator degrades to once its
			// control transfer is replaced by the inlined body (a fused
			// MOVE/LI+fallthrough keeps its data half).
			var tb int32
			conv, hasConv := xop(0), false
			switch {
			case last.op == xJ && last.a1 >= 0:
				tb = last.a1
			case last.op == xFALL && last.a2 >= 0:
				tb = last.a2
			case last.op == xMOVEFALL && last.a2 >= 0:
				tb, conv, hasConv = last.a2, xMOVE, true
			case last.op == xLIFALL && last.a2 >= 0:
				tb, conv, hasConv = last.a2, xLI, true
			default:
				tb = -1
			}
			if tb < 0 || tb == int32(bi) {
				break
			}
			seen := false
			for _, t := range img.tails[bi] {
				if t == tb {
					seen = true
					break
				}
			}
			if seen {
				break
			}
			lo, hi := spans[tb][0], spans[tb][1]
			if int(hi-lo) > room {
				break
			}
			safe := true
			for k := lo; k < hi; k++ {
				if !inlinableOp(old[k].op) {
					safe = false
					break
				}
			}
			if !safe {
				break
			}
			if hasConv {
				code[len(code)-1].op = conv
				code = append(code, old[lo:hi]...)
			} else {
				code = append(code[:len(code)-1], old[lo:hi]...)
			}
			room -= int(hi - lo)
			b.ninstr += nin[tb]
			b.delta.Add(&deltas[tb])
			img.tails[bi] = append(img.tails[bi], tb)
		}
	}
	img.xcode = code
}

// edgeTo resolves original code index t to its block index; t is always a
// leader here (Verify plus the leader pass guarantee it).
func (img *image) edgeTo(t int) int32 {
	return img.blockIdx[t]
}

// decodeBlock translates one block's instructions, applying the fusions.
func (img *image) decodeBlock(p *mcode.Program, b *block, bi int32) {
	n := len(p.Code)
	// fallBi is the block entered when control falls off this block's end.
	fallBi := int32(-1)
	if int(b.end) < n {
		fallBi = img.blockIdx[b.end]
	}

	i := int(b.start)
	end := int(b.end)
	endsInControl := isControl(p.Code[end-1].Op)
	for i < end {
		in := &p.Code[i]

		// Compare-and-branch fusion. The branch, when present, is the
		// block terminator reading the comparison result just written.
		// Results into $zero or $sp keep the plain path (the branch would
		// read the re-cleared zero; $sp writes need the floor check).
		if isCmp(in.Op) && i+1 < end && in.Rd != mach.Zero && in.Rd != mach.SP {
			br := &p.Code[i+1]
			if (br.Op == mcode.BEQZ || br.Op == mcode.BNEZ) && br.Rs == in.Rd {
				x := xinstr{
					op: fusedOp(in.Op, in.HasImm),
					rd: uint8(in.Rd), rs: uint8(in.Rs), rt: uint8(in.Rt),
					imm: in.Imm,
					a1:  img.edgeTo(br.Target),
					a2:  fallBi,
					pc:  int32(i),
				}
				if br.Op == mcode.BNEZ {
					x.flags |= fBNZ
				}
				if !img.mergeCmpBranch(b, &x, i, fallBi) {
					img.xcode = append(img.xcode, x)
				}
				i += 2
				continue
			}
		}

		// Save/restore run fusion: consecutive stores (or loads) off one
		// base register collapse into a single bounds-checked copy loop.
		// Offsets are bounded so the run's min/max bounds check cannot
		// overflow (see runBaseMax in fastvm.go).
		if in.Op == mcode.SW {
			j := i
			for j < end && p.Code[j].Op == mcode.SW && p.Code[j].Rs == in.Rs &&
				runOffOK(p.Code[j].Imm) {
				j++
			}
			if j-i >= 2 {
				img.emitRun(xSWRUN, p, i, j, uint8(in.Rs), bi)
				i = j
				continue
			}
		}
		if in.Op == mcode.LW {
			// A load must not redefine the base mid-run, and loads into
			// $sp stay on the plain path for the stack guard.
			j := i
			for j < end && p.Code[j].Op == mcode.LW && p.Code[j].Rs == in.Rs &&
				p.Code[j].Rd != in.Rs && p.Code[j].Rd != mach.SP &&
				runOffOK(p.Code[j].Imm) {
				j++
			}
			if j-i >= 2 {
				img.emitRun(xLWRUN, p, i, j, uint8(in.Rs), bi)
				i = j
				continue
			}
		}

		// Pair fusion: the hottest adjacent pairs collapse into one
		// dispatch. Neither half may write $sp (the guard must follow the
		// writer immediately); faultable halves carry their block in a2 so
		// the trap helpers can rebuild exact partial statistics. When the
		// fused pair reaches the block terminator, the terminator itself is
		// absorbed too (fuseTriple) and the whole sequence retires in one
		// dispatch.
		if i+1 < end {
			if x, ok := fusePair(img, in, &p.Code[i+1], i, bi); ok {
				if i+3 == end {
					if y, ok3 := fuseTriple(img, x, &p.Code[i+1], &p.Code[i+2], fallBi); ok3 {
						if !img.mergeTriple(b, &y, i) {
							img.xcode = append(img.xcode, y)
						}
						i += 3
						continue
					}
				}
				if !img.mergePeep(b, &x, i) {
					img.xcode = append(img.xcode, x)
				}
				i += 2
				continue
			}
		}

		// A return jump right after a guarded frame adjust retires with it.
		if in.Op == mcode.JR {
			if n := len(img.xcode); n > int(b.x0) {
				if pv := &img.xcode[n-1]; pv.op == xADDISPG && int(pv.pc) == i-1 {
					pv.op = xADDISPGJR
					pv.rt = uint8(in.Rs)
					i++
					continue
				}
			}
		}

		img.xcode = append(img.xcode, decodeOne(img, in, i, bi, fallBi))
		if writesSP(in) {
			// An immediate add into $sp (the frame adjust) absorbs its guard;
			// every other $sp writer keeps the separate guard opcode.
			if last := &img.xcode[len(img.xcode)-1]; last.op == xADDI {
				last.op = xADDISPG
				last.a2 = bi
			} else {
				img.xcode = append(img.xcode, xinstr{op: xSPG, a2: bi, pc: int32(i)})
			}
		}
		i++
	}
	if !endsInControl {
		// A trailing plain move folds into the synthetic terminator; its pc
		// is already b.end-1, as xFALL's would be. When an LW+ADD pair
		// precedes the move, the whole tail collapses into xLWADDMOVEJ with
		// the fallthrough block as the packed jump target.
		if n := len(img.xcode); n > int(b.x0) {
			if pv := &img.xcode[n-1]; pv.op == xMOVE && pv.pc == b.end-1 {
				if n-1 > int(b.x0) && fallBi >= 0 {
					if p2 := &img.xcode[n-2]; p2.op == xLWADDR && p2.pc == b.end-3 {
						p2.op = xLWADDMOVEJ
						p2.imm = int64(uint8(p2.imm)) | int64(pv.rd)<<8 |
							int64(pv.rs)<<16 | int64(fallBi)<<24
						img.xcode = img.xcode[:n-1]
						return
					}
				}
				pv.op = xMOVEFALL
				pv.a2 = fallBi
				return
			}
			if pv := &img.xcode[n-1]; pv.op == xLI && pv.pc == b.end-1 {
				pv.op = xLIFALL
				pv.a2 = fallBi
				return
			}
		}
		img.xcode = append(img.xcode, xinstr{op: xFALL, a2: fallBi, pc: b.end - 1})
	}
}

// zrename maps a destination register to its executor slot: writes to
// $zero land in the scratch sink so the zero stays hardwired.
func zrename(r mach.Reg) uint8 {
	if r == mach.Zero {
		return zeroSink
	}
	return uint8(r)
}

// packMove packs a MOVE's destination and source into the low bytes of an
// imm field left free by a register-form primary op; the executor indexes
// the register file with uint8(imm) / uint8(imm>>8).
func packMove(rd, rs uint8) int64 {
	return int64(rd) | int64(rs)<<8
}

// fitsInt32 reports whether a load offset can move into the a1 field.
func fitsInt32(v int64) bool { return v == int64(int32(v)) }

// mergePeep folds the fused pair x (covering code indices i, i+1) into the
// previously emitted superinstruction when the two form one of the hot
// chains the suite's dynamic pair histogram surfaced. The predecessor must
// belong to the same block and end exactly at i, which its pc field proves
// (it is a single instruction, or a pair whose pc names its first half).
// Returns true when x was absorbed and must not be appended.
func (img *image) mergePeep(b *block, x *xinstr, i int) bool {
	if len(img.xcode) == int(b.x0) {
		return false
	}
	pv := &img.xcode[len(img.xcode)-1]
	switch {
	case x.op == xLIREM2 && pv.op == xDIVR && int(pv.pc) == i-1:
		// DIV r ; LI 2 ; REM: the divide's fault bookkeeping (a2, pc)
		// carries over unchanged.
		pv.op = xDIVLIREM2
		pv.flags = x.rd
		pv.a1 = int32(x.rt)<<8 | int32(x.rs)
		return true
	case x.op == xMOVEJAL && pv.op == xMOVE2 && int(pv.pc) == i-2:
		pv.op = xMOVE2MOVEJAL
		pv.imm = x.imm<<16 | int64(x.rd)<<8 | int64(x.rs)
		pv.a1 = x.a1
		return true
	case x.op == xMOVEMULI && pv.op == xMOVEADDR && int(pv.pc) == i-2:
		pv.op = xMOVEADDMOVEMUL
		pv.a1 = int32(uint8(pv.imm)) | int32(uint8(pv.imm>>8))<<8 |
			int32(x.rt)<<16 | int32(x.flags)<<24
		pv.flags = x.rd
		pv.a2 = int32(x.rs)
		pv.imm = x.imm
		return true
	case x.op == xADDRMOVE && pv.op == xMOVELW && int(pv.pc) == i-2 &&
		fitsInt32(pv.imm):
		pv.op = xMOVELWADDMOVE
		pv.imm = pv.imm<<32 | int64(x.rd) | int64(x.rs)<<8 | int64(x.rt)<<16
		pv.a1 = int32(uint8(x.imm)) | int32(uint8(x.imm>>8))<<8
		return true
	case x.op == xMOVEJ && pv.op == xLWADDR && int(pv.pc) == i-2:
		pv.op = xLWADDMOVEJ
		pv.imm = int64(uint8(pv.imm)) | int64(x.rd)<<8 | int64(x.rs)<<16 |
			int64(x.a1)<<24
		return true
	case x.op == xMOVEJ && pv.op == xMOVEADDMOVEMUL && int(pv.pc) == i-4 &&
		fitsInt32(pv.imm):
		pv.op = xMOVEADDMOVEMULMOVEJ
		pv.imm = int64(x.a1)<<32 | int64(uint32(pv.imm))
		pv.a2 |= int32(x.rd)<<8 | int32(x.rs)<<16
		return true
	}
	return false
}

// mergeCmpBranch folds a freshly fused compare-and-branch x (covering code
// indices i, i+1) into the preceding superinstructions when the block tail
// is the parity-walk shape: two xDIVLIREM2 merges feeding a register SNE.
// The remainders must read their own divides' quotients and the compare the
// two parities just computed, so the fused executor can re-read every
// intermediate value from the register file exactly where the reference
// interpreter would (any register aliasing between the eight instructions
// then resolves identically). Returns true when x was absorbed.
func (img *image) mergeCmpBranch(b *block, x *xinstr, i int, fallBi int32) bool {
	if x.op != xSNERB || fallBi < 0 || len(img.xcode)-int(b.x0) < 2 {
		return false
	}
	n := len(img.xcode)
	pv, p2 := &img.xcode[n-1], &img.xcode[n-2]
	if pv.op != xDIVLIREM2 || int(pv.pc) != i-3 ||
		p2.op != xDIVLIREM2 || int(p2.pc) != i-6 {
		return false
	}
	if uint8(p2.a1) != p2.rd || uint8(pv.a1) != pv.rd ||
		x.rs != uint8(p2.a1>>8) || x.rt != uint8(pv.a1>>8) {
		return false
	}
	p2.op = xDIVLIREM2X2SNEB
	p2.imm = int64(p2.flags) | int64(uint8(p2.a1>>8))<<8 | int64(pv.rd)<<16 |
		int64(pv.rs)<<24 | int64(pv.rt)<<32 | int64(pv.flags)<<40 |
		int64(uint8(pv.a1>>8))<<48
	p2.flags = x.rd<<1 | x.flags&fBNZ
	p2.a1 = x.a1
	img.xcode = img.xcode[:n-1]
	return true
}

// mergeTriple folds a freshly fused LW-compare-branch triple y (covering
// code indices i..i+2) into a preceding xMULIADD when the block tail is the
// scaled-array-probe shape: MUL (imm) ; ADD computing the element address,
// LW through that address, SEQ (imm) on the loaded word, branch. The load
// base must be the add's destination and the compare must read the loaded
// value, so the fused executor re-reads every intermediate from the register
// file at the reference interpreter's program points (aliasing between the
// five instructions then resolves identically). The small fields ride in the
// packed imm, so the lw offset and mul imm must fit int16 and the compare
// operand int8. Rewrites the xMULIADD in place and returns true when y was
// absorbed.
func (img *image) mergeTriple(b *block, y *xinstr, i int) bool {
	if y.op != xLWSEQIB || len(img.xcode)-int(b.x0) < 1 {
		return false
	}
	pv := &img.xcode[len(img.xcode)-1]
	if pv.op != xMULIADD || int(pv.pc) != i-2 {
		return false
	}
	if y.rs != pv.rt || y.flags>>1 != y.rd {
		return false
	}
	off := int64(int32(uint32(y.imm)))
	opnd := y.imm >> 32
	if int64(int16(off)) != off || int64(int8(opnd)) != opnd ||
		int64(int16(pv.imm)) != pv.imm {
		return false
	}
	pv.op = xMULIADDLWSEQIB
	pv.imm = int64(pv.rd) | int64(pv.rs)<<8 | int64(y.rd)<<16 |
		int64(uint16(int16(off)))<<24 | int64(uint16(int16(pv.imm)))<<40 |
		int64(uint8(int8(opnd)))<<56
	pv.rd, pv.rs, pv.rt = pv.rt, pv.flags, uint8(pv.a1)
	pv.flags = y.rt<<1 | y.flags&fBNZ
	pv.a1, pv.a2 = y.a1, y.a2
	return true
}

// fuseTriple upgrades an already-fused pair x (whose second half is b) to
// absorb the block terminator c when the combination is one of the triple
// superinstructions. c is always the block's last instruction.
func fuseTriple(img *image, x xinstr, b, c *mcode.Instr, fallBi int32) (xinstr, bool) {
	switch x.op {
	case xADDIMOVE:
		if c.Op == mcode.J {
			x.op = xADDIMOVEJ
			x.a1 = img.edgeTo(c.Target)
			return x, true
		}
	case xLIMOVE:
		if c.Op == mcode.JR {
			x.op = xLIMOVEJR
			x.rs = uint8(c.Rs)
			return x, true
		}
	case xLWSEQR, xLWSEQI, xLWSNER, xLWSNEI, xLWSLTR, xLWSLTI, xLWSLER, xLWSLEI:
		// The branch must read the compare result just written (a result
		// into $zero reads back as hardwired 0 — keep the plain path), the
		// compare operand must fit the packed imm's high half, and the
		// fallthrough block must exist so it can be addressed as a2+1.
		if c.Op != mcode.BEQZ && c.Op != mcode.BNEZ {
			return xinstr{}, false
		}
		if b.Rd == mach.Zero || mach.Reg(c.Rs) != b.Rd || fallBi < 0 || !fitsInt32(x.imm) {
			return xinstr{}, false
		}
		switch x.op {
		case xLWSEQR:
			x.op = xLWSEQRB
		case xLWSEQI:
			x.op = xLWSEQIB
		case xLWSNER:
			x.op = xLWSNERB
		case xLWSNEI:
			x.op = xLWSNEIB
		case xLWSLTR:
			x.op = xLWSLTRB
		case xLWSLTI:
			x.op = xLWSLTIB
		case xLWSLER:
			x.op = xLWSLERB
		case xLWSLEI:
			x.op = xLWSLEIB
		}
		x.imm = x.imm<<32 | int64(uint32(x.a1))
		x.flags = x.flags << 1
		if c.Op == mcode.BNEZ {
			x.flags |= fBNZ
		}
		x.a1 = img.edgeTo(c.Target)
		return x, true
	}
	return xinstr{}, false
}

// fusePair fuses the instruction pair (a at code index pc, b at pc+1) into
// one superinstruction when it matches one of the hot shapes. Execution
// order inside a pair is preserved (a's writes are visible to b's reads)
// and neither half may write $sp. Faultable halves are fusible — the trap
// helpers rebuild exact partial statistics from the original code — so
// loads pair freely; a divide's zero check either moves to run time
// (xLWDIVR) or is discharged at decode time by a non-zero constant
// divisor (xLIDIVR/xLIREMR).
func fusePair(img *image, a, b *mcode.Instr, pc int, bi int32) (xinstr, bool) {
	if writesSP(a) || writesSP(b) {
		return xinstr{}, false
	}
	x := xinstr{pc: int32(pc)}
	switch a.Op {
	case mcode.LW:
		if !fitsInt32(a.Imm) {
			return xinstr{}, false
		}
		x.rd, x.rs, x.a1, x.a2 = zrename(a.Rd), uint8(a.Rs), int32(a.Imm), bi
		switch b.Op {
		case mcode.MOVE:
			x.op = xLWMOVE
			x.rt, x.flags = zrename(b.Rd), uint8(b.Rs)
			return x, true
		case mcode.ADD, mcode.SEQ, mcode.SLT, mcode.SLE, mcode.SNE:
			switch b.Op {
			case mcode.ADD:
				x.op = aluXop(xLWADDR, xLWADDI, b.HasImm)
			case mcode.SEQ:
				x.op = aluXop(xLWSEQR, xLWSEQI, b.HasImm)
			case mcode.SLT:
				x.op = aluXop(xLWSLTR, xLWSLTI, b.HasImm)
			case mcode.SLE:
				x.op = aluXop(xLWSLER, xLWSLEI, b.HasImm)
			case mcode.SNE:
				x.op = aluXop(xLWSNER, xLWSNEI, b.HasImm)
			}
			x.rt, x.flags = zrename(b.Rd), uint8(b.Rs)
			if b.HasImm {
				x.imm = b.Imm
			} else {
				x.imm = int64(uint8(b.Rt))
			}
			return x, true
		case mcode.DIV:
			if !b.HasImm {
				x.op = xLWDIVR
				x.rt, x.flags = zrename(b.Rd), uint8(b.Rs)
				x.imm = int64(uint8(b.Rt))
				return x, true
			}
		}
	case mcode.MOVE:
		mrd, mrs := zrename(a.Rd), uint8(a.Rs)
		switch b.Op {
		case mcode.MOVE:
			x.op = xMOVE2
			x.rd, x.rs, x.rt, x.flags = mrd, mrs, zrename(b.Rd), uint8(b.Rs)
			return x, true
		case mcode.LW:
			x.op = xMOVELW
			x.rd, x.rs, x.imm = zrename(b.Rd), uint8(b.Rs), b.Imm
			x.rt, x.flags = mrd, mrs
			x.a2 = bi
			return x, true
		case mcode.ADD, mcode.MUL:
			if b.Op == mcode.ADD {
				x.op = aluXop(xMOVEADDR, xMOVEADDI, b.HasImm)
			} else {
				x.op = aluXop(xMOVEMULR, xMOVEMULI, b.HasImm)
			}
			x.rd, x.rs = zrename(b.Rd), uint8(b.Rs)
			if b.HasImm {
				x.imm = b.Imm
				x.rt, x.flags = mrd, mrs
			} else {
				x.rt = uint8(b.Rt)
				x.imm = packMove(mrd, mrs)
			}
			return x, true
		case mcode.J:
			x.op = xMOVEJ
			x.rd, x.rs = mrd, mrs
			x.a1 = img.edgeTo(b.Target)
			return x, true
		case mcode.JAL:
			if b.Target >= 0 {
				x.op = xMOVEJAL
				x.rd, x.rs = mrd, mrs
				x.a1 = img.edgeTo(b.Target)
				x.imm = int64(pc) + 2 // the JAL's return address
				return x, true
			}
		case mcode.JR:
			x.op = xMOVEJR
			x.rd, x.rs, x.rt = mrd, mrs, uint8(b.Rs)
			return x, true
		}
	case mcode.SW:
		if b.Op == mcode.LI && fitsInt32(a.Imm) {
			x.op = xSWLI
			x.rs, x.rt = uint8(a.Rs), uint8(a.Rt)
			x.a1, x.a2 = int32(a.Imm), bi
			x.rd, x.imm = zrename(b.Rd), b.Imm
			return x, true
		}
	case mcode.LI:
		switch b.Op {
		case mcode.LI:
			if fitsInt32(b.Imm) {
				x.op = xLI2
				x.rd, x.imm = zrename(a.Rd), a.Imm
				x.rt, x.a1 = zrename(b.Rd), int32(b.Imm)
				return x, true
			}
		case mcode.MOVE:
			x.op = xLIMOVE
			x.rd, x.imm = zrename(a.Rd), a.Imm
			x.rt, x.flags = zrename(b.Rd), uint8(b.Rs)
			return x, true
		case mcode.DIV, mcode.REM:
			// The divisor must be the constant just materialized (and the
			// constant non-zero, so the pair cannot fault). An a.Rd of
			// $zero would make the divisor read as 0 — not fusible.
			if !b.HasImm && b.Rt == a.Rd && a.Rd != mach.Zero && a.Imm != 0 {
				if b.Op == mcode.DIV {
					x.op = xLIDIVR
				} else if a.Imm == 2 {
					x.op = xLIREM2
				} else {
					x.op = xLIREMR
				}
				x.rd, x.imm = uint8(a.Rd), a.Imm
				x.rt, x.rs = zrename(b.Rd), uint8(b.Rs)
				return x, true
			}
		}
	case mcode.ADD, mcode.MUL:
		if b.Op == mcode.MOVE {
			if a.Op == mcode.ADD {
				x.op = aluXop(xADDRMOVE, xADDIMOVE, a.HasImm)
			} else {
				x.op = aluXop(xMULRMOVE, xMULIMOVE, a.HasImm)
			}
			x.rd, x.rs = zrename(a.Rd), uint8(a.Rs)
			mrd, mrs := zrename(b.Rd), uint8(b.Rs)
			if a.HasImm {
				x.imm = a.Imm
				x.rt, x.flags = mrd, mrs
			} else {
				x.rt = uint8(a.Rt)
				x.imm = packMove(mrd, mrs)
			}
			return x, true
		}
		if a.Op == mcode.ADD && b.Op == mcode.LW && fitsInt32(b.Imm) {
			x.rd, x.rs = zrename(a.Rd), uint8(a.Rs)
			x.a1, x.a2 = int32(b.Imm), bi
			if a.HasImm {
				x.op = xADDILW
				x.imm = a.Imm
				x.rt, x.flags = zrename(b.Rd), uint8(b.Rs)
			} else {
				x.op = xADDRLW
				x.rt = uint8(a.Rt)
				x.flags = zrename(b.Rd)
				x.imm = int64(uint8(b.Rs))
			}
			return x, true
		}
		if a.Op == mcode.MUL && a.HasImm && b.Op == mcode.ADD && !b.HasImm {
			x.op = xMULIADD
			x.rd, x.rs, x.imm = zrename(a.Rd), uint8(a.Rs), a.Imm
			x.rt, x.flags = zrename(b.Rd), uint8(b.Rs)
			x.a1 = int32(uint8(b.Rt))
			return x, true
		}
	}
	return xinstr{}, false
}

// writesSP reports whether the instruction can move the stack pointer and
// therefore needs a stack guard after it.
func writesSP(in *mcode.Instr) bool {
	switch in.Op {
	case mcode.LI, mcode.MOVE, mcode.ADD, mcode.SUB, mcode.MUL, mcode.DIV,
		mcode.REM, mcode.SLT, mcode.SLE, mcode.SEQ, mcode.SNE, mcode.LW:
		return in.Rd == mach.SP
	}
	return false
}

// emitRun fuses code[i:j) (all LW or all SW off the same base) into one
// run superinstruction.
func (img *image) emitRun(op xop, p *mcode.Program, i, j int, base uint8, bi int32) {
	r := memRun{base: base}
	for k := i; k < j; k++ {
		in := &p.Code[k]
		reg := in.Rt // SW: data source
		if op == xLWRUN {
			reg = in.Rd
			if reg == mach.Zero {
				reg = zeroSink
			}
		}
		if k == i || in.Imm < r.minOff {
			r.minOff = in.Imm
		}
		if k == i || in.Imm > r.maxOff {
			r.maxOff = in.Imm
		}
		r.ents = append(r.ents, runEnt{off: in.Imm, reg: uint8(reg)})
	}
	img.xcode = append(img.xcode, xinstr{
		op: op, rs: base,
		a1: int32(len(img.runs)),
		a2: bi,
		pc: int32(i),
	})
	img.runs = append(img.runs, r)
}

func fusedOp(op mcode.OpCode, hasImm bool) xop {
	var base xop
	switch op {
	case mcode.SLT:
		base = xSLTRB
	case mcode.SLE:
		base = xSLERB
	case mcode.SEQ:
		base = xSEQRB
	case mcode.SNE:
		base = xSNERB
	}
	if hasImm {
		base++
	}
	return base
}

func aluXop(reg, imm xop, hasImm bool) xop {
	if hasImm {
		return imm
	}
	return reg
}

// decodeOne translates a single instruction at code index pc within block
// bi (fallBi is the block's fallthrough successor, used by terminators).
func decodeOne(img *image, in *mcode.Instr, pc int, bi, fallBi int32) xinstr {
	x := xinstr{
		rd: uint8(in.Rd), rs: uint8(in.Rs), rt: uint8(in.Rt),
		imm: in.Imm,
		pc:  int32(pc),
	}
	switch in.Op {
	case mcode.LI:
		x.op = xLI
	case mcode.MOVE:
		x.op = xMOVE
	case mcode.ADD:
		x.op = aluXop(xADDR, xADDI, in.HasImm)
	case mcode.SUB:
		x.op = aluXop(xSUBR, xSUBI, in.HasImm)
	case mcode.MUL:
		x.op = aluXop(xMULR, xMULI, in.HasImm)
	case mcode.DIV:
		x.op = aluXop(xDIVR, xDIVI, in.HasImm)
		x.a2 = bi
	case mcode.REM:
		x.op = aluXop(xREMR, xREMI, in.HasImm)
		x.a2 = bi
	case mcode.SLT:
		x.op = aluXop(xSLTR, xSLTI, in.HasImm)
	case mcode.SLE:
		x.op = aluXop(xSLER, xSLEI, in.HasImm)
	case mcode.SEQ:
		x.op = aluXop(xSEQR, xSEQI, in.HasImm)
	case mcode.SNE:
		x.op = aluXop(xSNER, xSNEI, in.HasImm)
	case mcode.LW:
		x.op = xLW
		x.a2 = bi
	case mcode.SW:
		x.op = xSW
		x.a2 = bi
	case mcode.BEQZ:
		x.op = xBEQZ
		x.a1 = img.edgeTo(in.Target)
		x.a2 = fallBi
	case mcode.BNEZ:
		x.op = xBNEZ
		x.a1 = img.edgeTo(in.Target)
		x.a2 = fallBi
	case mcode.J:
		x.op = xJ
		x.a1 = img.edgeTo(in.Target)
	case mcode.JAL:
		x.op = xJAL
		// Unresolved extern call: control leaves the image (pc -1).
		x.a1 = -1
		if in.Target >= 0 {
			x.a1 = img.edgeTo(in.Target)
		}
	case mcode.JALR:
		x.op = xJALR
		x.a1 = bi
	case mcode.JR:
		x.op = xJR
	case mcode.PRINT:
		x.op = xPRINT
	case mcode.EXIT:
		x.op = xEXIT
	}
	// Writes to $zero are renamed into the scratch slot so the zero stays
	// hardwired ($sp writers get a guard appended by decodeBlock).
	if in.Rd == mach.Zero && writesZero(in.Op) {
		x.rd = zeroSink
	}
	return x
}

// writesZero reports whether the op's Rd field is a destination.
func writesZero(op mcode.OpCode) bool {
	switch op {
	case mcode.LI, mcode.MOVE, mcode.ADD, mcode.SUB, mcode.MUL, mcode.DIV,
		mcode.REM, mcode.SLT, mcode.SLE, mcode.SEQ, mcode.SNE, mcode.LW:
		return true
	}
	return false
}
