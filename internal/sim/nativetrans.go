// Translation from the predecoded internal ISA to closure-threaded code.
// translateNative compiles each basic block's xcode span into an nblock:
// every superinstruction becomes a Go closure specialized by its register
// and immediate operands (packed operands are unpacked here, once, instead
// of on every execution), and every static control edge becomes a direct
// *nblock pointer. Terminators that only transfer control compile to the
// block's next pointer — the run loop follows it without any call — and a
// conditional branch whose edge targets its own block fuses the block into
// a self-iterating loop closure (loopTerm). The per-op bodies below mirror
// the fast engine's dispatch cases in fastvm.go line for line — same
// evaluation order (register aliasing between fused sub-instructions
// resolves identically), same fault pc, same message text — and the
// differential suite enforces that against RunReference.
package sim

import (
	"fmt"

	"chow88/internal/mach"
	"chow88/internal/mcode"
)

// ntrans carries translation state: the program (for JALR's function
// table), the predecoded image (runs, blockIdx), and the block array
// under construction, which edge() hands out forward pointers into.
type ntrans struct {
	p   *mcode.Program
	img *image
	nbs []nblock
}

// termInfo is a translated terminator. Exactly one of three shapes:
//   - next != nil (fn nil): resolved unconditional control, optionally with
//     a step carrying the terminator's data effects (register writes,
//     loads); the run loop follows next directly.
//   - fn != nil, isBranch false: computed control (indirect jumps, EXIT,
//     edges that leave the image).
//   - fn != nil, isBranch true: a conditional branch; cond/bnz/taken/fall
//     describe it declaratively so translateNative can refuse the plain fn
//     and fuse a self-targeting branch into a loop closure instead.
type termInfo struct {
	fn       nblockFn
	step     nstep
	next     *nblock
	nextIdx  int32
	isBranch bool
	cond     func(*nctx) (int64, bool)
	bnz      bool
	taken    int32
	fall     int32
	leavePC  int
}

// translateNative compiles img into a closure-threaded nimage. It returns
// (nil, reason) if any opcode has no closure constructor — the caller
// then falls back to the fast engine rather than guessing; predecode only
// emits opcodes known here, so this is a defensive posture, not an
// expected path.
func translateNative(p *mcode.Program, img *image) (*nimage, string) {
	nbs := make([]nblock, len(img.blocks))
	t := &ntrans{p: p, img: img, nbs: nbs}
	builds := make([]termInfo, len(img.blocks))
	for bi := range img.blocks {
		b := &img.blocks[bi]
		hi := int32(len(img.xcode))
		if bi+1 < len(img.blocks) {
			hi = img.blocks[bi+1].x0
		}
		span := img.xcode[b.x0:hi]
		if len(span) == 0 {
			return nil, fmt.Sprintf("block %d has an empty predecoded span", bi)
		}
		var steps []nstep
		if n := len(span) - 1; n > 0 {
			steps = make([]nstep, 0, n+1)
			for k := range span[:n] {
				s, ok := t.step(&span[k])
				if !ok {
					return nil, fmt.Sprintf("block %d: no closure for mid-block opcode %s", bi, xopName(span[k].op))
				}
				steps = append(steps, s)
			}
		}
		ti, ok := t.term(&span[len(span)-1])
		if !ok {
			return nil, fmt.Sprintf("block %d: no closure for terminator %s", bi, xopName(span[len(span)-1].op))
		}
		if ti.step != nil {
			steps = append(steps, ti.step)
		}
		builds[bi] = ti
		nbs[bi] = nblock{steps: steps, term: ti.fn, next: ti.next, ninstr: img.ents[bi].ninstr, bi: int32(bi)}
	}
	t.fuseLoops(builds)
	return &nimage{blocks: nbs}, ""
}

// edge resolves a static control edge to its block, or nil for a negative
// sentinel (control would leave the code image); terminator closures turn
// nil into c.leave at the fast engine's trap pc.
func (t *ntrans) edge(b int32) *nblock {
	if b < 0 {
		return nil
	}
	return &t.nbs[b]
}

// uncond resolves a terminator that only transfers control: a direct next
// pointer when the target is in the image, a leave closure otherwise.
func (t *ntrans) uncond(target int32, leavePC int) termInfo {
	if target < 0 {
		return termInfo{nextIdx: -1, fn: func(c *nctx) *nblock { return c.leave(leavePC) }}
	}
	return termInfo{next: &t.nbs[target], nextIdx: target}
}

// jr resolves a register-indirect jump through src: leave the image for an
// out-of-range pc, bridge through the reference interpreter for a mid-block
// landing, thread directly to a block head otherwise.
func (t *ntrans) jr(src uint8) termInfo {
	n := int64(len(t.p.Code))
	blockIdx := t.img.blockIdx
	nbs := t.nbs
	return termInfo{fn: func(c *nctx) *nblock {
		pcv := c.regs[src]
		if uint64(pcv) >= uint64(n) {
			return c.leave(int(pcv))
		}
		nbi := blockIdx[pcv]
		if nbi < 0 {
			c.sig, c.bridgePC = nsBridge, pcv
			return nil
		}
		return &nbs[nbi]
	}}
}

// fuseLoops finds single-block self-loops — a conditional branch whose
// taken or fallthrough edge targets its own block — and replaces each
// one's terminator with a closure that iterates the loop internally
// (loopTerm). Cross-block trace fusion was tried and measured as a net
// regression: the rotating per-element cond/step call sites turn
// monomorphic (predictable) indirect calls into megamorphic ones, and the
// element orchestration costs as much as the run-loop bookkeeping it
// saves. Self-loops keep every call site monomorphic, which is where
// fusion actually pays.
func (t *ntrans) fuseLoops(builds []termInfo) {
	for bi := range builds {
		ti := &builds[bi]
		if !ti.isBranch || (ti.taken != int32(bi) && ti.fall != int32(bi)) {
			continue
		}
		t.nbs[bi].term = t.loopTerm(int32(bi), ti)
	}
}

// loopTerm compiles a self-targeting branch block into a terminator that
// keeps iterating the block without returning to the run loop. The run
// loop has already entered the block and run its steps, so the closure
// starts at the branch. Per-iteration bookkeeping is exact — the same
// entry counts, instruction totals and Taken increments the run loop
// would perform — and control returns to the run loop only on the exit
// edge, a fault, or when the next iteration could cross the budget or
// deadline horizon (the run loop owns those edges and re-enters the block
// with the precise handoff/expiry semantics).
func (t *ntrans) loopTerm(bi int32, ti *termInfo) nblockFn {
	stay := ti.taken == bi
	var exit *nblock
	if stay {
		exit = t.edge(ti.fall)
	} else {
		exit = t.edge(ti.taken)
	}
	self := &t.nbs[bi]
	steps := t.nbs[bi].steps
	nin := int64(t.img.ents[bi].ninstr)
	cond, bnz, leavePC := ti.cond, ti.bnz, ti.leavePC
	return func(c *nctx) *nblock {
		instrs := c.instrs
		for {
			v, ok := cond(c)
			if !ok {
				return nil
			}
			taken := (v != 0) == bnz
			if taken {
				c.st.Taken++
			}
			if taken != stay {
				c.instrs = instrs
				if exit == nil {
					return c.leave(leavePC)
				}
				return exit
			}
			ni := instrs + nin
			if ni > c.maxInstrs || ni >= c.deadlineAt {
				c.instrs = instrs
				return self
			}
			instrs = ni
			c.ents[bi].count++
			for _, s := range steps {
				if !s(c) {
					return nil
				}
			}
		}
	}
}

// branch assembles a conditional-branch termInfo around a fully
// specialized closure plus its declarative description for loopTerm.
func branch(fn nblockFn, cond func(*nctx) (int64, bool), bnz bool, taken, fall int32, leavePC int) termInfo {
	return termInfo{fn: fn, isBranch: true, cond: cond, bnz: bnz, taken: taken, fall: fall, leavePC: leavePC}
}

// step builds the closure for one non-terminating superinstruction.
func (t *ntrans) step(x *xinstr) (nstep, bool) {
	// Operand unpacking happens here, once per translated instruction; the
	// closures capture only these scalars (and, for runs, a pointer into
	// the immutable image). bi/pc locate the instruction for fault
	// accounting: bi is the executing block (x.a2 for every faultable
	// step — faultable ops are never tail-inlined, see inlinableOp).
	rd, rs, rt, fl := x.rd, x.rs, x.rt, x.flags
	imm := x.imm
	bi, pc := x.a2, int(x.pc)

	switch x.op {
	case xLI:
		return func(c *nctx) bool { c.regs[rd] = imm; return true }, true
	case xMOVE:
		return func(c *nctx) bool { c.regs[rd] = c.regs[rs]; return true }, true
	case xADDR:
		return func(c *nctx) bool {
			r := c.regs
			r[rd] = r[rs] + r[rt]
			return true
		}, true
	case xADDI:
		return func(c *nctx) bool { c.regs[rd] = c.regs[rs] + imm; return true }, true
	case xSUBR:
		return func(c *nctx) bool {
			r := c.regs
			r[rd] = r[rs] - r[rt]
			return true
		}, true
	case xSUBI:
		return func(c *nctx) bool { c.regs[rd] = c.regs[rs] - imm; return true }, true
	case xMULR:
		return func(c *nctx) bool {
			r := c.regs
			r[rd] = r[rs] * r[rt]
			return true
		}, true
	case xMULI:
		return func(c *nctx) bool { c.regs[rd] = c.regs[rs] * imm; return true }, true
	case xDIVR:
		return func(c *nctx) bool {
			r := c.regs
			d := r[rt]
			if d == 0 {
				return c.fault(bi, pc, "division by zero")
			}
			r[rd] = r[rs] / d
			return true
		}, true
	case xDIVI:
		if imm == 0 {
			return func(c *nctx) bool { return c.fault(bi, pc, "division by zero") }, true
		}
		return func(c *nctx) bool { c.regs[rd] = c.regs[rs] / imm; return true }, true
	case xREMR:
		return func(c *nctx) bool {
			r := c.regs
			d := r[rt]
			if d == 0 {
				return c.fault(bi, pc, "division by zero")
			}
			r[rd] = r[rs] % d
			return true
		}, true
	case xREMI:
		if imm == 0 {
			return func(c *nctx) bool { return c.fault(bi, pc, "division by zero") }, true
		}
		return func(c *nctx) bool { c.regs[rd] = c.regs[rs] % imm; return true }, true
	case xSLTR:
		return func(c *nctx) bool {
			r := c.regs
			r[rd] = b2i(r[rs] < r[rt])
			return true
		}, true
	case xSLTI:
		return func(c *nctx) bool { c.regs[rd] = b2i(c.regs[rs] < imm); return true }, true
	case xSLER:
		return func(c *nctx) bool {
			r := c.regs
			r[rd] = b2i(r[rs] <= r[rt])
			return true
		}, true
	case xSLEI:
		return func(c *nctx) bool { c.regs[rd] = b2i(c.regs[rs] <= imm); return true }, true
	case xSEQR:
		return func(c *nctx) bool {
			r := c.regs
			r[rd] = b2i(r[rs] == r[rt])
			return true
		}, true
	case xSEQI:
		return func(c *nctx) bool { c.regs[rd] = b2i(c.regs[rs] == imm); return true }, true
	case xSNER:
		return func(c *nctx) bool {
			r := c.regs
			r[rd] = b2i(r[rs] != r[rt])
			return true
		}, true
	case xSNEI:
		return func(c *nctx) bool { c.regs[rd] = b2i(c.regs[rs] != imm); return true }, true
	case xLW:
		return func(c *nctx) bool {
			addr := c.regs[rs] + imm
			if uint64(addr) >= uint64(c.memWords) {
				return c.faultAddr(bi, pc, "load from bad address %d", addr)
			}
			c.regs[rd] = c.mem[addr]
			return true
		}, true
	case xSW:
		return func(c *nctx) bool {
			addr := c.regs[rs] + imm
			if uint64(addr) >= uint64(c.memWords) {
				return c.faultAddr(bi, pc, "store to bad address %d", addr)
			}
			c.mem[addr] = c.regs[rt]
			return true
		}, true
	case xMOVE2:
		return func(c *nctx) bool {
			r := c.regs
			r[rd] = r[rs]
			r[rt] = r[fl]
			return true
		}, true
	case xLIMOVE:
		return func(c *nctx) bool {
			r := c.regs
			r[rd] = imm
			r[rt] = r[fl]
			return true
		}, true
	case xLIDIVR:
		return func(c *nctx) bool {
			r := c.regs
			r[rd] = imm
			r[rt] = r[rs] / imm
			return true
		}, true
	case xLIREMR:
		return func(c *nctx) bool {
			r := c.regs
			r[rd] = imm
			r[rt] = r[rs] % imm
			return true
		}, true
	case xLIREM2:
		return func(c *nctx) bool {
			r := c.regs
			r[rd] = 2
			r[rt] = r[rs] % 2
			return true
		}, true
	case xDIVLIREM2:
		remDst, remSrc := uint8(x.a1>>8), uint8(x.a1)
		return func(c *nctx) bool {
			r := c.regs
			d := r[rt]
			if d == 0 {
				return c.fault(bi, pc, "division by zero")
			}
			r[rd] = r[rs] / d
			r[fl] = 2
			r[remDst] = r[remSrc] % 2
			return true
		}, true
	case xMOVEADDMOVEMUL:
		m1d, m1s := uint8(x.a1), uint8(x.a1>>8)
		m2d, m2s := uint8(x.a1>>16), uint8(x.a1>>24)
		mulS := uint8(x.a2)
		return func(c *nctx) bool {
			r := c.regs
			r[m1d] = r[m1s]
			r[rd] = r[rs] + r[rt]
			r[m2d] = r[m2s]
			r[fl] = r[mulS] * imm
			return true
		}, true
	case xMOVELWADDMOVE:
		off := x.imm >> 32
		addD, addS1, addS2 := uint8(x.imm), uint8(x.imm>>8), uint8(x.imm>>16)
		mvD, mvS := uint8(x.a1), uint8(x.a1>>8)
		return func(c *nctx) bool {
			r := c.regs
			r[rt] = r[fl]
			addr := r[rs] + off
			if uint64(addr) >= uint64(c.memWords) {
				return c.faultAddr(bi, pc+1, "load from bad address %d", addr)
			}
			r[rd] = c.mem[addr]
			r[addD] = r[addS1] + r[addS2]
			r[mvD] = r[mvS]
			return true
		}, true
	case xADDRMOVE:
		mvD, mvS := uint8(x.imm), uint8(x.imm>>8)
		return func(c *nctx) bool {
			r := c.regs
			r[rd] = r[rs] + r[rt]
			r[mvD] = r[mvS]
			return true
		}, true
	case xADDIMOVE:
		return func(c *nctx) bool {
			r := c.regs
			r[rd] = r[rs] + imm
			r[rt] = r[fl]
			return true
		}, true
	case xMULRMOVE:
		mvD, mvS := uint8(x.imm), uint8(x.imm>>8)
		return func(c *nctx) bool {
			r := c.regs
			r[rd] = r[rs] * r[rt]
			r[mvD] = r[mvS]
			return true
		}, true
	case xMULIMOVE:
		return func(c *nctx) bool {
			r := c.regs
			r[rd] = r[rs] * imm
			r[rt] = r[fl]
			return true
		}, true
	case xMOVEADDR:
		mvD, mvS := uint8(x.imm), uint8(x.imm>>8)
		return func(c *nctx) bool {
			r := c.regs
			r[mvD] = r[mvS]
			r[rd] = r[rs] + r[rt]
			return true
		}, true
	case xMOVEADDI:
		return func(c *nctx) bool {
			r := c.regs
			r[rt] = r[fl]
			r[rd] = r[rs] + imm
			return true
		}, true
	case xMOVEMULR:
		mvD, mvS := uint8(x.imm), uint8(x.imm>>8)
		return func(c *nctx) bool {
			r := c.regs
			r[mvD] = r[mvS]
			r[rd] = r[rs] * r[rt]
			return true
		}, true
	case xMOVEMULI:
		return func(c *nctx) bool {
			r := c.regs
			r[rt] = r[fl]
			r[rd] = r[rs] * imm
			return true
		}, true
	case xLWMOVE:
		off := int64(x.a1)
		return func(c *nctx) bool {
			r := c.regs
			addr := r[rs] + off
			if uint64(addr) >= uint64(c.memWords) {
				return c.faultAddr(bi, pc, "load from bad address %d", addr)
			}
			r[rd] = c.mem[addr]
			r[rt] = r[fl]
			return true
		}, true
	case xLWADDR:
		off := int64(x.a1)
		addS := uint8(x.imm)
		return func(c *nctx) bool {
			r := c.regs
			addr := r[rs] + off
			if uint64(addr) >= uint64(c.memWords) {
				return c.faultAddr(bi, pc, "load from bad address %d", addr)
			}
			r[rd] = c.mem[addr]
			r[rt] = r[fl] + r[addS]
			return true
		}, true
	case xLWADDI:
		off := int64(x.a1)
		return func(c *nctx) bool {
			r := c.regs
			addr := r[rs] + off
			if uint64(addr) >= uint64(c.memWords) {
				return c.faultAddr(bi, pc, "load from bad address %d", addr)
			}
			r[rd] = c.mem[addr]
			r[rt] = r[fl] + imm
			return true
		}, true
	case xLWSEQR, xLWSLTR, xLWSLER, xLWSNER:
		off := int64(x.a1)
		cmpS := uint8(x.imm)
		op := x.op
		return func(c *nctx) bool {
			r := c.regs
			addr := r[rs] + off
			if uint64(addr) >= uint64(c.memWords) {
				return c.faultAddr(bi, pc, "load from bad address %d", addr)
			}
			r[rd] = c.mem[addr]
			a, b := r[fl], r[cmpS]
			var v int64
			switch op {
			case xLWSEQR:
				v = b2i(a == b)
			case xLWSLTR:
				v = b2i(a < b)
			case xLWSLER:
				v = b2i(a <= b)
			default:
				v = b2i(a != b)
			}
			r[rt] = v
			return true
		}, true
	case xLWSEQI, xLWSLTI, xLWSLEI, xLWSNEI:
		off := int64(x.a1)
		op := x.op
		return func(c *nctx) bool {
			r := c.regs
			addr := r[rs] + off
			if uint64(addr) >= uint64(c.memWords) {
				return c.faultAddr(bi, pc, "load from bad address %d", addr)
			}
			r[rd] = c.mem[addr]
			a := r[fl]
			var v int64
			switch op {
			case xLWSEQI:
				v = b2i(a == imm)
			case xLWSLTI:
				v = b2i(a < imm)
			case xLWSLEI:
				v = b2i(a <= imm)
			default:
				v = b2i(a != imm)
			}
			r[rt] = v
			return true
		}, true
	case xLWDIVR:
		off := int64(x.a1)
		divS := uint8(x.imm)
		return func(c *nctx) bool {
			r := c.regs
			addr := r[rs] + off
			if uint64(addr) >= uint64(c.memWords) {
				return c.faultAddr(bi, pc, "load from bad address %d", addr)
			}
			r[rd] = c.mem[addr]
			d := r[divS]
			if d == 0 {
				return c.fault(bi, pc+1, "division by zero")
			}
			r[rt] = r[fl] / d
			return true
		}, true
	case xMOVELW:
		return func(c *nctx) bool {
			r := c.regs
			r[rt] = r[fl]
			addr := r[rs] + imm
			if uint64(addr) >= uint64(c.memWords) {
				return c.faultAddr(bi, pc+1, "load from bad address %d", addr)
			}
			r[rd] = c.mem[addr]
			return true
		}, true
	case xADDRLW:
		base := uint8(x.imm)
		off := int64(x.a1)
		return func(c *nctx) bool {
			r := c.regs
			r[rd] = r[rs] + r[rt]
			addr := r[base] + off
			if uint64(addr) >= uint64(c.memWords) {
				return c.faultAddr(bi, pc+1, "load from bad address %d", addr)
			}
			r[fl] = c.mem[addr]
			return true
		}, true
	case xADDILW:
		off := int64(x.a1)
		return func(c *nctx) bool {
			r := c.regs
			r[rd] = r[rs] + imm
			addr := r[fl] + off
			if uint64(addr) >= uint64(c.memWords) {
				return c.faultAddr(bi, pc+1, "load from bad address %d", addr)
			}
			r[rt] = c.mem[addr]
			return true
		}, true
	case xMULIADD:
		addS := uint8(x.a1)
		return func(c *nctx) bool {
			r := c.regs
			r[rd] = r[rs] * imm
			r[rt] = r[fl] + r[addS]
			return true
		}, true
	case xPRINT:
		return func(c *nctx) bool {
			res := c.m.res
			res.Output = append(res.Output, c.regs[rs])
			return true
		}, true
	case xSPG:
		return func(c *nctx) bool {
			if c.regs[mach.SP] < c.m.stackFloor {
				return c.spOver(bi, pc)
			}
			return true
		}, true
	case xADDISPG:
		return func(c *nctx) bool {
			r := c.regs
			r[rd] = r[rs] + imm
			if r[mach.SP] < c.m.stackFloor {
				return c.spOver(bi, pc)
			}
			return true
		}, true
	case xSWLI:
		off := int64(x.a1)
		return func(c *nctx) bool {
			r := c.regs
			addr := r[rs] + off
			if uint64(addr) >= uint64(c.memWords) {
				return c.faultAddr(bi, pc, "store to bad address %d", addr)
			}
			c.mem[addr] = r[rt]
			r[rd] = imm
			return true
		}, true
	case xLI2:
		second := int64(x.a1)
		return func(c *nctx) bool {
			r := c.regs
			r[rd] = imm
			r[rt] = second
			return true
		}, true
	case xSWRUN:
		run := &t.img.runs[x.a1]
		return func(c *nctx) bool {
			r := c.regs
			base := r[run.base]
			if base > -runBaseMax && base < runBaseMax &&
				base+run.minOff >= 0 && base+run.maxOff < c.memWords {
				for j := range run.ents {
					e := &run.ents[j]
					c.mem[base+e.off] = r[e.reg]
				}
			} else {
				for k := range run.ents {
					e := &run.ents[k]
					addr := base + e.off
					if uint64(addr) >= uint64(c.memWords) {
						return c.faultAddr(bi, pc+k, "store to bad address %d", addr)
					}
					c.mem[addr] = r[e.reg]
				}
			}
			return true
		}, true
	case xLWRUN:
		run := &t.img.runs[x.a1]
		return func(c *nctx) bool {
			r := c.regs
			base := r[run.base]
			if base > -runBaseMax && base < runBaseMax &&
				base+run.minOff >= 0 && base+run.maxOff < c.memWords {
				for j := range run.ents {
					e := &run.ents[j]
					r[e.reg] = c.mem[base+e.off]
				}
			} else {
				for k := range run.ents {
					e := &run.ents[k]
					addr := base + e.off
					if uint64(addr) >= uint64(c.memWords) {
						return c.faultAddr(bi, pc+k, "load from bad address %d", addr)
					}
					r[e.reg] = c.mem[addr]
				}
			}
			return true
		}, true
	}
	return nil, false
}

// term builds the termInfo for a block's terminating superinstruction.
// Conditional branches carry both a fully specialized closure (no inner
// condition call) and the declarative cond/bnz/edges form for loopTerm.
// The closure and cond bodies intentionally duplicate each compare; the
// differential suite pins both against RunReference.
func (t *ntrans) term(x *xinstr) (termInfo, bool) {
	rd, rs, rt, fl := x.rd, x.rs, x.rt, x.flags
	imm := x.imm
	pc := int(x.pc)
	bnz := x.flags&fBNZ != 0

	switch x.op {
	case xBEQZ, xBNEZ:
		taken, fall := t.edge(x.a1), t.edge(x.a2)
		wantZero := x.op == xBEQZ
		leavePC := pc + 1
		fn := func(c *nctx) *nblock {
			nb := fall
			if (c.regs[rs] == 0) == wantZero {
				c.st.Taken++
				nb = taken
			}
			if nb == nil {
				return c.leave(leavePC)
			}
			return nb
		}
		var cond func(*nctx) (int64, bool)
		if wantZero {
			cond = func(c *nctx) (int64, bool) { return b2i(c.regs[rs] == 0), true }
		} else {
			cond = func(c *nctx) (int64, bool) { return b2i(c.regs[rs] != 0), true }
		}
		return branch(fn, cond, true, x.a1, x.a2, leavePC), true

	case xJ:
		return t.uncond(x.a1, pc+1), true
	case xJAL:
		ra := int64(x.pc) + 1
		// An unresolved extern call completes the jump, then control
		// arrives at pc -1 and leaves the image — after RA is written.
		ti := t.uncond(x.a1, -1)
		ti.step = func(c *nctx) bool { c.regs[mach.RA] = ra; return true }
		return ti, true
	case xJALR:
		ownBI := x.a1
		ra := int64(x.pc) + 1
		funcs := t.p.Funcs
		nf := int64(len(funcs))
		blockIdx := t.img.blockIdx
		nbs := t.nbs
		return termInfo{fn: func(c *nctx) *nblock {
			fv := c.regs[rs]
			if fv < 1 || fv > nf {
				c.faultAddr(ownBI, pc, "indirect call through invalid function value %d", fv)
				return nil
			}
			fi := funcs[fv-1]
			if fi.Entry < 0 {
				c.faultName(ownBI, pc, "indirect call to extern function %s", fi.Name)
				return nil
			}
			c.regs[mach.RA] = ra
			// Function entries are block leaders, so the target is always
			// a block head.
			return &nbs[blockIdx[fi.Entry]]
		}}, true
	case xJR:
		return t.jr(rs), true
	case xADDISPGJR:
		guardBI := x.a2
		ti := t.jr(rt)
		ti.step = func(c *nctx) bool {
			r := c.regs
			r[rd] = r[rs] + imm
			if r[mach.SP] < c.m.stackFloor {
				return c.spOver(guardBI, pc)
			}
			return true
		}
		return ti, true
	case xMOVEJ:
		ti := t.uncond(x.a1, pc+1)
		ti.step = func(c *nctx) bool { c.regs[rd] = c.regs[rs]; return true }
		return ti, true
	case xMOVEJAL:
		ti := t.uncond(x.a1, pc+1)
		ti.step = func(c *nctx) bool {
			r := c.regs
			r[rd] = r[rs]
			r[mach.RA] = imm
			return true
		}
		return ti, true
	case xMOVE2MOVEJAL:
		m3d, m3s := uint8(x.imm>>8), uint8(x.imm)
		ra := x.imm >> 16
		ti := t.uncond(x.a1, pc+1)
		ti.step = func(c *nctx) bool {
			r := c.regs
			r[rd] = r[rs]
			r[rt] = r[fl]
			r[m3d] = r[m3s]
			r[mach.RA] = ra
			return true
		}
		return ti, true
	case xMOVEADDMOVEMULMOVEJ:
		m1d, m1s := uint8(x.a1), uint8(x.a1>>8)
		m2d, m2s := uint8(x.a1>>16), uint8(x.a1>>24)
		mulS := uint8(x.a2)
		mulImm := int64(int32(uint32(x.imm)))
		m3d, m3s := uint8(x.a2>>8), uint8(x.a2>>16)
		ti := t.uncond(int32(x.imm>>32), pc+1)
		ti.step = func(c *nctx) bool {
			r := c.regs
			r[m1d] = r[m1s]
			r[rd] = r[rs] + r[rt]
			r[m2d] = r[m2s]
			r[fl] = r[mulS] * mulImm
			r[m3d] = r[m3s]
			return true
		}
		return ti, true
	case xMOVEJR:
		ti := t.jr(rt)
		ti.step = func(c *nctx) bool { c.regs[rd] = c.regs[rs]; return true }
		return ti, true
	case xADDIMOVEJ:
		ti := t.uncond(x.a1, pc+1)
		ti.step = func(c *nctx) bool {
			r := c.regs
			r[rd] = r[rs] + imm
			r[rt] = r[fl]
			return true
		}
		return ti, true
	case xLIMOVEJR:
		ti := t.jr(rs)
		ti.step = func(c *nctx) bool {
			r := c.regs
			r[rd] = imm
			r[rt] = r[fl]
			return true
		}
		return ti, true
	case xLWADDMOVEJ:
		ownBI := x.a2
		off := int64(x.a1)
		addS := uint8(x.imm)
		mvD, mvS := uint8(x.imm>>8), uint8(x.imm>>16)
		ti := t.uncond(int32(x.imm>>24), pc+1)
		ti.step = func(c *nctx) bool {
			r := c.regs
			addr := r[rs] + off
			if uint64(addr) >= uint64(c.memWords) {
				return c.faultAddr(ownBI, pc, "load from bad address %d", addr)
			}
			r[rd] = c.mem[addr]
			r[rt] = r[fl] + r[addS]
			r[mvD] = r[mvS]
			return true
		}
		return ti, true
	case xMOVEFALL:
		ti := t.uncond(x.a2, pc+1)
		ti.step = func(c *nctx) bool { c.regs[rd] = c.regs[rs]; return true }
		return ti, true
	case xLIFALL:
		ti := t.uncond(x.a2, pc+1)
		ti.step = func(c *nctx) bool { c.regs[rd] = imm; return true }
		return ti, true
	case xFALL:
		return t.uncond(x.a2, pc+1), true
	case xEXIT:
		return termInfo{fn: func(c *nctx) *nblock {
			c.sig = nsExit
			return nil
		}}, true

	case xDIVLIREM2X2SNEB:
		ownBI := x.a2
		li1, par1 := uint8(x.imm), uint8(x.imm>>8)
		d2rd, d2rs, d2rt := uint8(x.imm>>16), uint8(x.imm>>24), uint8(x.imm>>32)
		li2, par2 := uint8(x.imm>>40), uint8(x.imm>>48)
		cmpD := x.flags >> 1
		taken, fall := t.edge(x.a1), t.edge(x.a2+1)
		leavePC := pc + 1
		// Every intermediate is written to and re-read from the register
		// file at the reference interpreter's program points, so register
		// aliasing between the eight instructions resolves identically
		// (same contract as the fast engine's case body).
		cond := func(c *nctx) (int64, bool) {
			r := c.regs
			d := r[rt]
			if d == 0 {
				return 0, c.fault(ownBI, pc, "division by zero")
			}
			r[rd] = r[rs] / d
			r[li1] = 2
			r[par1] = r[rd] % 2
			d2 := r[d2rt]
			if d2 == 0 {
				return 0, c.fault(ownBI, pc+3, "division by zero")
			}
			r[d2rd] = r[d2rs] / d2
			r[li2] = 2
			r[par2] = r[d2rd] % 2
			v := b2i(r[par1] != r[par2])
			r[cmpD] = v
			return v, true
		}
		fn := func(c *nctx) *nblock {
			r := c.regs
			d := r[rt]
			if d == 0 {
				c.fault(ownBI, pc, "division by zero")
				return nil
			}
			r[rd] = r[rs] / d
			r[li1] = 2
			r[par1] = r[rd] % 2
			d2 := r[d2rt]
			if d2 == 0 {
				c.fault(ownBI, pc+3, "division by zero")
				return nil
			}
			r[d2rd] = r[d2rs] / d2
			r[li2] = 2
			r[par2] = r[d2rd] % 2
			v := b2i(r[par1] != r[par2])
			r[cmpD] = v
			nb := fall
			if (v != 0) == bnz {
				c.st.Taken++
				nb = taken
			}
			if nb == nil {
				return c.leave(leavePC)
			}
			return nb
		}
		return branch(fn, cond, bnz, x.a1, x.a2+1, leavePC), true

	case xSLTRB, xSLERB, xSEQRB, xSNERB:
		taken, fall := t.edge(x.a1), t.edge(x.a2)
		leavePC := pc + 1
		op := x.op
		cond := func(c *nctx) (int64, bool) {
			r := c.regs
			var v int64
			switch op {
			case xSLTRB:
				v = b2i(r[rs] < r[rt])
			case xSLERB:
				v = b2i(r[rs] <= r[rt])
			case xSEQRB:
				v = b2i(r[rs] == r[rt])
			default:
				v = b2i(r[rs] != r[rt])
			}
			r[rd] = v
			return v, true
		}
		fn := func(c *nctx) *nblock {
			r := c.regs
			var v int64
			switch op {
			case xSLTRB:
				v = b2i(r[rs] < r[rt])
			case xSLERB:
				v = b2i(r[rs] <= r[rt])
			case xSEQRB:
				v = b2i(r[rs] == r[rt])
			default:
				v = b2i(r[rs] != r[rt])
			}
			r[rd] = v
			nb := fall
			if (v != 0) == bnz {
				c.st.Taken++
				nb = taken
			}
			if nb == nil {
				return c.leave(leavePC)
			}
			return nb
		}
		return branch(fn, cond, bnz, x.a1, x.a2, leavePC), true
	case xSLTIB, xSLEIB, xSEQIB, xSNEIB:
		taken, fall := t.edge(x.a1), t.edge(x.a2)
		leavePC := pc + 1
		op := x.op
		cond := func(c *nctx) (int64, bool) {
			r := c.regs
			var v int64
			switch op {
			case xSLTIB:
				v = b2i(r[rs] < imm)
			case xSLEIB:
				v = b2i(r[rs] <= imm)
			case xSEQIB:
				v = b2i(r[rs] == imm)
			default:
				v = b2i(r[rs] != imm)
			}
			r[rd] = v
			return v, true
		}
		fn := func(c *nctx) *nblock {
			r := c.regs
			var v int64
			switch op {
			case xSLTIB:
				v = b2i(r[rs] < imm)
			case xSLEIB:
				v = b2i(r[rs] <= imm)
			case xSEQIB:
				v = b2i(r[rs] == imm)
			default:
				v = b2i(r[rs] != imm)
			}
			r[rd] = v
			nb := fall
			if (v != 0) == bnz {
				c.st.Taken++
				nb = taken
			}
			if nb == nil {
				return c.leave(leavePC)
			}
			return nb
		}
		return branch(fn, cond, bnz, x.a1, x.a2, leavePC), true

	case xLWSEQRB, xLWSNERB, xLWSLTRB, xLWSLERB:
		ownBI := x.a2
		off := int64(int32(uint32(x.imm)))
		cmpS := x.flags >> 1
		cmpR := uint8(x.imm >> 32)
		op := x.op
		taken, fall := t.edge(x.a1), t.edge(x.a2+1)
		leavePC := pc + 1
		cond := func(c *nctx) (int64, bool) {
			r := c.regs
			addr := r[rs] + off
			if uint64(addr) >= uint64(c.memWords) {
				return 0, c.faultAddr(ownBI, pc, "load from bad address %d", addr)
			}
			r[rd] = c.mem[addr]
			a, b := r[cmpS], r[cmpR]
			var v int64
			switch op {
			case xLWSEQRB:
				v = b2i(a == b)
			case xLWSNERB:
				v = b2i(a != b)
			case xLWSLTRB:
				v = b2i(a < b)
			default:
				v = b2i(a <= b)
			}
			r[rt] = v
			return v, true
		}
		fn := func(c *nctx) *nblock {
			r := c.regs
			addr := r[rs] + off
			if uint64(addr) >= uint64(c.memWords) {
				c.faultAddr(ownBI, pc, "load from bad address %d", addr)
				return nil
			}
			r[rd] = c.mem[addr]
			a, b := r[cmpS], r[cmpR]
			var v int64
			switch op {
			case xLWSEQRB:
				v = b2i(a == b)
			case xLWSNERB:
				v = b2i(a != b)
			case xLWSLTRB:
				v = b2i(a < b)
			default:
				v = b2i(a <= b)
			}
			r[rt] = v
			nb := fall
			if (v != 0) == bnz {
				c.st.Taken++
				nb = taken
			}
			if nb == nil {
				return c.leave(leavePC)
			}
			return nb
		}
		return branch(fn, cond, bnz, x.a1, x.a2+1, leavePC), true
	case xLWSEQIB, xLWSNEIB, xLWSLTIB, xLWSLEIB:
		ownBI := x.a2
		off := int64(int32(uint32(x.imm)))
		cmpS := x.flags >> 1
		cmpImm := x.imm >> 32
		op := x.op
		taken, fall := t.edge(x.a1), t.edge(x.a2+1)
		leavePC := pc + 1
		cond := func(c *nctx) (int64, bool) {
			r := c.regs
			addr := r[rs] + off
			if uint64(addr) >= uint64(c.memWords) {
				return 0, c.faultAddr(ownBI, pc, "load from bad address %d", addr)
			}
			r[rd] = c.mem[addr]
			a := r[cmpS]
			var v int64
			switch op {
			case xLWSEQIB:
				v = b2i(a == cmpImm)
			case xLWSNEIB:
				v = b2i(a != cmpImm)
			case xLWSLTIB:
				v = b2i(a < cmpImm)
			default:
				v = b2i(a <= cmpImm)
			}
			r[rt] = v
			return v, true
		}
		fn := func(c *nctx) *nblock {
			r := c.regs
			addr := r[rs] + off
			if uint64(addr) >= uint64(c.memWords) {
				c.faultAddr(ownBI, pc, "load from bad address %d", addr)
				return nil
			}
			r[rd] = c.mem[addr]
			a := r[cmpS]
			var v int64
			switch op {
			case xLWSEQIB:
				v = b2i(a == cmpImm)
			case xLWSNEIB:
				v = b2i(a != cmpImm)
			case xLWSLTIB:
				v = b2i(a < cmpImm)
			default:
				v = b2i(a <= cmpImm)
			}
			r[rt] = v
			nb := fall
			if (v != 0) == bnz {
				c.st.Taken++
				nb = taken
			}
			if nb == nil {
				return c.leave(leavePC)
			}
			return nb
		}
		return branch(fn, cond, bnz, x.a1, x.a2+1, leavePC), true
	case xMULIADDLWSEQIB:
		ownBI := x.a2
		mulD, mulS := uint8(x.imm), uint8(x.imm>>8)
		lwD := uint8(x.imm >> 16)
		off := int64(int16(uint16(x.imm >> 24)))
		mulImm := int64(int16(uint16(x.imm >> 40)))
		cmpImm := int64(int8(uint8(x.imm >> 56)))
		cmpD := x.flags >> 1
		taken, fall := t.edge(x.a1), t.edge(x.a2+1)
		leavePC := pc + 1
		cond := func(c *nctx) (int64, bool) {
			r := c.regs
			r[mulD] = r[mulS] * mulImm
			r[rd] = r[rs] + r[rt]
			addr := r[rd] + off
			if uint64(addr) >= uint64(c.memWords) {
				return 0, c.faultAddr(ownBI, pc+2, "load from bad address %d", addr)
			}
			r[lwD] = c.mem[addr]
			v := b2i(r[lwD] == cmpImm)
			r[cmpD] = v
			return v, true
		}
		fn := func(c *nctx) *nblock {
			r := c.regs
			r[mulD] = r[mulS] * mulImm
			r[rd] = r[rs] + r[rt]
			addr := r[rd] + off
			if uint64(addr) >= uint64(c.memWords) {
				c.faultAddr(ownBI, pc+2, "load from bad address %d", addr)
				return nil
			}
			r[lwD] = c.mem[addr]
			v := b2i(r[lwD] == cmpImm)
			r[cmpD] = v
			nb := fall
			if (v != 0) == bnz {
				c.st.Taken++
				nb = taken
			}
			if nb == nil {
				return c.leave(leavePC)
			}
			return nb
		}
		return branch(fn, cond, bnz, x.a1, x.a2+1, leavePC), true
	}
	return termInfo{}, false
}
