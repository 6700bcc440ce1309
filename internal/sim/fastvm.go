// The predecoded execution engine. runFast drives the image produced by
// predecode as one flat dispatch loop over the internal instruction
// stream: static control edges carry the target's block index, so
// following an edge is a handful of arithmetic instructions — bump the
// entered block's entry counter, charge its instruction count against the
// budget, jump to its first internal instruction. The only statistic
// maintained while blocks execute is that per-block entry counter; the
// full pixie.Stats plus the per-instruction profile counts are
// materialized from the counters once, when the run ends (pixie's own
// block-counting technique). The register file is over-sized to 256 slots
// so the uint8 register fields of the internal ISA can never index out of
// range, letting the compiler drop every register bounds check in the hot
// loop; stack-overflow detection costs nothing per instruction because
// predecode emits a guard opcode only after instructions that write $sp.
//
// Exactness on faults is non-negotiable: a trap must report the same PC,
// the same message and the same partial statistics as the reference
// interpreter. The fast path executes instructions for real (so machine
// state is always true) and batches only the counters; when an instruction
// faults mid-block, the trap helpers unwind the faulting block's entry
// count, flush the batched counters, then reconstruct per-instruction
// statistics for the completed prefix of the faulting block from the
// original code, then apply the reference interpreter's exact partial
// accounting for the faulting instruction itself. The instruction budget
// is pre-checked per block entry: a block that could exhaust it is
// delegated (after a flush) to the reference interpreter, which then owns
// the run to termination — it is within one block of the limit, so this
// costs nothing measurable.
package sim

import (
	"fmt"
	"time"

	"chow88/internal/mach"
	"chow88/internal/mcode"
	"chow88/internal/obs"
)

// runBaseMax bounds the base-register magnitude eligible for a memory
// run's single bounds check; combined with the offset bound applied at
// fusion time it makes base+minOff / base+maxOff overflow-free. Bases
// outside the window take the per-entry walk, whose address arithmetic
// wraps exactly like the reference interpreter's.
const runBaseMax = int64(1) << 62

// entCnt is runFast's per-run copy of a blkEnt with the block's entry
// counter inline: the edge code then touches one cache line per block
// transition instead of two (the shared image's ents plus a separate
// counts array). The image itself stays immutable and shareable.
type entCnt struct {
	x0     int32 // copied from blkEnt (negative marks a threaded J-only block)
	ninstr int32
	count  int64
}

// prefixStats accounts the fully-completed instructions [b.start, end) of
// a block the fast engine was executing when a fault struck: full
// per-instruction statistics plus profile counts. No branch can sit in
// the prefix (branches terminate blocks and never fault), so Taken needs
// no handling.
func (m *machine) prefixStats(b *block, end int) {
	st := &m.res.Stats
	ic := m.res.InstrCounts
	for pc := int(b.start); pc < end; pc++ {
		addInstrStats(st, &m.p.Code[pc])
		if ic != nil {
			ic[pc]++
		}
	}
}

// flushEnts materializes pixie.Stats, the per-instruction profile counts
// and the obs dispatch histogram from the per-run block entry counters,
// then resets the counters so it is safe to resume batching afterwards.
// It is the single place batched counts become statistics.
func (m *machine) flushEnts(img *image, ents []entCnt) {
	st := &m.res.Stats
	ic := m.res.InstrCounts
	xcode := img.xcode
	for bi := range ents {
		c := ents[bi].count
		if c == 0 {
			continue
		}
		b := &img.blocks[bi]
		st.AddN(&b.delta, c)
		if ic != nil {
			for i := b.start; i < b.end; i++ {
				ic[i] += c
			}
			for _, tb := range img.tails[bi] {
				tbb := &img.blocks[tb]
				for i := tbb.start; i < tbb.end; i++ {
					ic[i] += c
				}
			}
		}
		if m.superHits != nil {
			// Attribute the block's dispatches to its predecoded span
			// (tail-inlined bodies included — they live in the span).
			// Never touched in the dispatch loops: the histogram, like
			// Stats, materializes from the entry counters alone.
			m.blockEntries += c
			hi := int32(len(xcode))
			if bi+1 < len(img.blocks) {
				hi = img.blocks[bi+1].x0
			}
			for k := b.x0; k < hi; k++ {
				m.superHits[xcode[k].op] += c
			}
		}
		ents[bi].count = 0
	}
}

// faultEnts reports a trap with preformatted message msg at original code
// index fpc inside block bi, replicating the reference interpreter's
// partial accounting for the faulting instruction: InstrCounts and
// Instrs/Cycles always tick before any fault there; DIV/REM charge their
// full latency before the zero check; JALR counts the call before
// validating the callee. The faulting block's entry is unwound first — it
// never completed, so its batched delta must not apply.
func (m *machine) faultEnts(img *image, ents []entCnt, bi int32, fpc int, msg string) error {
	ents[bi].count--
	m.flushEnts(img, ents)
	m.prefixStats(&img.blocks[bi], fpc)
	st := &m.res.Stats
	if ic := m.res.InstrCounts; ic != nil {
		ic[fpc]++
	}
	st.Instrs++
	st.Cycles++
	if m.p.Code[fpc].Linkage {
		st.LinkageCycles++
	}
	switch m.p.Code[fpc].Op {
	case mcode.DIV, mcode.REM:
		st.Cycles += 34
		st.MulDiv++
	case mcode.JALR:
		st.Calls++
	}
	return &Trap{Msg: msg, PC: fpc}
}

// spOverEnts reports a stack overflow after the instruction at fpc: the
// reference interpreter completes the instruction (full statistics) and
// then checks the floor, so the prefix includes fpc itself.
func (m *machine) spOverEnts(img *image, ents []entCnt, bi int32, fpc int) error {
	ents[bi].count--
	m.flushEnts(img, ents)
	m.prefixStats(&img.blocks[bi], fpc+1)
	return m.trap(fpc, "stack overflow (sp %d below floor %d)", m.regs[mach.SP], m.stackFloor)
}

// runFast executes the program from pc 0 on the predecoded image.
func (m *machine) runFast(img *image) error {
	p := m.p
	n := len(p.Code)
	st := &m.res.Stats
	regs := &m.regs
	mem := m.mem
	memWords := m.memWords
	xcode := img.xcode

	// ents is the per-run copy of the image's block entry table with each
	// block's entry counter inline — the only state the dispatch loop
	// maintains per transition, and a single cache line per entry instead
	// of the shared ents plus a separate counts array. flush materializes
	// Stats and (when profiling) InstrCounts from the counters; it runs on
	// every exit path and before any hand-off to the precise interpreter,
	// and resets the counters so it is safe to resume batching afterwards.
	// A block entry that faults before completing is unwound (count--) by
	// the trap helpers before they flush. Tail-inlined blocks execute under
	// the inlining block's count: its delta already includes theirs, and
	// the tails list routes InstrCounts to their code ranges.
	ents := make([]entCnt, len(img.ents))
	for i, e := range img.ents {
		ents[i] = entCnt{x0: e.x0, ninstr: e.ninstr}
	}
	flush := func() { m.flushEnts(img, ents) }

	// fault reports a trap at original code index fpc inside block bi; the
	// partial-accounting contract lives in machine.faultEnts.
	fault := func(bi int32, fpc int, format string, args ...any) error {
		return m.faultEnts(img, ents, bi, fpc, fmt.Sprintf(format, args...))
	}

	// spOver reports a stack overflow after the instruction at fpc; see
	// machine.spOverEnts.
	spOver := func(bi int32, fpc int) error {
		return m.spOverEnts(img, ents, bi, fpc)
	}

	// instrs mirrors what st.Instrs will be once counts are flushed; the
	// per-block budget pre-check reads it instead of touching st. nbi is
	// the pending control edge: terminator cases set it and fall out of
	// the switch into the shared edge code below; every other case loops
	// back directly with continue.
	var instrs int64
	var nbi int32
	var xi int

	// Enter block 0 (the startup stub at pc 0).
	{
		bb := &img.blocks[0]
		ents[0].count++
		instrs += bb.ninstr
		if instrs > m.maxInstrs {
			ents[0].count--
			flush()
			obs.Current().Add(obs.CSimBudgetHandoff, 1)
			_, _, err := m.interpret(0, nil)
			return err
		}
		if instrs >= m.deadlineAt {
			m.deadlineAt += deadlineStride
			if time.Now().After(m.deadline) {
				ents[0].count--
				flush()
				return fmt.Errorf("pc 0: %w", ErrDeadline)
			}
		}
		xi = int(bb.x0)
	}

	for {
		x := &xcode[xi]
		xi++
		switch x.op {
		case xLI:
			regs[x.rd] = x.imm
			continue
		case xMOVE:
			regs[x.rd] = regs[x.rs]
			continue
		case xADDR:
			regs[x.rd] = regs[x.rs] + regs[x.rt]
			continue
		case xADDI:
			regs[x.rd] = regs[x.rs] + x.imm
			continue
		case xSUBR:
			regs[x.rd] = regs[x.rs] - regs[x.rt]
			continue
		case xSUBI:
			regs[x.rd] = regs[x.rs] - x.imm
			continue
		case xMULR:
			regs[x.rd] = regs[x.rs] * regs[x.rt]
			continue
		case xMULI:
			regs[x.rd] = regs[x.rs] * x.imm
			continue
		case xDIVR:
			d := regs[x.rt]
			if d == 0 {
				return fault(x.a2, int(x.pc), "division by zero")
			}
			regs[x.rd] = regs[x.rs] / d
			continue
		case xDIVI:
			if x.imm == 0 {
				return fault(x.a2, int(x.pc), "division by zero")
			}
			regs[x.rd] = regs[x.rs] / x.imm
			continue
		case xREMR:
			d := regs[x.rt]
			if d == 0 {
				return fault(x.a2, int(x.pc), "division by zero")
			}
			regs[x.rd] = regs[x.rs] % d
			continue
		case xREMI:
			if x.imm == 0 {
				return fault(x.a2, int(x.pc), "division by zero")
			}
			regs[x.rd] = regs[x.rs] % x.imm
			continue
		case xSLTR:
			regs[x.rd] = b2i(regs[x.rs] < regs[x.rt])
			continue
		case xSLTI:
			regs[x.rd] = b2i(regs[x.rs] < x.imm)
			continue
		case xSLER:
			regs[x.rd] = b2i(regs[x.rs] <= regs[x.rt])
			continue
		case xSLEI:
			regs[x.rd] = b2i(regs[x.rs] <= x.imm)
			continue
		case xSEQR:
			regs[x.rd] = b2i(regs[x.rs] == regs[x.rt])
			continue
		case xSEQI:
			regs[x.rd] = b2i(regs[x.rs] == x.imm)
			continue
		case xSNER:
			regs[x.rd] = b2i(regs[x.rs] != regs[x.rt])
			continue
		case xSNEI:
			regs[x.rd] = b2i(regs[x.rs] != x.imm)
			continue
		case xLW:
			addr := regs[x.rs] + x.imm
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc), "load from bad address %d", addr)
			}
			regs[x.rd] = mem[addr]
			continue
		case xSW:
			addr := regs[x.rs] + x.imm
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc), "store to bad address %d", addr)
			}
			mem[addr] = regs[x.rt]
			continue
		case xMOVE2:
			regs[x.rd] = regs[x.rs]
			regs[x.rt] = regs[x.flags]
			continue
		case xLIMOVE:
			regs[x.rd] = x.imm
			regs[x.rt] = regs[x.flags]
			continue
		case xLIDIVR:
			regs[x.rd] = x.imm
			regs[x.rt] = regs[x.rs] / x.imm
			continue
		case xLIREMR:
			regs[x.rd] = x.imm
			regs[x.rt] = regs[x.rs] % x.imm
			continue
		case xLIREM2:
			regs[x.rd] = 2
			regs[x.rt] = regs[x.rs] % 2
			continue
		case xDIVLIREM2:
			d := regs[x.rt]
			if d == 0 {
				return fault(x.a2, int(x.pc), "division by zero")
			}
			regs[x.rd] = regs[x.rs] / d
			regs[x.flags] = 2
			regs[uint8(x.a1>>8)] = regs[uint8(x.a1)] % 2
			continue
		case xMOVEADDMOVEMUL:
			regs[uint8(x.a1)] = regs[uint8(x.a1>>8)]
			regs[x.rd] = regs[x.rs] + regs[x.rt]
			regs[uint8(x.a1>>16)] = regs[uint8(x.a1>>24)]
			regs[x.flags] = regs[uint8(x.a2)] * x.imm
			continue
		case xMOVELWADDMOVE:
			regs[x.rt] = regs[x.flags]
			addr := regs[x.rs] + x.imm>>32
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc)+1, "load from bad address %d", addr)
			}
			regs[x.rd] = mem[addr]
			regs[uint8(x.imm)] = regs[uint8(x.imm>>8)] + regs[uint8(x.imm>>16)]
			regs[uint8(x.a1)] = regs[uint8(x.a1>>8)]
			continue
		case xADDRMOVE:
			regs[x.rd] = regs[x.rs] + regs[x.rt]
			regs[uint8(x.imm)] = regs[uint8(x.imm>>8)]
			continue
		case xADDIMOVE:
			regs[x.rd] = regs[x.rs] + x.imm
			regs[x.rt] = regs[x.flags]
			continue
		case xMULRMOVE:
			regs[x.rd] = regs[x.rs] * regs[x.rt]
			regs[uint8(x.imm)] = regs[uint8(x.imm>>8)]
			continue
		case xMULIMOVE:
			regs[x.rd] = regs[x.rs] * x.imm
			regs[x.rt] = regs[x.flags]
			continue
		case xMOVEADDR:
			regs[uint8(x.imm)] = regs[uint8(x.imm>>8)]
			regs[x.rd] = regs[x.rs] + regs[x.rt]
			continue
		case xMOVEADDI:
			regs[x.rt] = regs[x.flags]
			regs[x.rd] = regs[x.rs] + x.imm
			continue
		case xMOVEMULR:
			regs[uint8(x.imm)] = regs[uint8(x.imm>>8)]
			regs[x.rd] = regs[x.rs] * regs[x.rt]
			continue
		case xMOVEMULI:
			regs[x.rt] = regs[x.flags]
			regs[x.rd] = regs[x.rs] * x.imm
			continue
		case xLWMOVE:
			addr := regs[x.rs] + int64(x.a1)
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc), "load from bad address %d", addr)
			}
			regs[x.rd] = mem[addr]
			regs[x.rt] = regs[x.flags]
			continue
		case xLWADDR:
			addr := regs[x.rs] + int64(x.a1)
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc), "load from bad address %d", addr)
			}
			regs[x.rd] = mem[addr]
			regs[x.rt] = regs[x.flags] + regs[uint8(x.imm)]
			continue
		case xLWADDI:
			addr := regs[x.rs] + int64(x.a1)
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc), "load from bad address %d", addr)
			}
			regs[x.rd] = mem[addr]
			regs[x.rt] = regs[x.flags] + x.imm
			continue
		case xLWSEQR:
			addr := regs[x.rs] + int64(x.a1)
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc), "load from bad address %d", addr)
			}
			regs[x.rd] = mem[addr]
			regs[x.rt] = b2i(regs[x.flags] == regs[uint8(x.imm)])
			continue
		case xLWSEQI:
			addr := regs[x.rs] + int64(x.a1)
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc), "load from bad address %d", addr)
			}
			regs[x.rd] = mem[addr]
			regs[x.rt] = b2i(regs[x.flags] == x.imm)
			continue
		case xLWSLTR:
			addr := regs[x.rs] + int64(x.a1)
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc), "load from bad address %d", addr)
			}
			regs[x.rd] = mem[addr]
			regs[x.rt] = b2i(regs[x.flags] < regs[uint8(x.imm)])
			continue
		case xLWSLTI:
			addr := regs[x.rs] + int64(x.a1)
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc), "load from bad address %d", addr)
			}
			regs[x.rd] = mem[addr]
			regs[x.rt] = b2i(regs[x.flags] < x.imm)
			continue
		case xLWSLER:
			addr := regs[x.rs] + int64(x.a1)
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc), "load from bad address %d", addr)
			}
			regs[x.rd] = mem[addr]
			regs[x.rt] = b2i(regs[x.flags] <= regs[uint8(x.imm)])
			continue
		case xLWSLEI:
			addr := regs[x.rs] + int64(x.a1)
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc), "load from bad address %d", addr)
			}
			regs[x.rd] = mem[addr]
			regs[x.rt] = b2i(regs[x.flags] <= x.imm)
			continue
		case xLWSNER:
			addr := regs[x.rs] + int64(x.a1)
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc), "load from bad address %d", addr)
			}
			regs[x.rd] = mem[addr]
			regs[x.rt] = b2i(regs[x.flags] != regs[uint8(x.imm)])
			continue
		case xLWSNEI:
			addr := regs[x.rs] + int64(x.a1)
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc), "load from bad address %d", addr)
			}
			regs[x.rd] = mem[addr]
			regs[x.rt] = b2i(regs[x.flags] != x.imm)
			continue
		case xLWDIVR:
			addr := regs[x.rs] + int64(x.a1)
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc), "load from bad address %d", addr)
			}
			regs[x.rd] = mem[addr]
			d := regs[uint8(x.imm)]
			if d == 0 {
				return fault(x.a2, int(x.pc)+1, "division by zero")
			}
			regs[x.rt] = regs[x.flags] / d
			continue
		case xMOVELW:
			regs[x.rt] = regs[x.flags]
			addr := regs[x.rs] + x.imm
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc)+1, "load from bad address %d", addr)
			}
			regs[x.rd] = mem[addr]
			continue
		case xADDRLW:
			regs[x.rd] = regs[x.rs] + regs[x.rt]
			addr := regs[uint8(x.imm)] + int64(x.a1)
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc)+1, "load from bad address %d", addr)
			}
			regs[x.flags] = mem[addr]
			continue
		case xADDILW:
			regs[x.rd] = regs[x.rs] + x.imm
			addr := regs[x.flags] + int64(x.a1)
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc)+1, "load from bad address %d", addr)
			}
			regs[x.rt] = mem[addr]
			continue
		case xMULIADD:
			regs[x.rd] = regs[x.rs] * x.imm
			regs[x.rt] = regs[x.flags] + regs[uint8(x.a1)]
			continue
		case xPRINT:
			m.res.Output = append(m.res.Output, regs[x.rs])
			continue
		case xSPG:
			if regs[mach.SP] < m.stackFloor {
				return spOver(x.a2, int(x.pc))
			}
			continue
		case xADDISPG:
			regs[x.rd] = regs[x.rs] + x.imm
			if regs[mach.SP] < m.stackFloor {
				return spOver(x.a2, int(x.pc))
			}
			continue
		case xSWLI:
			addr := regs[x.rs] + int64(x.a1)
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc), "store to bad address %d", addr)
			}
			mem[addr] = regs[x.rt]
			regs[x.rd] = x.imm
			continue
		case xLI2:
			regs[x.rd] = x.imm
			regs[x.rt] = int64(x.a1)
			continue

		case xBEQZ:
			nbi = x.a2
			if regs[x.rs] == 0 {
				st.Taken++
				nbi = x.a1
			}
		case xBNEZ:
			nbi = x.a2
			if regs[x.rs] != 0 {
				st.Taken++
				nbi = x.a1
			}
		case xJ:
			nbi = x.a1
		case xJAL:
			regs[mach.RA] = int64(x.pc) + 1
			nbi = x.a1
			if nbi < 0 {
				// Unresolved extern call: the jump itself completed, then
				// control arrives at pc -1 and leaves the image.
				flush()
				return m.trap(-1, "control left the code image")
			}
		case xJALR:
			fv := regs[x.rs]
			if fv < 1 || fv > int64(len(p.Funcs)) {
				return fault(x.a1, int(x.pc), "indirect call through invalid function value %d", fv)
			}
			fi := p.Funcs[fv-1]
			if fi.Entry < 0 {
				return fault(x.a1, int(x.pc), "indirect call to extern function %s", fi.Name)
			}
			regs[mach.RA] = int64(x.pc) + 1
			nbi = img.blockIdx[fi.Entry]
		case xJR:
			pcv := regs[x.rs]
			if pcv < 0 || pcv >= int64(n) {
				flush()
				return m.trap(int(pcv), "control left the code image")
			}
			nbi = img.blockIdx[pcv]
			if nbi < 0 {
				// Jump into the middle of a block: flush, then run the
				// reference interpreter precisely until control reaches a
				// block head, and resume block execution there.
				flush()
				npc, done, err := m.interpret(int(pcv), img.blockIdx)
				if done {
					return err
				}
				instrs = st.Instrs // flush + interpret leave them equal
				nbi = img.blockIdx[npc]
			}
		case xADDISPGJR:
			regs[x.rd] = regs[x.rs] + x.imm
			if regs[mach.SP] < m.stackFloor {
				return spOver(x.a2, int(x.pc))
			}
			pcv := regs[x.rt]
			if pcv < 0 || pcv >= int64(n) {
				flush()
				return m.trap(int(pcv), "control left the code image")
			}
			nbi = img.blockIdx[pcv]
			if nbi < 0 {
				flush()
				npc, done, err := m.interpret(int(pcv), img.blockIdx)
				if done {
					return err
				}
				instrs = st.Instrs
				nbi = img.blockIdx[npc]
			}
		case xMOVEJ:
			regs[x.rd] = regs[x.rs]
			nbi = x.a1
		case xMOVEJAL:
			regs[x.rd] = regs[x.rs]
			regs[mach.RA] = x.imm
			nbi = x.a1
		case xMOVE2MOVEJAL:
			regs[x.rd] = regs[x.rs]
			regs[x.rt] = regs[x.flags]
			regs[uint8(x.imm>>8)] = regs[uint8(x.imm)]
			regs[mach.RA] = x.imm >> 16
			nbi = x.a1
		case xMOVEADDMOVEMULMOVEJ:
			regs[uint8(x.a1)] = regs[uint8(x.a1>>8)]
			regs[x.rd] = regs[x.rs] + regs[x.rt]
			regs[uint8(x.a1>>16)] = regs[uint8(x.a1>>24)]
			regs[x.flags] = regs[uint8(x.a2)] * int64(int32(uint32(x.imm)))
			regs[uint8(x.a2>>8)] = regs[uint8(x.a2>>16)]
			nbi = int32(x.imm >> 32)
		case xMOVEJR:
			regs[x.rd] = regs[x.rs]
			pcv := regs[x.rt]
			if pcv < 0 || pcv >= int64(n) {
				flush()
				return m.trap(int(pcv), "control left the code image")
			}
			nbi = img.blockIdx[pcv]
			if nbi < 0 {
				flush()
				npc, done, err := m.interpret(int(pcv), img.blockIdx)
				if done {
					return err
				}
				instrs = st.Instrs
				nbi = img.blockIdx[npc]
			}
		case xADDIMOVEJ:
			regs[x.rd] = regs[x.rs] + x.imm
			regs[x.rt] = regs[x.flags]
			nbi = x.a1
		case xLIMOVEJR:
			regs[x.rd] = x.imm
			regs[x.rt] = regs[x.flags]
			pcv := regs[x.rs]
			if pcv < 0 || pcv >= int64(n) {
				flush()
				return m.trap(int(pcv), "control left the code image")
			}
			nbi = img.blockIdx[pcv]
			if nbi < 0 {
				flush()
				npc, done, err := m.interpret(int(pcv), img.blockIdx)
				if done {
					return err
				}
				instrs = st.Instrs
				nbi = img.blockIdx[npc]
			}
		case xLWADDMOVEJ:
			addr := regs[x.rs] + int64(x.a1)
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc), "load from bad address %d", addr)
			}
			regs[x.rd] = mem[addr]
			regs[x.rt] = regs[x.flags] + regs[uint8(x.imm)]
			regs[uint8(x.imm>>8)] = regs[uint8(x.imm>>16)]
			nbi = int32(x.imm >> 24)
		case xMOVEFALL:
			regs[x.rd] = regs[x.rs]
			nbi = x.a2
		case xLIFALL:
			regs[x.rd] = x.imm
			nbi = x.a2
		case xDIVLIREM2X2SNEB:
			// Two DIV;LI 2;REM parity computations feeding SNE+branch. Every
			// intermediate is written to and re-read from the register file
			// at the reference interpreter's program points, so register
			// aliasing between the eight instructions resolves identically.
			d := regs[x.rt]
			if d == 0 {
				return fault(x.a2, int(x.pc), "division by zero")
			}
			regs[x.rd] = regs[x.rs] / d
			regs[uint8(x.imm)] = 2
			regs[uint8(x.imm>>8)] = regs[x.rd] % 2
			d2 := regs[uint8(x.imm>>32)]
			if d2 == 0 {
				return fault(x.a2, int(x.pc)+3, "division by zero")
			}
			regs[uint8(x.imm>>16)] = regs[uint8(x.imm>>24)] / d2
			regs[uint8(x.imm>>40)] = 2
			regs[uint8(x.imm>>48)] = regs[uint8(x.imm>>16)] % 2
			v := b2i(regs[uint8(x.imm>>8)] != regs[uint8(x.imm>>48)])
			regs[x.flags>>1] = v
			nbi = x.a2 + 1
			if (v != 0) == (x.flags&fBNZ != 0) {
				st.Taken++
				nbi = x.a1
			}
		case xFALL:
			nbi = x.a2
		case xEXIT:
			flush()
			return nil

		case xSLTRB:
			v := b2i(regs[x.rs] < regs[x.rt])
			regs[x.rd] = v
			nbi = x.a2
			if (v != 0) == (x.flags&fBNZ != 0) {
				st.Taken++
				nbi = x.a1
			}
		case xSLTIB:
			v := b2i(regs[x.rs] < x.imm)
			regs[x.rd] = v
			nbi = x.a2
			if (v != 0) == (x.flags&fBNZ != 0) {
				st.Taken++
				nbi = x.a1
			}
		case xSLERB:
			v := b2i(regs[x.rs] <= regs[x.rt])
			regs[x.rd] = v
			nbi = x.a2
			if (v != 0) == (x.flags&fBNZ != 0) {
				st.Taken++
				nbi = x.a1
			}
		case xSLEIB:
			v := b2i(regs[x.rs] <= x.imm)
			regs[x.rd] = v
			nbi = x.a2
			if (v != 0) == (x.flags&fBNZ != 0) {
				st.Taken++
				nbi = x.a1
			}
		case xSEQRB:
			v := b2i(regs[x.rs] == regs[x.rt])
			regs[x.rd] = v
			nbi = x.a2
			if (v != 0) == (x.flags&fBNZ != 0) {
				st.Taken++
				nbi = x.a1
			}
		case xSEQIB:
			v := b2i(regs[x.rs] == x.imm)
			regs[x.rd] = v
			nbi = x.a2
			if (v != 0) == (x.flags&fBNZ != 0) {
				st.Taken++
				nbi = x.a1
			}
		case xSNERB:
			v := b2i(regs[x.rs] != regs[x.rt])
			regs[x.rd] = v
			nbi = x.a2
			if (v != 0) == (x.flags&fBNZ != 0) {
				st.Taken++
				nbi = x.a1
			}
		case xSNEIB:
			v := b2i(regs[x.rs] != x.imm)
			regs[x.rd] = v
			nbi = x.a2
			if (v != 0) == (x.flags&fBNZ != 0) {
				st.Taken++
				nbi = x.a1
			}

		// Load-test-branch triples: imm packs the load offset (low 32) and
		// the compare operand (high 32); flags>>1 is the compare source.
		// The fallthrough block is always a2+1 (decode guarantees it
		// exists).
		case xLWSEQRB:
			addr := regs[x.rs] + int64(int32(uint32(x.imm)))
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc), "load from bad address %d", addr)
			}
			regs[x.rd] = mem[addr]
			v := b2i(regs[x.flags>>1] == regs[uint8(x.imm>>32)])
			regs[x.rt] = v
			nbi = x.a2 + 1
			if (v != 0) == (x.flags&fBNZ != 0) {
				st.Taken++
				nbi = x.a1
			}
		case xLWSEQIB:
			addr := regs[x.rs] + int64(int32(uint32(x.imm)))
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc), "load from bad address %d", addr)
			}
			regs[x.rd] = mem[addr]
			v := b2i(regs[x.flags>>1] == x.imm>>32)
			regs[x.rt] = v
			nbi = x.a2 + 1
			if (v != 0) == (x.flags&fBNZ != 0) {
				st.Taken++
				nbi = x.a1
			}
		case xMULIADDLWSEQIB:
			// Scaled array probe: MUL (imm) ; ADD ; LW ; SEQ (imm) ; branch.
			// Each intermediate is written to and re-read from the register
			// file at the reference interpreter's program points, so aliasing
			// between the five instructions resolves identically.
			regs[uint8(x.imm)] = regs[uint8(x.imm>>8)] * int64(int16(uint16(x.imm>>40)))
			regs[x.rd] = regs[x.rs] + regs[x.rt]
			addr := regs[x.rd] + int64(int16(uint16(x.imm>>24)))
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc)+2, "load from bad address %d", addr)
			}
			regs[uint8(x.imm>>16)] = mem[addr]
			v := b2i(regs[uint8(x.imm>>16)] == int64(int8(uint8(x.imm>>56))))
			regs[x.flags>>1] = v
			nbi = x.a2 + 1
			if (v != 0) == (x.flags&fBNZ != 0) {
				st.Taken++
				nbi = x.a1
			}
		case xLWSNERB:
			addr := regs[x.rs] + int64(int32(uint32(x.imm)))
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc), "load from bad address %d", addr)
			}
			regs[x.rd] = mem[addr]
			v := b2i(regs[x.flags>>1] != regs[uint8(x.imm>>32)])
			regs[x.rt] = v
			nbi = x.a2 + 1
			if (v != 0) == (x.flags&fBNZ != 0) {
				st.Taken++
				nbi = x.a1
			}
		case xLWSNEIB:
			addr := regs[x.rs] + int64(int32(uint32(x.imm)))
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc), "load from bad address %d", addr)
			}
			regs[x.rd] = mem[addr]
			v := b2i(regs[x.flags>>1] != x.imm>>32)
			regs[x.rt] = v
			nbi = x.a2 + 1
			if (v != 0) == (x.flags&fBNZ != 0) {
				st.Taken++
				nbi = x.a1
			}
		case xLWSLTRB:
			addr := regs[x.rs] + int64(int32(uint32(x.imm)))
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc), "load from bad address %d", addr)
			}
			regs[x.rd] = mem[addr]
			v := b2i(regs[x.flags>>1] < regs[uint8(x.imm>>32)])
			regs[x.rt] = v
			nbi = x.a2 + 1
			if (v != 0) == (x.flags&fBNZ != 0) {
				st.Taken++
				nbi = x.a1
			}
		case xLWSLTIB:
			addr := regs[x.rs] + int64(int32(uint32(x.imm)))
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc), "load from bad address %d", addr)
			}
			regs[x.rd] = mem[addr]
			v := b2i(regs[x.flags>>1] < x.imm>>32)
			regs[x.rt] = v
			nbi = x.a2 + 1
			if (v != 0) == (x.flags&fBNZ != 0) {
				st.Taken++
				nbi = x.a1
			}
		case xLWSLERB:
			addr := regs[x.rs] + int64(int32(uint32(x.imm)))
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc), "load from bad address %d", addr)
			}
			regs[x.rd] = mem[addr]
			v := b2i(regs[x.flags>>1] <= regs[uint8(x.imm>>32)])
			regs[x.rt] = v
			nbi = x.a2 + 1
			if (v != 0) == (x.flags&fBNZ != 0) {
				st.Taken++
				nbi = x.a1
			}
		case xLWSLEIB:
			addr := regs[x.rs] + int64(int32(uint32(x.imm)))
			if addr < 0 || addr >= memWords {
				return fault(x.a2, int(x.pc), "load from bad address %d", addr)
			}
			regs[x.rd] = mem[addr]
			v := b2i(regs[x.flags>>1] <= x.imm>>32)
			regs[x.rt] = v
			nbi = x.a2 + 1
			if (v != 0) == (x.flags&fBNZ != 0) {
				st.Taken++
				nbi = x.a1
			}

		case xSWRUN:
			r := &img.runs[x.a1]
			base := regs[r.base]
			if base > -runBaseMax && base < runBaseMax &&
				base+r.minOff >= 0 && base+r.maxOff < memWords {
				for j := range r.ents {
					e := &r.ents[j]
					mem[base+e.off] = regs[e.reg]
				}
			} else {
				for k := range r.ents {
					e := &r.ents[k]
					addr := base + e.off
					if addr < 0 || addr >= memWords {
						return fault(x.a2, int(x.pc)+k, "store to bad address %d", addr)
					}
					mem[addr] = regs[e.reg]
				}
			}
			continue
		case xLWRUN:
			r := &img.runs[x.a1]
			base := regs[r.base]
			if base > -runBaseMax && base < runBaseMax &&
				base+r.minOff >= 0 && base+r.maxOff < memWords {
				for j := range r.ents {
					e := &r.ents[j]
					regs[e.reg] = mem[base+e.off]
				}
			} else {
				for k := range r.ents {
					e := &r.ents[k]
					addr := base + e.off
					if addr < 0 || addr >= memWords {
						return fault(x.a2, int(x.pc)+k, "load from bad address %d", addr)
					}
					regs[e.reg] = mem[addr]
				}
			}
			continue

		default:
			// Unreachable: predecode emits only the opcodes above.
			flush()
			return m.trap(int(x.pc), "illegal instruction %d", int(p.Code[x.pc].Op))
		}

		// Follow the pending edge: enter block nbi. nbi < 0 means control
		// would fall off the end of the code image (only terminators whose
		// fallthrough pc is len(p.Code) carry that sentinel).
		if nbi < 0 {
			flush()
			return m.trap(int(x.pc)+1, "control left the code image")
		}
		for {
			e := &ents[nbi]
			e.count++
			instrs += int64(e.ninstr)
			if instrs > m.maxInstrs {
				// The budget could expire inside the entered block; unwind
				// its entry and let the reference interpreter finish the run
				// with exact per-instruction accounting (it terminates
				// within one block of instructions).
				e.count--
				flush()
				obs.Current().Add(obs.CSimBudgetHandoff, 1)
				_, _, err := m.interpret(int(img.blocks[nbi].start), nil)
				return err
			}
			if instrs >= m.deadlineAt {
				// A wall-clock deadline is inherently approximate (unlike the
				// instruction budget it never needs bit-exact accounting), so
				// expiry stops at the block boundary: unwind the entry that
				// was never executed, flush partial statistics, and return.
				m.deadlineAt += deadlineStride
				if time.Now().After(m.deadline) {
					e.count--
					flush()
					return fmt.Errorf("pc %d: %w", img.blocks[nbi].start, ErrDeadline)
				}
			}
			if e.x0 >= 0 {
				xi = int(e.x0)
				break
			}
			// J-only block: follow its edge without dispatching the jump.
			nbi = -e.x0 - 1
		}
	}
}
