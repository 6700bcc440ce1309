// Package sim executes mcode programs on a register-accurate virtual
// machine modelled on the MIPS R2000: 32 general registers, a flat
// word-addressed memory holding the data segment and a downward-growing
// stack, and the R2000's integer cycle costs (single-cycle ALU, loads and
// stores; 12-cycle multiply; 35-cycle divide). It fills a pixie.Stats with
// the trace counters as it runs. Each run's memory is a fresh demand-zero
// mapping (mem_unix.go), so a run starts from all-zero memory and only the
// pages it touches become resident.
//
// Two engines share the machine model. RunReference is the original
// per-instruction interpreter and the oracle the other is tested against.
// The fast engine — Run's default — executes a predecoded image: the
// program is translated once into a dense internal ISA, basic blocks are
// discovered, and each block's statistics are accumulated in one step per
// block entry (see predecode.go / fastvm.go). Both are bit-identical in
// Output, Stats and InstrCounts, which the differential tests enforce;
// Options.Engine pins a specific engine.
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"chow88/internal/mach"
	"chow88/internal/mcode"
	"chow88/internal/obs"
	"chow88/internal/pixie"
)

// Options configure a run.
type Options struct {
	// MemWords is the memory size in words; 0 selects a default sized to
	// the program's data segment plus a 1 MiW stack. It sets the address
	// space, not the footprint: the memory is mapped on demand, so a run
	// holds only the pages it touches. Negative values and values whose
	// byte size overflows an int make the run fail with ErrBadMemWords.
	MemWords int
	// MaxInstrs bounds execution; 0 means the default (2e9).
	MaxInstrs int64
	// Deadline bounds wall-clock execution; 0 means no deadline. Expiry
	// returns ErrDeadline with the statistics accumulated so far (the
	// Result is partial but internally consistent). The clock is polled
	// every deadlineStride instructions, so overshoot is bounded by that
	// stride, and runs without a deadline pay nothing per instruction.
	Deadline time.Duration
	// Profile records per-instruction execution counts in the result,
	// enabling profile feedback to the register allocator.
	Profile bool
	// Engine pins an engine: "fast" (predecoded block dispatch, the
	// default) or "reference" (the per-instruction oracle). Empty selects
	// the default. The fast engine still degrades to the reference
	// interpreter when the image fails static verification or the initial
	// stack pointer is degenerate, with the reason on
	// Result.FallbackReason. Unknown names make Run fail with ErrBadEngine.
	Engine string
}

// ErrBadEngine reports an unknown Options.Engine name.
var ErrBadEngine = errors.New("unknown engine")

// ValidateEngine checks an Options.Engine value; the empty string (the
// default engine) is valid.
func ValidateEngine(name string) error {
	switch name {
	case "", "fast", "reference":
		return nil
	}
	return fmt.Errorf("%w %q (valid: fast, reference)", ErrBadEngine, name)
}

// ErrBadMemWords reports an Options.MemWords that no run can map: negative,
// or so large that its size in bytes overflows an int.
var ErrBadMemWords = errors.New("memory size out of range")

// validateMemWords checks Options.MemWords before any memory is mapped.
func validateMemWords(n int) error {
	if n < 0 || n > math.MaxInt/8 {
		return fmt.Errorf("%w: %d words", ErrBadMemWords, n)
	}
	return nil
}

const defaultMaxInstrs = int64(2_000_000_000)

// deadlineStride is the instruction interval between wall-clock polls when
// Options.Deadline is set (~1M instructions, well under a millisecond of
// simulated work per poll).
const deadlineStride = int64(1) << 20

// Trap is a machine fault.
type Trap struct {
	Msg string
	PC  int
}

func (t *Trap) Error() string { return fmt.Sprintf("pc %d: machine trap: %s", t.PC, t.Msg) }

// ErrLimit reports instruction-budget exhaustion.
var ErrLimit = errors.New("instruction budget exceeded")

// ErrDeadline reports wall-clock deadline expiry (Options.Deadline).
var ErrDeadline = errors.New("wall-clock deadline exceeded")

// Result carries the run outcome.
type Result struct {
	Output []int64
	Stats  pixie.Stats
	// InstrCounts holds per-code-index execution counts when Options.Profile
	// was set (indexed like Program.Code).
	InstrCounts []int64
	// Engine names the engine that executed the run: "fast" (the
	// predecoded block-batched engine) or "reference" (the per-instruction
	// interpreter).
	Engine string
	// FallbackReason explains a run that degraded from the fast engine to
	// the reference interpreter: the static verification error or the
	// degenerate initial stack pointer. Empty when the requested engine ran
	// or when the caller asked for the reference engine outright.
	FallbackReason string
	// Report carries the run's metrics window when an obs session is
	// active; nil otherwise.
	Report *obs.RunReport
}

// machine is the mutable state of one run, shared by the predecoded engine
// and the per-instruction reference interpreter (which doubles as the fast
// engine's precise mode around traps and non-block entry points).
type machine struct {
	p   *mcode.Program
	mem []int64
	// regs holds the 32 architectural registers plus a scratch slot
	// (zeroSink): the predecoded engine renames writes to $zero into the
	// scratch, so the hardwired zero needs no per-instruction re-clearing.
	// The array is sized 256 so that the fast engine's uint8 register
	// fields can never index out of range — the compiler drops every
	// bounds check in the hot loop. The reference interpreter uses slots
	// 0..31 only and re-clears $zero as before.
	regs       [256]int64
	memWords   int64
	stackFloor int64
	maxInstrs  int64
	// deadline is the wall-clock cutoff (zero time when Options.Deadline is
	// unset); deadlineAt is the executed-instruction count at which the
	// clock is next polled, MaxInt64 when no deadline is armed so the hot
	// loops pay one always-false compare.
	deadline   time.Time
	deadlineAt int64
	// mapped marks mem as a mapWords mapping that release must unmap;
	// false for the heap fallback.
	mapped bool
	res    *Result
	// superHits and blockEntries accumulate the fast engine's per-
	// superinstruction dispatch histogram (indexed by xop) and its total
	// block entries. flush fills them from the block entry counters —
	// never from the dispatch loop — and only when superHits is non-nil,
	// which Run arranges exactly when an obs session is active.
	superHits    []int64
	blockEntries int64
}

// mapMem allocates each run's memory; tests swap it to drive the heap
// fallback.
var mapMem = mapWords

// release unmaps the machine's memory. The Result never aliases it, so
// this is safe as soon as the run has ended.
func (m *machine) release() {
	if m.mapped {
		unmapWords(m.mem)
	}
	m.mem = nil
}

func newMachine(p *mcode.Program, opts Options) *machine {
	memWords := opts.MemWords
	if memWords == 0 {
		memWords = p.DataSize + 1<<20
	}
	maxInstrs := opts.MaxInstrs
	if maxInstrs == 0 {
		maxInstrs = defaultMaxInstrs
	}
	m := &machine{
		p:          p,
		mem:        mapMem(memWords),
		memWords:   int64(memWords),
		stackFloor: int64(p.DataSize),
		maxInstrs:  maxInstrs,
		deadlineAt: math.MaxInt64,
		res:        &Result{},
	}
	m.mapped = m.mem != nil
	if !m.mapped {
		obs.Current().Add(obs.CSimMemHeapFallback, 1)
		m.mem = make([]int64, memWords)
	}
	if opts.Deadline > 0 {
		m.deadline = time.Now().Add(opts.Deadline)
		m.deadlineAt = deadlineStride
	}
	m.regs[mach.SP] = int64(memWords)
	if opts.Profile {
		m.res.InstrCounts = make([]int64, len(p.Code))
	}
	return m
}

// Run executes the program from its startup stub on the selected engine
// (Options.Engine; the predecoded fast engine by default). Degradation is
// always toward exactness, never a guess: images that fail static
// verification — and degenerate configurations whose initial stack pointer
// already sits below the data segment — take the reference interpreter
// wholesale, with the reason on Result.FallbackReason.
func Run(p *mcode.Program, opts Options) (*Result, error) {
	if err := ValidateEngine(opts.Engine); err != nil {
		return nil, err
	}
	if err := validateMemWords(opts.MemWords); err != nil {
		return nil, err
	}
	s := obs.Current()
	snap := s.Snap()
	sp := s.Span(obs.PhaseRun, "sim.Run")
	m := newMachine(p, opts)
	defer m.release()
	var err error
	if opts.Engine == "reference" {
		m.res.Engine = "reference"
		s.Add(obs.CSimRunsRef, 1)
		_, _, err = m.interpret(0, nil)
	} else {
		img, reason := imageFor(p)
		switch {
		case img == nil:
			m.res.Engine, m.res.FallbackReason = "reference", reason
			s.Add(obs.CSimRunsRef, 1)
			s.Add(obs.CSimVerifyFallback, 1)
			_, _, err = m.interpret(0, nil)
		case m.regs[mach.SP] < m.stackFloor:
			m.res.Engine = "reference"
			m.res.FallbackReason = "initial stack pointer below the data segment"
			s.Add(obs.CSimRunsRef, 1)
			s.Add(obs.CSimStackFallback, 1)
			_, _, err = m.interpret(0, nil)
		default: // "" or "fast"
			m.res.Engine = "fast"
			s.Add(obs.CSimRunsFast, 1)
			if s != nil {
				m.superHits = make([]int64, numXops)
			}
			err = m.runFast(img)
		}
	}
	sp.End()
	m.finishObs(s, snap)
	return m.res, err
}

// RunReference executes the program on the per-instruction reference
// interpreter. It is the oracle the predecoded engine is differentially
// tested against; Output, Stats and InstrCounts match Run bit for bit.
func RunReference(p *mcode.Program, opts Options) (*Result, error) {
	if err := validateMemWords(opts.MemWords); err != nil {
		return nil, err
	}
	s := obs.Current()
	snap := s.Snap()
	sp := s.Span(obs.PhaseRun, "sim.RunReference")
	m := newMachine(p, opts)
	defer m.release()
	m.res.Engine = "reference"
	s.Add(obs.CSimRunsRef, 1)
	_, _, err := m.interpret(0, nil)
	sp.End()
	m.finishObs(s, snap)
	return m.res, err
}

// finishObs publishes the run's accumulated engine metrics to the obs
// session and attaches a RunReport covering the window since snap. No-op
// when no session is active.
func (m *machine) finishObs(s *obs.Session, snap obs.Snapshot) {
	if s == nil {
		return
	}
	if m.superHits != nil {
		s.Add(obs.CSimBlockEntries, m.blockEntries)
		for op, n := range m.superHits {
			if n != 0 {
				s.AddLabeled(obs.SuperHitPrefix+xopName(xop(op)), n)
			}
		}
	}
	m.res.Report = &obs.RunReport{
		Report:         *s.ReportSince(snap),
		Engine:         m.res.Engine,
		FallbackReason: m.res.FallbackReason,
		SuperHits:      s.LabeledSince(snap, obs.SuperHitPrefix),
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// rt returns the right operand of an ALU instruction: the immediate or the
// Rt register. (Hoisted out of the interpreter loop — it used to be a
// closure rebuilt every instruction.)
func (m *machine) rt(in *mcode.Instr) int64 {
	if in.HasImm {
		return in.Imm
	}
	return m.regs[in.Rt]
}

func (m *machine) trap(pc int, format string, args ...any) error {
	return &Trap{Msg: fmt.Sprintf(format, args...), PC: pc}
}

// interpret is the reference interpreter loop, executing from pc until the
// program exits or faults. When stopAt is non-nil, control arriving at an
// index with stopAt[pc] >= 0 suspends the loop instead, returning
// (pc, false, nil) so the predecoded engine can resume block execution;
// callers guarantee the entry pc itself is not a stop point. On
// termination it returns (0, true, err) with err nil for a clean exit.
func (m *machine) interpret(pc int, stopAt []int32) (int, bool, error) {
	if stopAt != nil {
		obs.Current().Add(obs.CSimInterpBridges, 1)
	}
	p := m.p
	st := &m.res.Stats
	counts := m.res.InstrCounts
	for {
		if pc < 0 || pc >= len(p.Code) {
			return 0, true, m.trap(pc, "control left the code image")
		}
		if stopAt != nil && stopAt[pc] >= 0 {
			return pc, false, nil
		}
		in := &p.Code[pc]
		// Poll the wall clock before accounting for the instruction about to
		// execute: deadline expiry must leave Stats describing exactly the
		// instructions that ran to completion, with no phantom fetch counted.
		// (The budget check below intentionally keeps its historical
		// semantics: ErrLimit fires after counting the over-budget fetch.)
		if st.Instrs >= m.deadlineAt {
			m.deadlineAt += deadlineStride
			if time.Now().After(m.deadline) {
				return 0, true, fmt.Errorf("pc %d: %w", pc, ErrDeadline)
			}
		}
		if counts != nil {
			counts[pc]++
		}
		st.Instrs++
		if st.Instrs > m.maxInstrs {
			return 0, true, fmt.Errorf("pc %d: %w", pc, ErrLimit)
		}
		st.Cycles++
		if in.Linkage {
			st.LinkageCycles++
		}
		nextPC := pc + 1

		switch in.Op {
		case mcode.LI:
			m.regs[in.Rd] = in.Imm
		case mcode.MOVE:
			m.regs[in.Rd] = m.regs[in.Rs]
		case mcode.ADD:
			m.regs[in.Rd] = m.regs[in.Rs] + m.rt(in)
		case mcode.SUB:
			m.regs[in.Rd] = m.regs[in.Rs] - m.rt(in)
		case mcode.MUL:
			st.Cycles += 11 // 12 total
			st.MulDiv++
			m.regs[in.Rd] = m.regs[in.Rs] * m.rt(in)
		case mcode.DIV, mcode.REM:
			st.Cycles += 34 // 35 total
			st.MulDiv++
			d := m.rt(in)
			if d == 0 {
				return 0, true, m.trap(pc, "division by zero")
			}
			n := m.regs[in.Rs]
			if n == -1<<63 && d == -1 {
				if in.Op == mcode.DIV {
					m.regs[in.Rd] = n
				} else {
					m.regs[in.Rd] = 0
				}
			} else if in.Op == mcode.DIV {
				m.regs[in.Rd] = n / d
			} else {
				m.regs[in.Rd] = n % d
			}
		case mcode.SLT:
			m.regs[in.Rd] = b2i(m.regs[in.Rs] < m.rt(in))
		case mcode.SLE:
			m.regs[in.Rd] = b2i(m.regs[in.Rs] <= m.rt(in))
		case mcode.SEQ:
			m.regs[in.Rd] = b2i(m.regs[in.Rs] == m.rt(in))
		case mcode.SNE:
			m.regs[in.Rd] = b2i(m.regs[in.Rs] != m.rt(in))
		case mcode.LW:
			addr := m.regs[in.Rs] + in.Imm
			if addr < 0 || addr >= m.memWords {
				return 0, true, m.trap(pc, "load from bad address %d", addr)
			}
			m.regs[in.Rd] = m.mem[addr]
			st.Loads++
			st.LoadsByClass[in.Class]++
		case mcode.SW:
			addr := m.regs[in.Rs] + in.Imm
			if addr < 0 || addr >= m.memWords {
				return 0, true, m.trap(pc, "store to bad address %d", addr)
			}
			m.mem[addr] = m.regs[in.Rt]
			st.Stores++
			st.StoresByClass[in.Class]++
		case mcode.BEQZ:
			st.Branches++
			if m.regs[in.Rs] == 0 {
				st.Taken++
				nextPC = in.Target
			}
		case mcode.BNEZ:
			st.Branches++
			if m.regs[in.Rs] != 0 {
				st.Taken++
				nextPC = in.Target
			}
		case mcode.J:
			nextPC = in.Target
		case mcode.JAL:
			st.Calls++
			m.regs[mach.RA] = int64(pc + 1)
			nextPC = in.Target
		case mcode.JALR:
			st.Calls++
			fv := m.regs[in.Rs]
			if fv < 1 || fv > int64(len(p.Funcs)) {
				return 0, true, m.trap(pc, "indirect call through invalid function value %d", fv)
			}
			fi := p.Funcs[fv-1]
			if fi.Entry < 0 {
				return 0, true, m.trap(pc, "indirect call to extern function %s", fi.Name)
			}
			m.regs[mach.RA] = int64(pc + 1)
			nextPC = fi.Entry
		case mcode.JR:
			nextPC = int(m.regs[in.Rs])
		case mcode.PRINT:
			m.res.Output = append(m.res.Output, m.regs[in.Rs])
		case mcode.EXIT:
			return 0, true, nil
		default:
			return 0, true, m.trap(pc, "illegal instruction %d", int(in.Op))
		}
		m.regs[mach.Zero] = 0
		if m.regs[mach.SP] < m.stackFloor {
			return 0, true, m.trap(pc, "stack overflow (sp %d below floor %d)", m.regs[mach.SP], m.stackFloor)
		}
		pc = nextPC
	}
}
