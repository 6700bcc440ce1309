package sim

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"chow88/internal/mach"
	"chow88/internal/mcode"
	"chow88/internal/obs"
)

// prog builds a runnable image from raw instructions placed in one
// function after the startup stub.
func prog(ins ...mcode.Instr) *mcode.Program {
	code := []mcode.Instr{
		{Op: mcode.JAL, Target: 2},
		{Op: mcode.EXIT},
	}
	code = append(code, ins...)
	return &mcode.Program{
		Code:     code,
		Funcs:    []*mcode.FuncInfo{{Name: "main", Entry: 2, End: len(code)}},
		DataSize: 2048,
	}
}

func TestALUAndPrint(t *testing.T) {
	p := prog(
		mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: 6},
		mcode.Instr{Op: mcode.LI, Rd: mach.T1, Imm: 7},
		mcode.Instr{Op: mcode.MUL, Rd: mach.T2, Rs: mach.T0, Rt: mach.T1},
		mcode.Instr{Op: mcode.PRINT, Rs: mach.T2},
		mcode.Instr{Op: mcode.ADD, Rd: mach.T2, Rs: mach.T2, HasImm: true, Imm: -2},
		mcode.Instr{Op: mcode.PRINT, Rs: mach.T2},
		mcode.Instr{Op: mcode.JR, Rs: mach.RA},
	)
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 2 || res.Output[0] != 42 || res.Output[1] != 40 {
		t.Fatalf("output = %v", res.Output)
	}
	// Cycle model: MUL costs 12.
	if res.Stats.MulDiv != 1 {
		t.Errorf("muldiv = %d", res.Stats.MulDiv)
	}
	wantCycles := int64(1 /*jal*/ + 1 /*exit*/ + 1 + 1 + 12 + 1 + 1 + 1 + 1)
	if res.Stats.Cycles != wantCycles {
		t.Errorf("cycles = %d, want %d", res.Stats.Cycles, wantCycles)
	}
}

func TestMemoryAndClasses(t *testing.T) {
	p := prog(
		mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: 99},
		mcode.Instr{Op: mcode.SW, Rs: mach.Zero, Rt: mach.T0, Imm: 1024, Class: mcode.ClassScalar},
		mcode.Instr{Op: mcode.LW, Rd: mach.T1, Rs: mach.Zero, Imm: 1024, Class: mcode.ClassSaveRestore},
		mcode.Instr{Op: mcode.PRINT, Rs: mach.T1},
		mcode.Instr{Op: mcode.JR, Rs: mach.RA},
	)
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != 99 {
		t.Fatalf("output = %v", res.Output)
	}
	st := res.Stats
	if st.StoresByClass[mcode.ClassScalar] != 1 || st.LoadsByClass[mcode.ClassSaveRestore] != 1 {
		t.Errorf("class counts wrong: %+v", st)
	}
	if st.ScalarLS() != 2 {
		t.Errorf("scalarLS = %d", st.ScalarLS())
	}
}

func TestDivTrap(t *testing.T) {
	p := prog(
		mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: 5},
		mcode.Instr{Op: mcode.DIV, Rd: mach.T1, Rs: mach.T0, Rt: mach.T2},
		mcode.Instr{Op: mcode.JR, Rs: mach.RA},
	)
	_, err := Run(p, Options{})
	var trap *Trap
	if !errors.As(err, &trap) {
		t.Fatalf("err = %v, want trap", err)
	}
}

func TestBadAddressTrap(t *testing.T) {
	p := prog(
		mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: -5},
		mcode.Instr{Op: mcode.LW, Rd: mach.T1, Rs: mach.T0, Class: mcode.ClassScalar},
		mcode.Instr{Op: mcode.JR, Rs: mach.RA},
	)
	var trap *Trap
	if _, err := Run(p, Options{}); !errors.As(err, &trap) {
		t.Fatalf("want trap, got %v", err)
	}
}

func TestStackOverflowTrap(t *testing.T) {
	// Infinite recursion: each frame drops SP by 64 words.
	code := []mcode.Instr{
		{Op: mcode.JAL, Target: 2},
		{Op: mcode.EXIT},
		{Op: mcode.ADD, Rd: mach.SP, Rs: mach.SP, HasImm: true, Imm: -64},
		{Op: mcode.JAL, Target: 2},
	}
	p := &mcode.Program{
		Code:     code,
		Funcs:    []*mcode.FuncInfo{{Name: "main", Entry: 2, End: 4}},
		DataSize: 2048,
	}
	var trap *Trap
	if _, err := Run(p, Options{MemWords: 1 << 16}); !errors.As(err, &trap) {
		t.Fatalf("want stack-overflow trap, got %v", err)
	}
}

func TestInstrBudget(t *testing.T) {
	code := []mcode.Instr{
		{Op: mcode.JAL, Target: 2},
		{Op: mcode.EXIT},
		{Op: mcode.J, Target: 2},
	}
	p := &mcode.Program{
		Code:     code,
		Funcs:    []*mcode.FuncInfo{{Name: "main", Entry: 2, End: 3}},
		DataSize: 2048,
	}
	if _, err := Run(p, Options{MaxInstrs: 1000}); !errors.Is(err, ErrLimit) {
		t.Fatalf("want limit, got %v", err)
	}
}

func TestWallClockDeadline(t *testing.T) {
	code := []mcode.Instr{
		{Op: mcode.JAL, Target: 2},
		{Op: mcode.EXIT},
		{Op: mcode.J, Target: 2},
	}
	p := &mcode.Program{
		Code:     code,
		Funcs:    []*mcode.FuncInfo{{Name: "main", Entry: 2, End: 3}},
		DataSize: 2048,
	}
	for _, run := range []struct {
		name string
		fn   func(*mcode.Program, Options) (*Result, error)
	}{{"fast", pinEngine("fast")}, {"reference", RunReference}} {
		t.Run(run.name, func(t *testing.T) {
			res, err := run.fn(p, Options{Deadline: time.Millisecond})
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("want ErrDeadline, got %v", err)
			}
			// Expiry must surface the partial statistics, not discard them.
			if res == nil || res.Stats.Instrs == 0 {
				t.Fatal("deadline expiry returned no partial statistics")
			}
		})
	}
	// A generous deadline must not interfere with a clean run.
	p2 := prog(
		mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: 7},
		mcode.Instr{Op: mcode.PRINT, Rs: mach.T0},
		mcode.Instr{Op: mcode.JR, Rs: mach.RA},
	)
	res, err := Run(p2, Options{Deadline: time.Minute})
	if err != nil || len(res.Output) != 1 || res.Output[0] != 7 {
		t.Fatalf("clean run under deadline: out=%v err=%v", res.Output, err)
	}
}

func TestBadIndirectTrap(t *testing.T) {
	p := prog(
		mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: 0},
		mcode.Instr{Op: mcode.JALR, Rs: mach.T0},
		mcode.Instr{Op: mcode.JR, Rs: mach.RA},
	)
	var trap *Trap
	if _, err := Run(p, Options{}); !errors.As(err, &trap) {
		t.Fatalf("want trap, got %v", err)
	}
}

func TestBranchesAndCounters(t *testing.T) {
	// Loop 3 times: counts branches and taken-ness.
	p := prog(
		mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: 3},
		// loop:
		mcode.Instr{Op: mcode.ADD, Rd: mach.T0, Rs: mach.T0, HasImm: true, Imm: -1},
		mcode.Instr{Op: mcode.BNEZ, Rs: mach.T0, Target: 3},
		mcode.Instr{Op: mcode.PRINT, Rs: mach.T0},
		mcode.Instr{Op: mcode.JR, Rs: mach.RA},
	)
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != 0 {
		t.Fatalf("output = %v", res.Output)
	}
	if res.Stats.Branches != 3 || res.Stats.Taken != 2 {
		t.Errorf("branches=%d taken=%d", res.Stats.Branches, res.Stats.Taken)
	}
	if res.Stats.Calls != 1 {
		t.Errorf("calls = %d", res.Stats.Calls)
	}
}

func TestZeroRegisterStaysZero(t *testing.T) {
	p := prog(
		mcode.Instr{Op: mcode.LI, Rd: mach.Zero, Imm: 77},
		mcode.Instr{Op: mcode.PRINT, Rs: mach.Zero},
		mcode.Instr{Op: mcode.JR, Rs: mach.RA},
	)
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != 0 {
		t.Errorf("$zero = %d", res.Output[0])
	}
}

func TestSignedDivisionSemantics(t *testing.T) {
	mk := func(a, b int64, op mcode.OpCode) int64 {
		p := prog(
			mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: a},
			mcode.Instr{Op: mcode.LI, Rd: mach.T1, Imm: b},
			mcode.Instr{Op: op, Rd: mach.T2, Rs: mach.T0, Rt: mach.T1},
			mcode.Instr{Op: mcode.PRINT, Rs: mach.T2},
			mcode.Instr{Op: mcode.JR, Rs: mach.RA},
		)
		res, err := Run(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Output[0]
	}
	if got := mk(-7, 2, mcode.DIV); got != -3 {
		t.Errorf("-7/2 = %d", got)
	}
	if got := mk(-7, 2, mcode.REM); got != -1 {
		t.Errorf("-7%%2 = %d", got)
	}
	if got := mk(-1<<63, -1, mcode.DIV); got != -1<<63 {
		t.Errorf("overflow div = %d", got)
	}
	if got := mk(-1<<63, -1, mcode.REM); got != 0 {
		t.Errorf("overflow rem = %d", got)
	}
}

// TestDeadlinePartialStatsExact pins the boundary semantics of deadline
// expiry: the partial Stats must describe exactly the instructions that ran
// to completion, with no phantom fetched-but-unexecuted instruction counted.
// Ground truth comes from the instruction budget, whose documented semantics
// execute exactly MaxInstrs instructions and then count the over-budget
// fetch before failing: a deadline run reporting N executed instructions
// must match a MaxInstrs=N reference run in Output, InstrCounts and every
// Stats counter except Instrs itself (where the budget run reads N+1).
func TestDeadlinePartialStatsExact(t *testing.T) {
	// An infinite loop with varied cost per instruction — ALU, mul, store,
	// load, branch — so an off-by-one instruction shows up in several
	// counters at once, not just Instrs.
	p := prog(
		mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: 0},
		// loop:
		mcode.Instr{Op: mcode.ADD, Rd: mach.T0, Rs: mach.T0, HasImm: true, Imm: 1},
		mcode.Instr{Op: mcode.MUL, Rd: mach.T1, Rs: mach.T0, HasImm: true, Imm: 3},
		mcode.Instr{Op: mcode.SW, Rs: mach.T2, Rt: mach.T1, Imm: 1500, Class: mcode.ClassScalar},
		mcode.Instr{Op: mcode.LW, Rd: mach.T1, Rs: mach.T2, Imm: 1500, Class: mcode.ClassScalar},
		mcode.Instr{Op: mcode.BNEZ, Rs: mach.T0, Target: 3},
		mcode.Instr{Op: mcode.JR, Rs: mach.RA},
	)
	engines := []struct {
		name string
		run  func(*mcode.Program, Options) (*Result, error)
	}{
		{"fast", pinEngine("fast")},
		{"reference", RunReference},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			// An already-expired deadline fires at the first stride poll,
			// leaving a partial prefix of the run behind.
			part, err := e.run(p, Options{Deadline: time.Nanosecond, Profile: true})
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("want ErrDeadline, got %v", err)
			}
			n := part.Stats.Instrs
			if n <= 0 {
				t.Fatalf("deadline run reports %d executed instructions", n)
			}
			ref, err := RunReference(p, Options{MaxInstrs: n, Profile: true})
			if !errors.Is(err, ErrLimit) {
				t.Fatalf("want ErrLimit from budget run, got %v", err)
			}
			want := ref.Stats
			want.Instrs-- // the budget run counts its over-budget fetch
			if part.Stats != want {
				t.Errorf("partial stats diverge from an exact %d-instruction run:\n got %+v\nwant %+v",
					n, part.Stats, want)
			}
			if len(part.Output) != len(ref.Output) {
				t.Errorf("output length: got %d want %d", len(part.Output), len(ref.Output))
			}
			for i := range part.Output {
				if part.Output[i] != ref.Output[i] {
					t.Errorf("output[%d]: got %d want %d", i, part.Output[i], ref.Output[i])
				}
			}
			// InstrCounts must differ only by the budget run's single
			// phantom fetch at the pc it faulted on.
			if len(part.InstrCounts) != len(ref.InstrCounts) {
				t.Fatalf("instr count lengths: got %d want %d", len(part.InstrCounts), len(ref.InstrCounts))
			}
			var extra int64
			for pc := range ref.InstrCounts {
				d := ref.InstrCounts[pc] - part.InstrCounts[pc]
				if d < 0 || d > 1 {
					t.Fatalf("instr counts at pc %d differ by %d", pc, d)
				}
				extra += d
			}
			if extra != 1 {
				t.Errorf("budget run should count exactly one phantom fetch, found %d", extra)
			}
		})
	}
}

// pinEngine adapts Run to the (program, options) signature of the engine
// tables above, with the named engine pinned via Options.Engine.
func pinEngine(engine string) func(*mcode.Program, Options) (*Result, error) {
	return func(p *mcode.Program, o Options) (*Result, error) {
		o.Engine = engine
		return Run(p, o)
	}
}

// TestDefaultEngine pins the default: an empty Options.Engine runs the fast
// engine with no fallback, and the removed native tier is an unknown name.
func TestDefaultEngine(t *testing.T) {
	p := prog(
		mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: 7},
		mcode.Instr{Op: mcode.PRINT, Rs: mach.T0},
		mcode.Instr{Op: mcode.JR, Rs: mach.RA},
	)
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != "fast" || res.FallbackReason != "" {
		t.Fatalf("default run: engine %q, fallback %q; want fast with no fallback", res.Engine, res.FallbackReason)
	}
	err = ValidateEngine("native")
	if !errors.Is(err, ErrBadEngine) {
		t.Fatalf("ValidateEngine(native) = %v, want ErrBadEngine", err)
	}
	if msg := err.Error(); !strings.HasSuffix(msg, "(valid: fast, reference)") {
		t.Fatalf("ValidateEngine(native) message %q should list only fast, reference", msg)
	}
	if _, err := Run(p, Options{Engine: "native"}); !errors.Is(err, ErrBadEngine) {
		t.Fatalf("Run on engine native = %v, want ErrBadEngine", err)
	}
}

// TestSnapAllocFreeAfterRun holds a session snapshot to zero allocations
// after a fast run has reported its superinstruction histogram: the
// histogram rides on the run's report, not in the session, so every report
// window (chowd opens one per compile request) copies a fixed-size value.
func TestSnapAllocFreeAfterRun(t *testing.T) {
	p := prog(
		mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: 7},
		mcode.Instr{Op: mcode.PRINT, Rs: mach.T0},
		mcode.Instr{Op: mcode.JR, Rs: mach.RA},
	)
	s := obs.Begin(obs.Options{})
	defer obs.EndIf(s)
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != "fast" || len(res.Report.SuperHits) == 0 {
		t.Fatalf("engine %q with %d superinstruction kinds; want a fast run that reports its histogram",
			res.Engine, len(res.Report.SuperHits))
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.Snap() }); n != 0 {
		t.Errorf("Snap allocates %.1f objects after a run, want 0", n)
	}
}

// TestBadMemWords requires an unmappable Options.MemWords to fail with
// ErrBadMemWords on every engine — never a makeslice panic. 1<<50 words
// passes the range check but is larger than any address space the system
// will map, so it exercises the refused-mapping path.
func TestBadMemWords(t *testing.T) {
	p := prog(mcode.Instr{Op: mcode.JR, Rs: mach.RA})
	engines := []struct {
		name string
		run  func(*mcode.Program, Options) (*Result, error)
	}{
		{"default", pinEngine("")},
		{"fast", pinEngine("fast")},
		{"reference", RunReference},
	}
	for _, words := range []int{-1, 1 << 50, 1 << 61, math.MaxInt} {
		for _, e := range engines {
			res, err := e.run(p, Options{MemWords: words})
			if !errors.Is(err, ErrBadMemWords) || res != nil {
				t.Errorf("MemWords %d on %s: result %v, error %v; want ErrBadMemWords", words, e.name, res, err)
			}
		}
	}
}
