package sim

import (
	"fmt"
	"reflect"
	"testing"

	"chow88/internal/mach"
	"chow88/internal/mcode"
)

// runEngines executes p on the fast engine and the reference oracle under
// identical options and requires them bit-identical — Output, Stats,
// InstrCounts and error text. It returns the fast engine's result and
// error for further assertions.
func runEngines(t *testing.T, p *mcode.Program, opts Options) (*Result, error) {
	t.Helper()
	ref, rerr := RunReference(p, opts)
	o := opts
	o.Engine = "fast"
	res, err := Run(p, o)
	switch {
	case (err == nil) != (rerr == nil):
		t.Fatalf("fast vs reference disagree on error:\nfast: %v\nref: %v", err, rerr)
	case err != nil && err.Error() != rerr.Error():
		t.Fatalf("fast vs reference disagree on error text:\nfast: %v\nref: %v", err, rerr)
	}
	if !reflect.DeepEqual(res.Output, ref.Output) {
		t.Fatalf("fast output diverged:\nfast: %v\nref: %v", res.Output, ref.Output)
	}
	if res.Stats != ref.Stats {
		t.Fatalf("fast stats diverged from reference:\n%s", res.Stats.Diff(&ref.Stats))
	}
	if !reflect.DeepEqual(res.InstrCounts, ref.InstrCounts) {
		t.Fatalf("fast instruction counts diverged:\nfast: %v\nref: %v", res.InstrCounts, ref.InstrCounts)
	}
	return res, err
}

// requireFastPath asserts that p passes static verification, i.e. the fast
// engine actually executes the predecoded image rather than falling back
// to the reference interpreter.
func requireFastPath(t *testing.T, p *mcode.Program) {
	t.Helper()
	if img, _ := imageFor(p); img == nil {
		t.Fatalf("image rejected by verify; fast path not exercised:\n%v", mcode.Verify(p))
	}
}

func profOpts() Options { return Options{Profile: true} }

func TestEnginesFusedCompareBranch(t *testing.T) {
	// A counting loop whose back edge is a fused SLT+BNEZ, plus every
	// compare flavor feeding both branch senses, immediate and register.
	p := prog(
		mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: 0},
		mcode.Instr{Op: mcode.LI, Rd: mach.T3, Imm: 5},
		// loop:
		mcode.Instr{Op: mcode.ADD, Rd: mach.T0, Rs: mach.T0, HasImm: true, Imm: 1},
		mcode.Instr{Op: mcode.SLT, Rd: mach.T1, Rs: mach.T0, Rt: mach.T3},
		mcode.Instr{Op: mcode.BNEZ, Rs: mach.T1, Target: 4},
		mcode.Instr{Op: mcode.PRINT, Rs: mach.T0},
		// The comparison result survives the fused branch and is readable.
		mcode.Instr{Op: mcode.PRINT, Rs: mach.T1},
		mcode.Instr{Op: mcode.SEQ, Rd: mach.T1, Rs: mach.T0, HasImm: true, Imm: 5},
		mcode.Instr{Op: mcode.BEQZ, Rs: mach.T1, Target: 11},
		mcode.Instr{Op: mcode.PRINT, Rs: mach.T1},
		mcode.Instr{Op: mcode.SNE, Rd: mach.T2, Rs: mach.T0, HasImm: true, Imm: 9},
		mcode.Instr{Op: mcode.BNEZ, Rs: mach.T2, Target: 15},
		mcode.Instr{Op: mcode.PRINT, Rs: mach.T0},
		mcode.Instr{Op: mcode.SLE, Rd: mach.T2, Rs: mach.T3, Rt: mach.T0},
		mcode.Instr{Op: mcode.BEQZ, Rs: mach.T2, Target: 17},
		mcode.Instr{Op: mcode.PRINT, Rs: mach.T2},
		mcode.Instr{Op: mcode.JR, Rs: mach.RA},
	)
	requireFastPath(t, p)
	res, err := runEngines(t, p, profOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{5, 0, 1, 1}
	if !reflect.DeepEqual(res.Output, want) {
		t.Fatalf("output = %v, want %v", res.Output, want)
	}
}

func TestEnginesSaveRestoreRuns(t *testing.T) {
	// A prologue/epilogue shape: push three registers, clobber them,
	// restore. The stores and loads fuse into memory runs.
	p := prog(
		mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: 11},
		mcode.Instr{Op: mcode.LI, Rd: mach.T1, Imm: 22},
		mcode.Instr{Op: mcode.LI, Rd: mach.T2, Imm: 33},
		mcode.Instr{Op: mcode.ADD, Rd: mach.SP, Rs: mach.SP, HasImm: true, Imm: -3},
		mcode.Instr{Op: mcode.SW, Rs: mach.SP, Rt: mach.T0, Imm: 0, Class: mcode.ClassSaveRestore},
		mcode.Instr{Op: mcode.SW, Rs: mach.SP, Rt: mach.T1, Imm: 1, Class: mcode.ClassSaveRestore},
		mcode.Instr{Op: mcode.SW, Rs: mach.SP, Rt: mach.T2, Imm: 2, Class: mcode.ClassSaveRestore},
		mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: 0},
		mcode.Instr{Op: mcode.LI, Rd: mach.T1, Imm: 0},
		mcode.Instr{Op: mcode.LI, Rd: mach.T2, Imm: 0},
		mcode.Instr{Op: mcode.LW, Rd: mach.T0, Rs: mach.SP, Imm: 0, Class: mcode.ClassSaveRestore},
		mcode.Instr{Op: mcode.LW, Rd: mach.T1, Rs: mach.SP, Imm: 1, Class: mcode.ClassSaveRestore},
		mcode.Instr{Op: mcode.LW, Rd: mach.T2, Rs: mach.SP, Imm: 2, Class: mcode.ClassSaveRestore},
		mcode.Instr{Op: mcode.ADD, Rd: mach.SP, Rs: mach.SP, HasImm: true, Imm: 3},
		mcode.Instr{Op: mcode.PRINT, Rs: mach.T0},
		mcode.Instr{Op: mcode.PRINT, Rs: mach.T1},
		mcode.Instr{Op: mcode.PRINT, Rs: mach.T2},
		mcode.Instr{Op: mcode.JR, Rs: mach.RA},
	)
	requireFastPath(t, p)
	res, err := runEngines(t, p, profOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Output, []int64{11, 22, 33}) {
		t.Fatalf("output = %v", res.Output)
	}
	if res.Stats.SaveRestoreLS() != 6 {
		t.Fatalf("save/restore l+s = %d, want 6", res.Stats.SaveRestoreLS())
	}
}

func TestEnginesStoreRunFaultMidRun(t *testing.T) {
	// The second store of a fused run faults; the trap PC must be that
	// store's original index and the first store must have counted.
	p := prog(
		mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: 2047},
		mcode.Instr{Op: mcode.SW, Rs: mach.T0, Rt: mach.T1, Imm: 0, Class: mcode.ClassScalar},
		mcode.Instr{Op: mcode.SW, Rs: mach.T0, Rt: mach.T1, Imm: -4000, Class: mcode.ClassScalar},
		mcode.Instr{Op: mcode.SW, Rs: mach.T0, Rt: mach.T1, Imm: 1, Class: mcode.ClassScalar},
		mcode.Instr{Op: mcode.JR, Rs: mach.RA},
	)
	requireFastPath(t, p)
	res, err := runEngines(t, p, profOpts())
	if err == nil {
		t.Fatal("want bad-address trap")
	}
	trap, ok := err.(*Trap)
	if !ok || trap.PC != 4 {
		t.Fatalf("trap = %v, want pc 4", err)
	}
	if res.Stats.Stores != 1 {
		t.Fatalf("stores before fault = %d, want 1", res.Stats.Stores)
	}
}

func TestEnginesLoadRunFaultMidRun(t *testing.T) {
	p := prog(
		mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: 1},
		mcode.Instr{Op: mcode.LW, Rd: mach.T1, Rs: mach.T0, Imm: 0, Class: mcode.ClassScalar},
		mcode.Instr{Op: mcode.LW, Rd: mach.T2, Rs: mach.T0, Imm: -2, Class: mcode.ClassScalar},
		mcode.Instr{Op: mcode.JR, Rs: mach.RA},
	)
	requireFastPath(t, p)
	_, err := runEngines(t, p, profOpts())
	trap, ok := err.(*Trap)
	if !ok || trap.PC != 4 {
		t.Fatalf("trap = %v, want pc 4", err)
	}
}

func TestEnginesDivTraps(t *testing.T) {
	for name, ins := range map[string]mcode.Instr{
		"reg-zero": {Op: mcode.DIV, Rd: mach.T1, Rs: mach.T0, Rt: mach.T2},
		"imm-zero": {Op: mcode.REM, Rd: mach.T1, Rs: mach.T0, HasImm: true, Imm: 0},
	} {
		t.Run(name, func(t *testing.T) {
			p := prog(
				mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: 5},
				ins,
				mcode.Instr{Op: mcode.JR, Rs: mach.RA},
			)
			requireFastPath(t, p)
			res, err := runEngines(t, p, profOpts())
			if err == nil {
				t.Fatal("want div-by-zero trap")
			}
			// The divide's full latency is charged before the zero check.
			if res.Stats.MulDiv != 1 || res.Stats.Cycles < 35 {
				t.Fatalf("partial stats wrong: %+v", res.Stats)
			}
		})
	}
}

func TestEnginesIndirectCallTraps(t *testing.T) {
	mk := func(fv int64) *mcode.Program {
		code := []mcode.Instr{
			{Op: mcode.JAL, Target: 2},
			{Op: mcode.EXIT},
			{Op: mcode.LI, Rd: mach.T0, Imm: fv},
			{Op: mcode.JALR, Rs: mach.T0},
			{Op: mcode.JR, Rs: mach.RA},
		}
		return &mcode.Program{
			Code: code,
			Funcs: []*mcode.FuncInfo{
				{Name: "main", Entry: 2, End: 5},
				{Name: "lib", Entry: -1, Extern: true},
			},
			DataSize: 64,
		}
	}
	for name, fv := range map[string]int64{"invalid": 99, "extern": 2} {
		t.Run(name, func(t *testing.T) {
			p := mk(fv)
			requireFastPath(t, p)
			res, err := runEngines(t, p, profOpts())
			if err == nil {
				t.Fatal("want trap")
			}
			// JALR counts the call before validating the callee.
			if res.Stats.Calls != 2 {
				t.Fatalf("calls = %d, want 2", res.Stats.Calls)
			}
		})
	}
}

func TestEnginesJumpIntoBlockMiddle(t *testing.T) {
	// JR lands mid-block (its target is not a static leader): the fast
	// engine bridges with the precise interpreter until the next head.
	p := prog(
		mcode.Instr{Op: mcode.LI, Rd: mach.T1, Imm: 5},
		mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: 6},
		mcode.Instr{Op: mcode.JR, Rs: mach.T0},
		mcode.Instr{Op: mcode.LI, Rd: mach.T1, Imm: 99}, // skipped head
		mcode.Instr{Op: mcode.ADD, Rd: mach.T1, Rs: mach.T1, HasImm: true, Imm: 1},
		mcode.Instr{Op: mcode.PRINT, Rs: mach.T1},
		mcode.Instr{Op: mcode.JR, Rs: mach.RA},
	)
	requireFastPath(t, p)
	if img, _ := imageFor(p); img.blockIdx[6] >= 0 {
		t.Fatal("test premise broken: pc 6 became a block head")
	}
	res, err := runEngines(t, p, profOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Output, []int64{6}) {
		t.Fatalf("output = %v", res.Output)
	}
}

func TestEnginesBudgetExpiresMidBlock(t *testing.T) {
	// An infinite loop whose body is a 4-instruction straight block; odd
	// budgets expire inside the block, exercising the precise delegation.
	body := prog(
		mcode.Instr{Op: mcode.ADD, Rd: mach.T0, Rs: mach.T0, HasImm: true, Imm: 1},
		mcode.Instr{Op: mcode.ADD, Rd: mach.T1, Rs: mach.T0, Rt: mach.T0},
		mcode.Instr{Op: mcode.SUB, Rd: mach.T2, Rs: mach.T1, Rt: mach.T0},
		mcode.Instr{Op: mcode.J, Target: 2},
	)
	requireFastPath(t, body)
	for budget := int64(5); budget <= 13; budget++ {
		res, err := runEngines(t, body, Options{Profile: true, MaxInstrs: budget})
		if err == nil {
			t.Fatalf("budget %d: want limit error", budget)
		}
		if res.Stats.Instrs != budget+1 {
			t.Fatalf("budget %d: instrs = %d", budget, res.Stats.Instrs)
		}
	}
}

func TestEnginesStackOverflowMidBlock(t *testing.T) {
	// SP drops below the floor in the middle of a straight block; the trap
	// reports that instruction with its full statistics counted.
	p := prog(
		mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: 10},
		mcode.Instr{Op: mcode.MOVE, Rd: mach.SP, Rs: mach.T0},
		mcode.Instr{Op: mcode.PRINT, Rs: mach.T0},
		mcode.Instr{Op: mcode.JR, Rs: mach.RA},
	)
	requireFastPath(t, p)
	res, err := runEngines(t, p, profOpts())
	trap, ok := err.(*Trap)
	if !ok || trap.PC != 3 {
		t.Fatalf("trap = %v, want stack overflow at pc 3", err)
	}
	// The MOVE itself completed: 3 instructions total (stub JAL, LI, MOVE).
	if res.Stats.Instrs != 3 {
		t.Fatalf("instrs = %d", res.Stats.Instrs)
	}
}

func TestEnginesControlLeavesImage(t *testing.T) {
	p := prog(
		mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: 1 << 40},
		mcode.Instr{Op: mcode.JR, Rs: mach.T0},
	)
	requireFastPath(t, p)
	if _, err := runEngines(t, p, profOpts()); err == nil {
		t.Fatal("want control-left trap")
	}
}

func TestEnginesZeroRegisterWrites(t *testing.T) {
	// Writes to $zero — plain, in a fused compare, and inside a load run —
	// must all be discarded identically.
	p := prog(
		mcode.Instr{Op: mcode.LI, Rd: mach.Zero, Imm: 7},
		mcode.Instr{Op: mcode.ADD, Rd: mach.Zero, Rs: mach.Zero, HasImm: true, Imm: 9},
		mcode.Instr{Op: mcode.LW, Rd: mach.Zero, Rs: mach.Zero, Imm: 3, Class: mcode.ClassScalar},
		mcode.Instr{Op: mcode.LW, Rd: mach.T1, Rs: mach.Zero, Imm: 4, Class: mcode.ClassScalar},
		mcode.Instr{Op: mcode.SEQ, Rd: mach.Zero, Rs: mach.T1, HasImm: true, Imm: 0},
		mcode.Instr{Op: mcode.BNEZ, Rs: mach.Zero, Target: 9},
		mcode.Instr{Op: mcode.PRINT, Rs: mach.Zero},
		mcode.Instr{Op: mcode.JR, Rs: mach.RA},
	)
	requireFastPath(t, p)
	res, err := runEngines(t, p, profOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Output, []int64{0}) {
		t.Fatalf("output = %v", res.Output)
	}
}

func TestEnginesDegenerateStack(t *testing.T) {
	// MemWords below the data segment: the initial SP already violates the
	// floor. Run falls back to the reference engine wholesale; both
	// engines must agree on the resulting trap.
	p := prog(
		mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: 1},
		mcode.Instr{Op: mcode.JR, Rs: mach.RA},
	)
	if _, err := runEngines(t, p, Options{MemWords: 16, Profile: true}); err == nil {
		t.Fatal("want stack overflow")
	}
}

func TestEnginesBadImageFallsBack(t *testing.T) {
	// An image the verifier rejects (branch target out of range) still
	// runs — on the reference engine — and both entry points agree.
	p := prog(
		mcode.Instr{Op: mcode.BEQZ, Rs: mach.T0, Target: 999},
	)
	if img, _ := imageFor(p); img != nil {
		t.Fatal("verifier should reject out-of-range branch")
	}
	if _, err := runEngines(t, p, profOpts()); err == nil {
		t.Fatal("want trap from bad branch")
	}
}

func TestEnginesOverflowingRunBase(t *testing.T) {
	// A run base near the int64 extremes must not panic or diverge: the
	// fast path's bounds check refuses it and the per-entry walk traps
	// exactly like the reference.
	for _, base := range []int64{-1 << 63, (-1 << 63) + 1, 1<<63 - 1, 1 << 62} {
		p := prog(
			mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: base},
			mcode.Instr{Op: mcode.SW, Rs: mach.T0, Rt: mach.T1, Imm: 5, Class: mcode.ClassScalar},
			mcode.Instr{Op: mcode.SW, Rs: mach.T0, Rt: mach.T1, Imm: 9, Class: mcode.ClassScalar},
			mcode.Instr{Op: mcode.JR, Rs: mach.RA},
		)
		requireFastPath(t, p)
		if _, err := runEngines(t, p, profOpts()); err == nil {
			t.Fatalf("base %d: want trap", base)
		}
	}
}

func TestEnginesSignedDivisionEdge(t *testing.T) {
	p := prog(
		mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: -1 << 63},
		mcode.Instr{Op: mcode.LI, Rd: mach.T1, Imm: -1},
		mcode.Instr{Op: mcode.DIV, Rd: mach.T2, Rs: mach.T0, Rt: mach.T1},
		mcode.Instr{Op: mcode.PRINT, Rs: mach.T2},
		mcode.Instr{Op: mcode.REM, Rd: mach.T2, Rs: mach.T0, Rt: mach.T1},
		mcode.Instr{Op: mcode.PRINT, Rs: mach.T2},
		mcode.Instr{Op: mcode.JR, Rs: mach.RA},
	)
	requireFastPath(t, p)
	res, err := runEngines(t, p, profOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Output, []int64{-1 << 63, 0}) {
		t.Fatalf("output = %v", res.Output)
	}
}

// TestConcurrentRuns hammers the default engine from many goroutines: a
// shared program (image-cache hit path) interleaved with fresh program
// values (miss path). The fresh programs outnumber imageCacheCap, so the
// wholesale cache reset runs too. Run under the race detector by
// `make mem`, this is the test that holds the cache's locking and the
// shared images' immutability honest.
func TestConcurrentRuns(t *testing.T) {
	mk := func() *mcode.Program {
		return prog(
			mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: 3},
			// loop:
			mcode.Instr{Op: mcode.ADD, Rd: mach.T0, Rs: mach.T0, HasImm: true, Imm: -1},
			mcode.Instr{Op: mcode.BNEZ, Rs: mach.T0, Target: 3},
			mcode.Instr{Op: mcode.PRINT, Rs: mach.T0},
			mcode.Instr{Op: mcode.JR, Rs: mach.RA},
		)
	}
	shared := mk()
	want, werr := RunReference(shared, Options{Profile: true})
	if werr != nil {
		t.Fatal(werr)
	}
	const workers, iters = 8, 60
	if fresh := workers * ((iters + 2) / 3); fresh <= imageCacheCap {
		t.Fatalf("%d fresh programs cannot fill the %d-entry image cache", fresh, imageCacheCap)
	}
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < iters; i++ {
				p := shared
				if i%3 == 0 {
					p = mk() // a fresh program value forces a fresh predecode
				}
				res, err := Run(p, Options{Profile: true})
				if err != nil {
					errs <- fmt.Errorf("worker %d run %d: %v", w, i, err)
					return
				}
				if res.Engine != "fast" {
					errs <- fmt.Errorf("worker %d run %d ran on %q, want fast", w, i, res.Engine)
					return
				}
				if !reflect.DeepEqual(res.Output, want.Output) || res.Stats != want.Stats {
					errs <- fmt.Errorf("worker %d run %d diverged:\n%s", w, i, res.Stats.Diff(&want.Stats))
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
