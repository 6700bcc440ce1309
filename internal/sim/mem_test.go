package sim

import (
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"chow88/internal/benchprog"
	"chow88/internal/codegen"
	"chow88/internal/core"
	"chow88/internal/front"
	"chow88/internal/mach"
	"chow88/internal/mcode"
	"chow88/internal/obs"
)

// TestRunHeapAllocBounded holds a warm run's Go-heap allocation far below
// the size of its address space: the 1 MiW stack is a demand-zero mapping,
// not a heap buffer, so even a run that follows two collections (which
// would drain any pool of buffers) allocates only its bookkeeping.
func TestRunHeapAllocBounded(t *testing.T) {
	mod, err := front.Build(benchprog.Lookup("nim").Source, true)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := codegen.Generate(core.PlanModule(mod, core.ModeC()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(p, Options{}); err != nil { // warm the predecode memo
		t.Fatal(err)
	}
	const limit = 64 << 10
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Run(p, Options{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d >= limit {
			t.Fatalf("run %d allocated %d heap bytes, want < %d", i, d, limit)
		}
	}
}

// TestRunDoesNotRetainPrograms holds the predecode memo to the most recent
// program: once a second program has run, the first becomes garbage, while
// rerunning the second still reuses its image.
func TestRunDoesNotRetainPrograms(t *testing.T) {
	mk := func() *mcode.Program {
		return prog(
			mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: 5},
			mcode.Instr{Op: mcode.PRINT, Rs: mach.T0},
			mcode.Instr{Op: mcode.JR, Rs: mach.RA},
		)
	}
	var collected atomic.Bool
	func() {
		first := mk()
		runtime.SetFinalizer(first, func(*mcode.Program) { collected.Store(true) })
		if _, err := Run(first, Options{}); err != nil {
			t.Fatal(err)
		}
	}()
	second := mk()
	if _, err := Run(second, Options{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100 && !collected.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !collected.Load() {
		t.Fatal("a program that ran before the most recent one is still reachable")
	}
	obs.Begin(obs.Options{})
	defer obs.End()
	res, err := Run(second, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hits, predecodes := res.Report.Counter("sim.image_cache_hits"), res.Report.Counter("sim.predecodes"); hits != 1 || predecodes != 0 {
		t.Fatalf("rerun of the most recent program: %d memo hits, %d predecodes; want 1, 0", hits, predecodes)
	}
}

// Probe addresses for TestRunIsolation, in a prog image (DataSize 2048,
// default memory): the first and last globals, the top of the stack, and a
// word deep in the stack region, pages away from both.
const (
	isoTop  = 2048 + 1<<20
	isoDeep = isoTop - 100_000
)

var isoAddrs = []int64{0, 1, 2, 3, 2047, isoDeep, isoTop - 3, isoTop - 2, isoTop - 1}

// isoPolluter stores 7 to every probe word but 3 — through store runs off
// a global base and off $sp, and a plain store deep in the stack — reads
// those words back, then ends as tail says: "clean" returns, "trap" faults
// partway through a store run, "spin" loops until the budget or the
// deadline stops it.
func isoPolluter(tail string) *mcode.Program {
	sw := func(base mach.Reg, off int64) mcode.Instr {
		return mcode.Instr{Op: mcode.SW, Rs: base, Rt: mach.T1, Imm: off, Class: mcode.ClassScalar}
	}
	ins := []mcode.Instr{
		{Op: mcode.LI, Rd: mach.T1, Imm: 7},
		{Op: mcode.LI, Rd: mach.T0, Imm: 0},
		sw(mach.T0, 0), sw(mach.T0, 1), sw(mach.T0, 2), sw(mach.T0, 2047),
		{Op: mcode.ADD, Rd: mach.SP, Rs: mach.SP, HasImm: true, Imm: -3},
		sw(mach.SP, 0), sw(mach.SP, 1), sw(mach.SP, 2),
		{Op: mcode.ADD, Rd: mach.SP, Rs: mach.SP, HasImm: true, Imm: 3},
		{Op: mcode.LI, Rd: mach.T2, Imm: isoDeep},
		sw(mach.T2, 0),
	}
	for _, a := range isoAddrs {
		if a == 3 { // written only by the trapping run
			continue
		}
		ins = append(ins,
			mcode.Instr{Op: mcode.LW, Rd: mach.T3, Rs: mach.T0, Imm: a, Class: mcode.ClassScalar},
			mcode.Instr{Op: mcode.PRINT, Rs: mach.T3})
	}
	switch tail {
	case "clean":
		ins = append(ins, mcode.Instr{Op: mcode.JR, Rs: mach.RA})
	case "trap":
		// The run's first store lands on probe word 3; its second faults.
		ins = append(ins, sw(mach.T0, 3), sw(mach.T0, -1), mcode.Instr{Op: mcode.JR, Rs: mach.RA})
	case "spin":
		ins = append(ins, mcode.Instr{Op: mcode.J, Target: 2 + len(ins)})
	}
	return prog(ins...)
}

// isoProbe only loads the probe words and prints them.
func isoProbe() *mcode.Program {
	var ins []mcode.Instr
	for _, a := range isoAddrs {
		ins = append(ins,
			mcode.Instr{Op: mcode.LI, Rd: mach.T0, Imm: a},
			mcode.Instr{Op: mcode.LW, Rd: mach.T1, Rs: mach.T0, Imm: 0, Class: mcode.ClassScalar},
			mcode.Instr{Op: mcode.PRINT, Rs: mach.T1})
	}
	return prog(append(ins, mcode.Instr{Op: mcode.JR, Rs: mach.RA})...)
}

// TestRunIsolation holds every run to a zero address space, whatever the
// run before it left behind: after a polluter on each engine stores to
// globals and stack words and then returns, traps mid store run, exhausts
// its budget or overruns its deadline, a probe that only loads those words
// reads zeros on every engine. Runs on a heap slice, the allocator where
// unix mmap is unavailable, are held to the same.
func TestRunIsolation(t *testing.T) {
	polluters := []struct {
		name string
		p    *mcode.Program
		opts Options
		want func(error) bool
	}{
		{"stored", isoPolluter("clean"), Options{}, func(err error) bool { return err == nil }},
		{"trapped-mid-run", isoPolluter("trap"), Options{}, func(err error) bool {
			var trap *Trap
			return errors.As(err, &trap)
		}},
		{"limit", isoPolluter("spin"), Options{MaxInstrs: 1000}, func(err error) bool { return errors.Is(err, ErrLimit) }},
		{"deadline", isoPolluter("spin"), Options{Deadline: time.Nanosecond}, func(err error) bool { return errors.Is(err, ErrDeadline) }},
	}
	trapImg, _ := imageFor(polluters[1].p)
	if trapImg == nil {
		t.Fatal("trap polluter rejected by verify")
	}
	if n := countXop(trapImg, xSWRUN); n != 3 {
		t.Fatalf("trap polluter predecodes to %d store runs, want 3", n)
	}
	probe := isoProbe()
	requireFastPath(t, probe)
	engines := []struct {
		name string
		run  func(*mcode.Program, Options) (*Result, error)
	}{
		{"fast", pinEngine("fast")},
		{"reference", RunReference},
	}
	for _, mem := range []string{"mapped", "heap"} {
		t.Run(mem, func(t *testing.T) {
			if mem == "heap" {
				defer func(m func(int) ([]int64, error), u func([]int64)) { mapMem, unmapMem = m, u }(mapMem, unmapMem)
				mapMem = func(n int) ([]int64, error) { return make([]int64, n), nil }
				unmapMem = func([]int64) {}
			}
			for _, pol := range polluters {
				for _, e := range engines {
					res, err := e.run(pol.p, pol.opts)
					if !pol.want(err) {
						t.Fatalf("%s polluter on %s: unexpected error %v", pol.name, e.name, err)
					}
					if len(res.Output) != len(isoAddrs)-1 || slices.ContainsFunc(res.Output, func(v int64) bool { return v != 7 }) {
						t.Fatalf("%s polluter on %s: read back %v, want its stores", pol.name, e.name, res.Output)
					}
					res, err = runEngines(t, probe, Options{})
					if err != nil {
						t.Fatal(err)
					}
					for i, v := range res.Output {
						if v != 0 {
							t.Fatalf("after %s polluter on %s: word %d reads %d, want 0", pol.name, e.name, isoAddrs[i], v)
						}
					}
				}
			}
		})
	}
}

func countXop(img *image, op xop) int {
	n := 0
	for _, x := range img.xcode {
		if x.op == op {
			n++
		}
	}
	return n
}
