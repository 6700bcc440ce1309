package main

import (
	"fmt"
	"math/rand"
	"time"

	"chow88"
	"chow88/internal/ir"
	"chow88/internal/lower"
	"chow88/internal/mcode"
	"chow88/internal/opt"
	"chow88/internal/parser"
	"chow88/internal/sema"
)

// corpusProgen is how many seeded progen programs join the suite and
// benchprog.Large as compile and edit inputs.
const corpusProgen = 4

// compileW is the edit–compile loop: op n compiles a unique single-function
// revision of corpus item n mod len(items) through chow88.Compile(ModeC),
// so the front cache always misses; nothing runs on the clock.
type compileW struct {
	items []*program
	rng   *rand.Rand
	uniq  int64 // makes every revision's source unique
	// The first round of the first measured section compiles every item
	// unedited, whatever the seed: its code is run against the oracle from
	// setup, and the paper items' sums are the same on every run. It is
	// still a front-cache miss, as nothing compiled the plain source before.
	want     [][]int64
	code     []*mcode.Program
	sampling int // sample ops started so far

	back     backCounts
	irInstrs int
}

func (w *compileW) setup(e *env) error {
	items, err := corpus(e.seed, corpusProgen)
	if err != nil {
		return err
	}
	w.items, w.rng = items, rand.New(rand.NewSource(e.seed))
	w.want = make([][]int64, len(items))
	w.code = make([]*mcode.Program, len(items))
	for i, p := range items {
		if w.want[i], err = chow88.Interpret(p.src); err != nil {
			return fmt.Errorf("%s oracle: %w", p.name, err)
		}
	}
	return nil
}

func (w *compileW) run(d time.Duration, sec section) (*loop, []*tracer, error) {
	l := &loop{}
	start := time.Now()
	var tr *tracer
	if sec == tracedSection {
		tr = newTracer(start, 1)
	}
	deadline := start.Add(d)
	roundStart := start
	for n := 0; time.Now().Before(deadline); n++ {
		i := n % len(w.items)
		if n > 0 && i == 0 {
			l.round(time.Since(roundStart), len(w.items))
			roundStart = time.Now()
		}
		p := w.items[i]
		sampled := sec != warmSection && w.sampling < len(w.items) && n < len(w.items)
		var src string
		if sampled {
			src = p.src
			w.sampling++
		} else {
			w.uniq++
			src = p.revision(p.mixedEdit(w.rng, w.uniq))
		}
		l.attempted++
		var prog *mcode.Program
		var lat time.Duration
		var err error
		if tr != nil {
			prog, lat, err = w.tracedOp(tr, src, n < len(w.items))
		} else {
			t0 := time.Now()
			var cp *chow88.Program
			if cp, err = chow88.Compile(src, chow88.ModeC()); err == nil {
				prog = cp.Code
			}
			lat = time.Since(t0)
		}
		l.record(p.name, lat)
		if err != nil {
			l.mismatch("%s: %v", p.name, err)
			continue
		}
		l.good++
		if sampled {
			w.code[i] = prog
		}
	}
	l.wall = time.Since(start)
	if tr == nil {
		return l, nil, nil
	}
	return l, []*tracer{tr}, nil
}

// tracedOp compiles src stage by stage under mode C, checking fidelity
// against chow88.Compile after the op span when checkFidelity is set.
func (w *compileW) tracedOp(tr *tracer, src string, checkFidelity bool) (*mcode.Program, time.Duration, error) {
	op := tr.op("compile")
	prog, err := w.tracedCompile(tr, op, src)
	tr.end(op)
	if err != nil {
		return nil, tr.dur(op), err
	}
	if checkFidelity {
		if err := sameAsCompile(src, chow88.ModeC(), prog.Disassemble()); err != nil {
			return nil, tr.dur(op), err
		}
	}
	return prog, tr.dur(op), nil
}

// tracedCompile mirrors front.Module on a cache miss (parse, sema, lower,
// opt, then the clone handed to the caller) and the pipeline, with a span
// around each call.
func (w *compileW) tracedCompile(tr *tracer, op int, src string) (*mcode.Program, error) {
	s := tr.begin(op, "parser.Parse")
	tree, err := parser.Parse(src)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin(op, "sema.Check")
	info, err := sema.Check(tree)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin(op, "lower.Build")
	mod, err := lower.Build(info)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin(op, "opt.Run")
	opt.Run(mod)
	err = ir.VerifyModule(mod)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	w.irInstrs += irInstrs(mod)
	s = tr.begin(op, "ir.CloneModule")
	mod = ir.CloneModule(mod)
	tr.end(s)
	return backEnd(tr, op, mod, chow88.ModeC(), &w.back)
}

func irInstrs(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// check runs every item's first-round code against its oracle and sums the
// paper metrics over the suite and Large.
func (w *compileW) check(rep *report) (*paperSums, error) {
	return runSample(rep, w.items, w.code, w.want)
}

// runSample executes each item's first-round code, checks its output
// against the oracle and sums the paper metrics of the paper-set programs.
func runSample(rep *report, items []*program, code []*mcode.Program, want [][]int64) (*paperSums, error) {
	var sums paperSums
	for i, p := range items {
		if code[i] == nil {
			rep.mismatch("%s sample: no compiled code", p.name)
			continue
		}
		res, err := (&chow88.Program{Code: code[i]}).Run()
		if err != nil {
			rep.mismatch("%s sample: %v", p.name, err)
			continue
		}
		if !sameInts(res.Output, want[i]) {
			rep.mismatch("%s sample: output differs from the interpreter", p.name)
			continue
		}
		if p.paper {
			sums.add(&res.Stats, len(code[i].Code))
		}
	}
	return &sums, nil
}

func (w *compileW) layerValues(agg *layers, vals map[string]float64) {
	for _, l := range []struct{ metric, span string }{
		{"front.parse_ms", "parser.Parse"},
		{"front.sema_ms", "sema.Check"},
		{"front.lower_ms", "lower.Build"},
		{"front.opt_ms", "opt.Run"},
	} {
		vals[l.metric] = agg.meanMS(l.span)
	}
	vals["front.clone_ms"] = agg.meanMS("ir.CloneModule")
	if w.back.compiles > 0 {
		vals["front.ir_instrs"] = float64(w.irInstrs) / float64(w.back.compiles)
	}
	w.back.values(agg, vals)
}

func (w *compileW) close() error { return nil }
