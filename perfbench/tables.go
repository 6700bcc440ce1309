package main

import (
	"fmt"
	"time"

	"chow88"
	"chow88/internal/benchprog"
	"chow88/internal/front"
	"chow88/internal/pixie"
)

// tables reproduces the paper's Tables 1–2: each pass compiles and runs the
// 13 suite programs under the six modes (base, A–E) on the default engine,
// as experiments.RunSuite does. Every pass prefixes each source with a
// unique comment, so a program's front-cache entry misses under its first
// mode and hits under the other five, as in a fresh cmd/experiments
// process. An op is one (program, mode) compile and run.
type tables struct {
	seed  int64
	progs []benchprog.Benchmark
	want  [][]int64 // interpreter oracle per program
	pass  int       // passes started, over all sections
	// ref is the first complete pass's paper sums; every later pass, traced
	// or not, must repeat it exactly.
	ref *paperSums

	back          backCounts
	hits, lookups int
	clone         []time.Duration // front.Module calls that hit the cache
	fidelity      int             // traced ops compared with chow88.Compile
}

func paperModes() []chow88.Mode {
	return []chow88.Mode{chow88.ModeBase(), chow88.ModeA(), chow88.ModeB(), chow88.ModeC(), chow88.ModeD(), chow88.ModeE()}
}

func (w *tables) setup(e *env) error {
	w.seed = e.seed
	w.progs = benchprog.All()
	w.want = make([][]int64, len(w.progs))
	for i, b := range w.progs {
		out, err := chow88.Interpret(b.Source)
		if err != nil {
			return fmt.Errorf("%s oracle: %w", b.Name, err)
		}
		w.want[i] = out
	}
	return nil
}

func (w *tables) run(d time.Duration, sec section) (*loop, []*tracer, error) {
	traced := sec == tracedSection
	l := &loop{}
	start := time.Now()
	var tr *tracer
	if traced {
		tr = newTracer(start, 1)
	}
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		w.pass++
		passStart := time.Now()
		var sums paperSums
		complete := true
	pass:
		for i, b := range w.progs {
			src := fmt.Sprintf("// pass %d.%d\n", w.seed, w.pass) + b.Source
			for _, mode := range paperModes() {
				if !time.Now().Before(deadline) {
					complete = false
					break pass
				}
				key := b.Name + "/" + mode.Name
				l.attempted++
				var out []int64
				var st *pixie.Stats
				var words int
				var lat time.Duration
				var err error
				if traced {
					out, st, words, lat, err = w.tracedOp(tr, src, mode)
				} else {
					t0 := time.Now()
					var p *chow88.Program
					var res *chow88.RunResult
					if p, err = chow88.Compile(src, mode); err == nil {
						if res, err = p.Run(); err == nil {
							out, st, words = res.Output, &res.Stats, len(p.Code.Code)
						}
					}
					lat = time.Since(t0)
				}
				l.record(key, lat)
				if err != nil {
					l.mismatch("%s: %v", key, err)
					continue
				}
				if !sameInts(out, w.want[i]) {
					l.mismatch("%s: output differs from the interpreter", key)
					continue
				}
				l.good++
				sums.add(st, words)
			}
		}
		if !complete {
			break
		}
		l.round(time.Since(passStart), len(w.progs)*len(paperModes()))
		if w.ref == nil {
			w.ref = &sums
		} else if sums != *w.ref {
			l.mismatch("pass %d paper metrics %+v differ from the first pass's %+v", w.pass, sums, *w.ref)
		}
	}
	l.wall = time.Since(start)
	if tr == nil {
		return l, nil, nil
	}
	return l, []*tracer{tr}, nil
}

// tracedOp compiles and runs one (program, mode) stage by stage, with a
// span around each layer call. The warm rerun and the fidelity check run
// after the op span ends.
func (w *tables) tracedOp(tr *tracer, src string, mode chow88.Mode) ([]int64, *pixie.Stats, int, time.Duration, error) {
	hits0 := front.CacheStats().Hits
	op := tr.op("tables " + mode.Name)
	s := tr.begin(op, "front.Module")
	mod, err := front.Module(src, mode.Optimize, !mode.Sequential)
	tr.end(s)
	if err != nil {
		tr.end(op)
		return nil, nil, 0, tr.dur(op), err
	}
	prog, err := backEnd(tr, op, mod, mode, &w.back)
	if err != nil {
		tr.end(op)
		return nil, nil, 0, tr.dur(op), err
	}
	res, err := simRun(tr, op, prog, &w.back)
	tr.end(op)
	if err != nil {
		return nil, nil, 0, tr.dur(op), err
	}

	w.lookups++
	if front.CacheStats().Hits > hits0 {
		w.hits++
		w.clone = append(w.clone, tr.dur(s))
	}
	if err := warmRun(prog, res, &w.back); err != nil {
		return nil, nil, 0, tr.dur(op), err
	}
	if w.fidelity < len(w.progs)*len(paperModes()) {
		w.fidelity++
		if err := sameAsCompile(src, mode, prog.Disassemble()); err != nil {
			return nil, nil, 0, tr.dur(op), err
		}
	}
	return res.Output, &res.Stats, len(prog.Code), tr.dur(op), nil
}

// sameAsCompile checks the traced path's fidelity: chow88.Compile of the
// same source and mode must disassemble to exactly disasm.
func sameAsCompile(src string, mode chow88.Mode, disasm string) error {
	p, err := chow88.Compile(src, mode)
	if err != nil {
		return fmt.Errorf("fidelity: chow88.Compile: %w", err)
	}
	if p.Disassemble() != disasm {
		return fmt.Errorf("fidelity: the stage-by-stage path's code differs from chow88.Compile's")
	}
	return nil
}

func (w *tables) check(rep *report) (*paperSums, error) {
	if w.ref == nil {
		return nil, fmt.Errorf("no tables pass completed; raise --seconds")
	}
	return w.ref, nil
}

func (w *tables) layerValues(agg *layers, vals map[string]float64) {
	vals["front.clone_ms"] = meanMS(w.clone)
	if w.lookups > 0 {
		vals["front.cache_hit_ratio"] = float64(w.hits) / float64(w.lookups)
	}
	w.back.values(agg, vals)
}

func (w *tables) close() error { return nil }
