package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"chow88"
	"chow88/internal/incr"
	"chow88/internal/mcode"
	"chow88/internal/pipeline"
)

// laterSamples caps the seeded sample of rebuilds, beyond the first round,
// checked against a full compile; one in laterEvery is picked.
const (
	laterSamples = 64
	laterEvery   = 16
)

// editW is the incremental edit loop: one editing session (chain) per
// corpus item, each with its own statefile; op n rebuilds the next
// revision of chain n mod len(chains) through chow88.CompileIncremental,
// which loads the statefile, rebuilds the frontier and saves.
type editW struct {
	items  []*program
	chains []*chain
	paths  []string
	uniq   int64
	// The first round of the first measured section rebuilds each chain
	// back to its unedited source (oracle from setup), whatever the warm-up
	// left in the statefile, so the paper items' sums are the same on
	// every run.
	want     [][]int64
	code     []*mcode.Program
	sampling int
	// later holds the seeded sample of later rebuilds.
	later []rebuilt
	pick  *rand.Rand

	reused, replanned, full int
	// Incremental rebuilds in traced sections, and those whose frontier
	// reached beyond the edited function; likewise for pressure edits.
	incremental, propagated              int
	pressureRebuilds, pressurePropagated int
}

type rebuilt struct {
	name, src string
	code      *mcode.Program
}

func (w *editW) setup(e *env) error {
	items, err := corpus(e.seed, corpusProgen)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.dir, "edit-")
	if err != nil {
		return err
	}
	w.items, w.pick = items, rand.New(rand.NewSource(e.seed))
	w.want = make([][]int64, len(items))
	w.code = make([]*mcode.Program, len(items))
	for i, p := range items {
		c := newChain(p, e.seed*7919+int64(i))
		path := filepath.Join(dir, fmt.Sprintf("%02d-%s.state", i, p.name))
		if _, err := chow88.CompileIncremental(p.src, chow88.ModeC(), path); err != nil {
			return fmt.Errorf("%s: first build: %w", p.name, err)
		}
		if w.want[i], err = chow88.Interpret(p.src); err != nil {
			return fmt.Errorf("%s oracle: %w", p.name, err)
		}
		w.chains = append(w.chains, c)
		w.paths = append(w.paths, path)
	}
	return nil
}

func (w *editW) run(d time.Duration, sec section) (*loop, []*tracer, error) {
	l := &loop{}
	start := time.Now()
	var tr *tracer
	if sec == tracedSection {
		tr = newTracer(start, 1)
	}
	deadline := start.Add(d)
	roundStart := start
	for n := 0; time.Now().Before(deadline); n++ {
		i := n % len(w.chains)
		if n > 0 && i == 0 {
			l.round(time.Since(roundStart), len(w.chains))
			roundStart = time.Now()
		}
		c := w.chains[i]
		sampled := sec != warmSection && w.sampling < len(w.chains) && n < len(w.chains)
		var src string
		var e edit
		if sampled {
			c.slots = map[int]string{}
			src = c.p.src
			w.sampling++
		} else {
			w.uniq++
			e = c.p.mixedEdit(c.rng, w.uniq)
			src = c.step(e)
		}
		l.attempted++
		var code *mcode.Program
		var lat time.Duration
		var err error
		if tr != nil {
			code, lat, err = w.tracedOp(tr, src, w.paths[i], e.pressure, n < len(w.chains))
		} else {
			t0 := time.Now()
			var p *chow88.Program
			if p, err = chow88.CompileIncremental(src, chow88.ModeC(), w.paths[i]); err == nil {
				code = p.Code
			}
			lat = time.Since(t0)
		}
		l.record(c.p.name, lat)
		if err != nil {
			l.mismatch("%s: %v", c.p.name, err)
			continue
		}
		l.good++
		switch {
		case sampled:
			w.code[i] = code
		case sec != warmSection && len(w.later) < laterSamples && w.pick.Intn(laterEvery) == 0:
			w.later = append(w.later, rebuilt{c.p.name, src, code})
		}
	}
	l.wall = time.Since(start)
	if tr == nil {
		return l, nil, nil
	}
	return l, []*tracer{tr}, nil
}

// tracedOp is CompileIncremental stage by stage: load the statefile,
// rebuild, save, each in its own span. pressure says src came from a
// pressure edit.
func (w *editW) tracedOp(tr *tracer, src, path string, pressure, checkFidelity bool) (*mcode.Program, time.Duration, error) {
	op := tr.op("edit")
	s := tr.begin(op, "incr.Load")
	st, _ := incr.Load(path) // like CompileIncremental: any failure means no previous state
	tr.end(s)
	s = tr.begin(op, "pipeline.BuildIncremental")
	res, err := pipeline.BuildIncremental(src, chow88.ModeC(), st)
	tr.end(s)
	if err != nil {
		tr.end(op)
		return nil, tr.dur(op), err
	}
	if res.State != nil {
		s = tr.begin(op, "State.Save")
		_ = res.State.Save(path) // like CompileIncremental: a failed save only costs the next round
		tr.end(s)
	}
	tr.end(op)
	if res.Incremental {
		w.reused += res.Reused
		w.replanned += res.Replanned
		w.incremental++
		if pressure {
			w.pressureRebuilds++
		}
		if res.Replanned > 1 {
			w.propagated++
			if pressure {
				w.pressurePropagated++
			}
		}
	} else {
		w.full++
	}
	if checkFidelity {
		if err := sameAsCompile(src, chow88.ModeC(), res.Prog.Disassemble()); err != nil {
			return nil, tr.dur(op), err
		}
	}
	return res.Prog, tr.dur(op), nil
}

// check runs the first-round rebuilds against their oracle, requires them
// and every later sampled rebuild to disassemble exactly like a full
// compile, and, after traced sections, requires some pressure edit to have
// propagated.
func (w *editW) check(rep *report) (*paperSums, error) {
	sums, err := runSample(rep, w.items, w.code, w.want)
	if err != nil {
		return nil, err
	}
	all := append([]rebuilt(nil), w.later...)
	for i, c := range w.code {
		if c != nil {
			all = append(all, rebuilt{w.items[i].name, w.items[i].src, c})
		}
	}
	for _, r := range all {
		full, err := chow88.Compile(r.src, chow88.ModeC())
		if err != nil {
			rep.mismatch("%s: full compile of a rebuilt revision: %v", r.name, err)
			continue
		}
		if full.Disassemble() != r.code.Disassemble() {
			rep.mismatch("%s: incremental rebuild differs from a full compile", r.name)
		}
	}
	// The workload claims that some edits propagate to callers; the traced
	// sections see whether they did.
	if w.pressureRebuilds > 0 && w.pressurePropagated == 0 {
		rep.mismatch("none of %d incremental pressure-edit rebuilds replanned beyond the edited function", w.pressureRebuilds)
	}
	return sums, nil
}

func (w *editW) layerValues(agg *layers, vals map[string]float64) {
	vals["incr.load_ms"] = agg.meanMS("incr.Load")
	vals["incr.build_ms"] = agg.meanMS("pipeline.BuildIncremental")
	vals["incr.save_ms"] = agg.meanMS("State.Save")
	if n := w.reused + w.replanned; n > 0 {
		vals["incr.reuse_ratio"] = float64(w.reused) / float64(n)
	}
	vals["incr.full_rebuilds"] = float64(w.full)
	vals["incr.propagated_ratio"] = ratio(w.propagated, w.incremental)
	vals["incr.pressure_propagated_ratio"] = ratio(w.pressurePropagated, w.pressureRebuilds)
}

func (w *editW) close() error { return nil }
