package liveness_test

import (
	"fmt"
	"testing"

	"chow88/internal/benchprog"
	"chow88/internal/dataflow"
	"chow88/internal/front"
	"chow88/internal/ir"
	"chow88/internal/liveness"
	"chow88/internal/opt"
	"chow88/internal/progen"
)

// mapLive is the map-keyed live-variable fixpoint Analyze computed before
// its sets were indexed by block ID, kept as the oracle for
// TestLivenessMatchesMapFixpoint.
func mapLive(f *ir.Func) (liveIn, liveOut map[*ir.Block]dataflow.BitVec) {
	n := f.NumTemps()
	liveIn = make(map[*ir.Block]dataflow.BitVec, len(f.Blocks))
	liveOut = make(map[*ir.Block]dataflow.BitVec, len(f.Blocks))
	use := make(map[*ir.Block]dataflow.BitVec, len(f.Blocks))
	def := make(map[*ir.Block]dataflow.BitVec, len(f.Blocks))
	var buf []*ir.Temp
	for _, b := range f.Blocks {
		u, d := dataflow.NewBitVec(n), dataflow.NewBitVec(n)
		for _, in := range b.Instrs {
			buf = in.Uses(buf[:0])
			for _, t := range buf {
				if !d.Get(t.ID) {
					u.Set(t.ID)
				}
			}
			if in.Dst != nil {
				d.Set(in.Dst.ID)
			}
		}
		use[b], def[b] = u, d
		liveIn[b] = dataflow.NewBitVec(n)
		liveOut[b] = dataflow.NewBitVec(n)
	}
	rpo := f.RPO()
	in := dataflow.NewBitVec(n)
	for changed := true; changed; {
		changed = false
		for i := len(rpo) - 1; i >= 0; i-- {
			b := rpo[i]
			out := liveOut[b]
			for _, s := range b.Succs {
				if out.Union(liveIn[s]) {
					changed = true
				}
			}
			in.Copy(out)
			in.AndNot(def[b])
			in.Union(use[b])
			if !in.Equal(liveIn[b]) {
				liveIn[b].Copy(in)
				changed = true
			}
		}
	}
	return liveIn, liveOut
}

// TestLivenessMatchesMapFixpoint holds Analyze's block-ID-indexed sets equal
// to the map-keyed fixpoint for every block of every function of the suite,
// Large and progen programs, on the lowered IR and again after the
// optimizer has rewritten it (deleting and renumbering blocks).
func TestLivenessMatchesMapFixpoint(t *testing.T) {
	type program struct{ name, src string }
	var progs []program
	for _, p := range append(benchprog.All(), benchprog.Large()) {
		progs = append(progs, program{p.Name, p.Source})
	}
	seeds := 400
	if testing.Short() {
		seeds = 25
	}
	for seed := 0; seed < seeds; seed++ {
		progs = append(progs, program{fmt.Sprintf("progen%d", seed), progen.Generate(int64(seed), progen.DefaultConfig())})
	}
	check := func(name, stage string, m *ir.Module) {
		for _, f := range m.Funcs {
			if f.Extern {
				continue
			}
			res := liveness.Analyze(f)
			wantIn, wantOut := mapLive(f)
			for _, b := range f.Blocks {
				if !res.In(b).Equal(wantIn[b]) || !res.Out(b).Equal(wantOut[b]) {
					t.Errorf("%s %s: %s %s: In/Out %s/%s, map fixpoint %s/%s", name, stage, f.Name, b.Name,
						res.In(b), res.Out(b), wantIn[b], wantOut[b])
				}
			}
		}
	}
	for _, p := range progs {
		m, err := front.Build(p.src, false)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		check(p.name, "lowered", m)
		opt.Run(m)
		check(p.name, "optimized", m)
	}
}
