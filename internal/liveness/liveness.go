// Package liveness computes live-variable information for IR functions and
// builds the live-range summaries the priority-based coloring allocator
// consumes: the set of blocks each temp's range touches (the Chow–Hennessy
// granularity), frequency-weighted occurrence counts, the calls each range
// spans, and a precise interference graph.
package liveness

import (
	"chow88/internal/dataflow"
	"chow88/internal/ir"
)

// Result holds per-block live sets, bit-indexed by temp ID. The sets are
// looked up by b.ID, so a Result belongs to the CFG it was computed on:
// RemoveUnreachable renumbers blocks, and any CFG edit needs a fresh
// Analyze.
type Result struct {
	F       *ir.Func
	in, out []dataflow.BitVec // indexed by block ID
}

// In returns the set of temps live on entry to b.
func (r *Result) In(b *ir.Block) dataflow.BitVec { return r.in[b.ID] }

// Out returns the set of temps live on exit from b.
func (r *Result) Out(b *ir.Block) dataflow.BitVec { return r.out[b.ID] }

// Analyze runs backward live-variable analysis.
func Analyze(f *ir.Func) *Result {
	n := f.NumTemps()
	ids := f.NumBlockIDs()
	// The four per-block vector families, each indexed by block ID.
	sets := make([]dataflow.BitVec, 4*ids)
	res := &Result{F: f, in: sets[:ids:ids], out: sets[ids : 2*ids : 2*ids]}
	use, def := sets[2*ids:3*ids:3*ids], sets[3*ids:]
	// One contiguous backing array holds every vector, so the sets cost two
	// allocations however many blocks there are.
	words := (n + 63) / 64
	backing := make(dataflow.BitVec, 4*words*len(f.Blocks))
	carve := func() dataflow.BitVec {
		v := backing[:words:words]
		backing = backing[words:]
		return v
	}
	var buf []*ir.Temp
	for _, b := range f.Blocks {
		u, d := carve(), carve()
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
		use[b.ID], def[b.ID] = u, d
		res.in[b.ID] = carve()
		res.out[b.ID] = carve()
	}
	// Iterate to fixpoint over postorder (reverse RPO) for fast convergence.
	rpo := f.RPO()
	in := dataflow.GetScratch(n)
	for changed := true; changed; {
		changed = false
		for i := len(rpo) - 1; i >= 0; i-- {
			b := rpo[i]
			out := res.out[b.ID]
			for _, s := range b.Succs {
				if out.Union(res.in[s.ID]) {
					changed = true
				}
			}
			in.Copy(out)
			in.AndNot(def[b.ID])
			in.Union(use[b.ID])
			if !in.Equal(res.in[b.ID]) {
				res.in[b.ID].Copy(in)
				changed = true
			}
		}
	}
	dataflow.PutScratch(in)
	return res
}

// Range is the allocator's view of one temp.
type Range struct {
	Temp *ir.Temp
	// Blocks the range touches (live-in, live-out, or referenced there),
	// each once, in f.Blocks order.
	Blocks []*ir.Block
	// Weight is the frequency-weighted number of occurrences (defs + uses):
	// the number of memory operations avoided per run if the temp gets a
	// register instead of a stack home.
	Weight float64
	// Occurrences is the unweighted def+use count.
	Occurrences int
	// Calls lists the call sites whose execution the temp's value must
	// survive (live immediately after the call, not counting the call's own
	// result).
	Calls []ir.CallSite
	// EntryLive reports whether the range is live at function entry
	// (parameters).
	EntryLive bool
}

// Spans reports whether the range crosses any call.
func (r *Range) Spans() bool { return len(r.Calls) > 0 }

// touch records that the range touches b. Every touch of b happens while b
// is being scanned, so comparing with the last block listed keeps Blocks
// free of duplicates.
func (r *Range) touch(b *ir.Block) {
	if k := len(r.Blocks); k == 0 || r.Blocks[k-1] != b {
		r.Blocks = append(r.Blocks, b)
	}
}

// Ranges builds the per-temp range summaries, indexed by temp ID. The
// ranges share one backing array.
func Ranges(f *ir.Func, res *Result) []*Range {
	n := f.NumTemps()
	ranges := make([]*Range, n)
	backing := make([]Range, n)
	for i, t := range f.Temps() {
		backing[i].Temp = t
		ranges[i] = &backing[i]
	}
	var buf []*ir.Temp
	live := dataflow.GetScratch(n)
	defer dataflow.PutScratch(live)
	for _, b := range f.Blocks {
		freq := b.Freq()
		res.In(b).ForEach(func(i int) { ranges[i].touch(b) })
		res.Out(b).ForEach(func(i int) { ranges[i].touch(b) })
		// Backward scan for live-across-call sets.
		live.Copy(res.Out(b))
		for ii := len(b.Instrs) - 1; ii >= 0; ii-- {
			in := b.Instrs[ii]
			if in.Op.IsCall() {
				live.ForEach(func(i int) {
					if in.Dst != nil && i == in.Dst.ID {
						return
					}
					r := ranges[i]
					r.Calls = append(r.Calls, ir.CallSite{Block: b, Index: ii, Instr: in})
				})
			}
			if in.Dst != nil {
				live.Clear(in.Dst.ID)
				r := ranges[in.Dst.ID]
				r.touch(b)
				r.Weight += freq
				r.Occurrences++
			}
			buf = in.Uses(buf[:0])
			for _, t := range buf {
				live.Set(t.ID)
				r := ranges[t.ID]
				r.touch(b)
				r.Weight += freq
				r.Occurrences++
			}
		}
	}
	if len(f.Blocks) > 0 {
		entryIn := res.In(f.Entry())
		for i := range ranges {
			if entryIn.Get(i) {
				ranges[i].EntryLive = true
			}
		}
	}
	return ranges
}

// Interference is an adjacency structure over temp IDs.
type Interference struct {
	n   int
	adj []dataflow.BitVec
}

// NewInterference creates an empty graph over n temps. The rows share one
// contiguous backing array, so building the graph costs two allocations.
func NewInterference(n int) *Interference {
	g := &Interference{n: n, adj: make([]dataflow.BitVec, n)}
	words := (n + 63) / 64
	backing := make(dataflow.BitVec, words*n)
	for i := range g.adj {
		g.adj[i] = backing[:words:words]
		backing = backing[words:]
	}
	return g
}

// AddEdge records that a and b interfere.
func (g *Interference) AddEdge(a, b int) {
	if a == b {
		return
	}
	g.adj[a].Set(b)
	g.adj[b].Set(a)
}

// Interferes reports whether a and b interfere.
func (g *Interference) Interferes(a, b int) bool { return g.adj[a].Get(b) }

// Neighbors returns the adjacency set of a.
func (g *Interference) Neighbors(a int) dataflow.BitVec { return g.adj[a] }

// Degree returns the number of neighbors of a.
func (g *Interference) Degree(a int) int { return g.adj[a].Count() }

// BuildInterference computes a precise interference graph: a def interferes
// with everything live after the defining instruction (Chaitin's rule, with
// the copy refinement: for t := s the edge t–s is not added, enabling the
// allocator to give both the same register).
func BuildInterference(f *ir.Func, res *Result) *Interference {
	n := f.NumTemps()
	g := NewInterference(n)
	var buf []*ir.Temp
	live := dataflow.GetScratch(n)
	defer dataflow.PutScratch(live)
	for _, b := range f.Blocks {
		live.Copy(res.Out(b))
		for ii := len(b.Instrs) - 1; ii >= 0; ii-- {
			in := b.Instrs[ii]
			if in.Dst != nil {
				copySrc := -1
				if in.Op == ir.OpCopy && in.A.Temp != nil {
					copySrc = in.A.Temp.ID
				}
				d := in.Dst.ID
				live.ForEach(func(i int) {
					if i != d && i != copySrc {
						g.AddEdge(d, i)
					}
				})
				live.Clear(d)
			}
			buf = in.Uses(buf[:0])
			for _, t := range buf {
				live.Set(t.ID)
			}
		}
	}
	// The calling convention "defines" all parameters at entry: parameters
	// live into the body interfere with each other and with anything else
	// live at entry.
	if len(f.Blocks) > 0 {
		entryIn := res.In(f.Entry())
		for _, p := range f.Params {
			entryIn.ForEach(func(i int) {
				if i != p.ID {
					g.AddEdge(p.ID, i)
				}
			})
		}
		for i, p := range f.Params {
			for _, q := range f.Params[i+1:] {
				g.AddEdge(p.ID, q.ID)
			}
		}
	}
	return g
}
