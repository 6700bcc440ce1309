// Package callgraph builds the program call graph, classifies procedures as
// open or closed, and produces the depth-first bottom-up processing order
// that the one-pass inter-procedural allocator requires.
//
// A procedure is open (§3 of the paper) when its register usage cannot be
// propagated to all of its callers before they are processed:
//   - main (called by the operating system),
//   - extern procedures (separate compilation),
//   - address-taken procedures (indirect-call candidates),
//   - members of call-graph cycles, including self-recursion,
//   - procedures explicitly forced open (simulating separate compilation).
//
// Every other procedure is closed: by the time any caller is processed, the
// procedure's exact register-usage summary is known.
package callgraph

import (
	"sort"

	"chow88/internal/ir"
)

// Cause is the machine-matchable enum behind an open/closed verdict; the
// explain journal and explaindiff key on it (OpenReason keeps the prose).
type Cause string

// The classification causes. CauseDemotion is assigned after Build, by the
// pipeline's degradation ladder, when it forces a procedure open.
const (
	CauseClosed    Cause = "closed"
	CauseMain      Cause = "main"
	CauseExtern    Cause = "extern"
	CauseAddrTaken Cause = "addr-taken"
	CauseCycle     Cause = "cycle"
	CauseForceOpen Cause = "force-open"
	CauseDemotion  Cause = "demotion"
)

// Graph is the analyzed call graph.
type Graph struct {
	M *ir.Module
	// Callees lists the distinct direct callees of each function, in first-
	// call order.
	Callees map[*ir.Func][]*ir.Func
	// Callers is the reverse relation.
	Callers map[*ir.Func][]*ir.Func
	// HasIndirect marks functions containing indirect call sites.
	HasIndirect map[*ir.Func]bool
	// Open marks open procedures.
	Open map[*ir.Func]bool
	// OpenReason explains why a procedure is open (diagnostics).
	OpenReason map[*ir.Func]string
	// OpenCause is OpenReason's enum form (CauseClosed when absent/closed).
	OpenCause map[*ir.Func]Cause
	// PostOrder is the bottom-up processing order: every closed procedure
	// appears before all of its callers.
	PostOrder []*ir.Func
	// InCycle marks members of nontrivial SCCs or self-loops.
	InCycle map[*ir.Func]bool
}

// Build analyzes m. Functions named in forceOpen are treated as open, which
// models separate compilation of the rest of the program.
func Build(m *ir.Module, forceOpen map[string]bool) *Graph {
	g := &Graph{
		M:           m,
		Callees:     map[*ir.Func][]*ir.Func{},
		Callers:     map[*ir.Func][]*ir.Func{},
		HasIndirect: map[*ir.Func]bool{},
		Open:        map[*ir.Func]bool{},
		OpenReason:  map[*ir.Func]string{},
		OpenCause:   map[*ir.Func]Cause{},
		InCycle:     map[*ir.Func]bool{},
	}
	for _, f := range m.Funcs {
		if f.Extern {
			continue
		}
		seen := map[*ir.Func]bool{}
		for _, cs := range f.CallSites() {
			switch cs.Instr.Op {
			case ir.OpCall:
				callee := cs.Instr.Callee
				if !seen[callee] {
					seen[callee] = true
					g.Callees[f] = append(g.Callees[f], callee)
					g.Callers[callee] = append(g.Callers[callee], f)
				}
			case ir.OpCallInd:
				g.HasIndirect[f] = true
			}
		}
	}

	g.findCycles()

	markOpen := func(f *ir.Func, cause Cause, reason string) {
		if !g.Open[f] {
			g.Open[f] = true
			g.OpenReason[f] = reason
			g.OpenCause[f] = cause
		}
	}
	for _, f := range m.Funcs {
		switch {
		case f.Extern:
			markOpen(f, CauseExtern, "extern")
		case f.Name == "main":
			markOpen(f, CauseMain, "main (called by the operating system)")
		case f.AddressTaken:
			markOpen(f, CauseAddrTaken, "address taken (indirect-call candidate)")
		case g.InCycle[f]:
			markOpen(f, CauseCycle, "recursive (call-graph cycle)")
		case forceOpen[f.Name]:
			markOpen(f, CauseForceOpen, "forced open (separate compilation)")
		}
	}

	g.computePostOrder()
	return g
}

// findCycles runs Tarjan's SCC algorithm over direct-call edges and marks
// members of nontrivial components and self-recursive functions.
func (g *Graph) findCycles() {
	index := map[*ir.Func]int{}
	low := map[*ir.Func]int{}
	onStack := map[*ir.Func]bool{}
	var stack []*ir.Func
	next := 0

	var strongconnect func(f *ir.Func)
	strongconnect = func(f *ir.Func) {
		index[f] = next
		low[f] = next
		next++
		stack = append(stack, f)
		onStack[f] = true
		for _, c := range g.Callees[f] {
			if c.Extern {
				continue
			}
			if _, seen := index[c]; !seen {
				strongconnect(c)
				if low[c] < low[f] {
					low[f] = low[c]
				}
			} else if onStack[c] && index[c] < low[f] {
				low[f] = index[c]
			}
		}
		if low[f] == index[f] {
			var scc []*ir.Func
			for {
				n := len(stack) - 1
				v := stack[n]
				stack = stack[:n]
				onStack[v] = false
				scc = append(scc, v)
				if v == f {
					break
				}
			}
			if len(scc) > 1 {
				for _, v := range scc {
					g.InCycle[v] = true
				}
			}
		}
	}
	for _, f := range g.M.Funcs {
		if f.Extern {
			continue
		}
		if _, seen := index[f]; !seen {
			strongconnect(f)
		}
		// Self-recursion: a self edge is a cycle even in a singleton SCC.
		for _, c := range g.Callees[f] {
			if c == f {
				g.InCycle[f] = true
			}
		}
	}
}

// computePostOrder emits a depth-first postorder over direct-call edges,
// rooted at main, then at remaining unvisited functions (address-taken
// roots, dead functions) in declaration order. Cycles are broken at the
// first revisited node; their members are open, so ordering within a cycle
// does not matter.
func (g *Graph) computePostOrder() {
	visited := map[*ir.Func]bool{}
	var order []*ir.Func
	var dfs func(f *ir.Func)
	dfs = func(f *ir.Func) {
		visited[f] = true
		for _, c := range g.Callees[f] {
			if !visited[c] && !c.Extern {
				dfs(c)
			}
		}
		order = append(order, f)
	}
	if main := g.M.Lookup("main"); main != nil && !main.Extern {
		dfs(main)
	}
	for _, f := range g.M.Funcs {
		if !f.Extern && !visited[f] {
			dfs(f)
		}
	}
	g.PostOrder = order
}

// Height returns the call-graph height from f: 1 for a leaf, following
// direct edges only and treating back edges as leaves. The paper identifies
// height as the parameter governing register exhaustion.
func (g *Graph) Height(f *ir.Func) int {
	memo := map[*ir.Func]int{}
	onPath := map[*ir.Func]bool{}
	var walk func(f *ir.Func) int
	walk = func(f *ir.Func) int {
		if h, ok := memo[f]; ok {
			return h
		}
		if onPath[f] {
			return 0
		}
		onPath[f] = true
		h := 0
		for _, c := range g.Callees[f] {
			if c.Extern {
				continue
			}
			if ch := walk(c); ch > h {
				h = ch
			}
		}
		onPath[f] = false
		memo[f] = h + 1
		return h + 1
	}
	return walk(f)
}

// OpenNames returns the sorted names of open procedures (diagnostics).
func (g *Graph) OpenNames() []string {
	var names []string
	for f, open := range g.Open {
		if open {
			names = append(names, f.Name)
		}
	}
	sort.Strings(names)
	return names
}
