package benchprog

import (
	"fmt"
	"strings"
)

// Large returns a synthetic program well beyond the paper suite's sizes,
// shaped for the compilation pipeline itself rather than for Table 1: a
// wide, shallow call graph (many independent leaves under a tier of middle
// functions under main) whose per-function bodies carry enough register
// pressure that allocation dominates compile time. It is the large-program
// case of the compile benchmarks and the compile determinism tests.
//
// The program is deterministic, terminating and trap-free (all array
// indices derive from nonnegative loop counters), so it can also be
// executed. It is not part of All(): the paper's tables stay the paper's.
func Large() Benchmark {
	const nLeaves, nMids, leavesPerMid = 36, 12, 3
	var b strings.Builder
	b.WriteString("// large - synthetic wide-call-graph compile workload.\n")
	b.WriteString("var work [64]int;\n\n")
	for k := 0; k < nLeaves; k++ {
		fmt.Fprintf(&b, `func leaf%d(a int, b int) int {
    var i int;
    var s int;
    var t int;
    var u int;
    s = a * %d + %d;
    t = b + %d;
    u = 1;
    for (i = 0; i < %d; i = i + 1) {
        s = s + i * t;
        if (s > 4096) { s = s - 4093; }
        t = t + u;
        u = u + i + %d;
        if (u > 512) { u = u - 509; }
        work[i %% 64] = s + t;
        t = t + work[(i + %d) %% 64];
    }
    return s + t + u;
}

`, k, 3+k%5, k, k%7, 8+k%6, k%3, k%11)
	}
	for m := 0; m < nMids; m++ {
		// Each mid drives a distinct slice of leaves so the graph stays wide.
		l0 := (m * leavesPerMid) % nLeaves
		l1 := (m*leavesPerMid + 1) % nLeaves
		l2 := (m*leavesPerMid + 2) % nLeaves
		fmt.Fprintf(&b, `func mid%d(n int) int {
    var i int;
    var acc int;
    acc = n;
    for (i = 0; i < 3; i = i + 1) {
        acc = acc + leaf%d(i, n) + leaf%d(n, i) - leaf%d(i + n, i);
        if (acc > 100000) { acc = acc - 99991; }
        if (acc < 0 - 100000) { acc = acc + 99991; }
    }
    return acc;
}

`, m, l0, l1, l2)
	}
	b.WriteString("func main() {\n    var total int;\n    total = 0;\n")
	for m := 0; m < nMids; m++ {
		fmt.Fprintf(&b, "    total = total + mid%d(%d);\n", m, m+1)
	}
	b.WriteString("    print(total);\n}\n")
	src := b.String()
	return Benchmark{
		Name:        "large",
		Description: "synthetic wide-call-graph compile workload (not in the paper suite)",
		Source:      src,
		Lines:       countLines(src),
	}
}
