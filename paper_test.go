package chow88

// The paper's numbers as tests. TestPaperMetricsGolden pins every
// generated-code metric the evaluation rests on (testdata/paper.golden);
// TestPaperShapes asserts the shapes EXPERIMENTS.md reads off Tables 1–2
// and the height sweep, computed from the same runs, so a change that moves
// a cell fails the golden and a change that breaks a claim fails a shape.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"chow88/internal/benchprog"
	"chow88/internal/experiments"
)

// paperKeys names allModes() in the paper's column letters.
var paperKeys = []string{"base", "A", "B", "C", "D", "E"}

// paperRun is one compiled and executed program's paper metrics.
type paperRun struct {
	cycles, scalarLS, saveLS, linkage, codeWords int64
}

// paperData holds every measurement the paper tests read.
type paperData struct {
	// table is suite + Large × the six modes, keyed by program then
	// paperKeys entry.
	table map[string]map[string]paperRun
	// inline is nim, uopt and Large under mode C with profile feedback,
	// inlining off and on.
	inline map[string][2]paperRun
	// convention is the summed workload metrics of the default convention
	// and of the winner of the sampled sweep, with their specs.
	convention [2]paperRun
	convSpec   [2]string
	// height is indexed by chain depth (2 to maxChainDepth): the
	// save/restore count under D and E.
	height [maxChainDepth + 1][2]int64
}

const maxChainDepth = 12

// Measured once per test binary: both tests read the same runs.
var paperOnce struct {
	sync.Once
	d   *paperData
	err error
}

func paperMeasurements(t *testing.T) *paperData {
	t.Helper()
	paperOnce.Do(func() { paperOnce.d, paperOnce.err = measurePaper() })
	if paperOnce.err != nil {
		t.Fatal(paperOnce.err)
	}
	return paperOnce.d
}

func measureRun(prog *Program, err error) (paperRun, error) {
	if err != nil {
		return paperRun{}, err
	}
	res, err := prog.Run()
	if err != nil {
		return paperRun{}, err
	}
	st := res.Stats
	return paperRun{st.Cycles, st.ScalarLS(), st.SaveRestoreLS(), st.LinkageCycles, int64(len(prog.Code.Code))}, nil
}

func measurePaper() (*paperData, error) {
	d := &paperData{
		table:  map[string]map[string]paperRun{},
		inline: map[string][2]paperRun{},
	}
	for _, p := range append(benchprog.All(), benchprog.Large()) {
		d.table[p.Name] = map[string]paperRun{}
		for i, mode := range allModes() {
			r, err := measureRun(Compile(p.Source, mode))
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", p.Name, paperKeys[i], err)
			}
			d.table[p.Name][paperKeys[i]] = r
		}
	}
	for _, p := range compileBenchPrograms() {
		off, err := measureRun(CompileProfiled(p.Source, ModeC()))
		if err != nil {
			return nil, fmt.Errorf("%s profiled: %w", p.Name, err)
		}
		on, err := measureRun(CompileInlined(p.Source, ModeC(), 0))
		if err != nil {
			return nil, fmt.Errorf("%s inlined: %w", p.Name, err)
		}
		d.inline[p.Name] = [2]paperRun{off, on}
	}
	var wl []experiments.Workload
	for _, p := range benchprog.All()[:3] {
		wl = append(wl, experiments.Workload{Name: p.Name, Source: p.Source})
	}
	rep, err := experiments.Sweep(experiments.SampleConventions(8), wl, 0)
	if err != nil {
		return nil, err
	}
	for i, row := range []*experiments.SweepRow{rep.Base, rep.Winner()} {
		d.convention[i] = paperRun{cycles: row.Cycles, saveLS: row.SaveLS, linkage: row.Linkage}
		d.convSpec[i] = row.Spec
	}
	for depth := 2; depth <= maxChainDepth; depth++ {
		src := experiments.ChainProgram(depth, 3)
		for i, mode := range []Mode{ModeD(), ModeE()} {
			r, err := measureRun(Compile(src, mode))
			if err != nil {
				return nil, fmt.Errorf("chain %d/%s: %w", depth, mode.Name, err)
			}
			d.height[depth][i] = r.saveLS
		}
	}
	return d, nil
}

// golden renders the measurements, one row per line in a fixed order.
func (d *paperData) golden() string {
	var b strings.Builder
	b.WriteString("# program mode: cycles, scalar loads+stores, save/restore loads+stores, linkage cycles, code words\n")
	for _, p := range append(benchprog.All(), benchprog.Large()) {
		for _, k := range paperKeys {
			r := d.table[p.Name][k]
			fmt.Fprintf(&b, "table %-8s %-4s cycles=%d scalar_ls=%d saverestore_ls=%d linkage=%d code_words=%d\n",
				p.Name, k, r.cycles, r.scalarLS, r.saveLS, r.linkage, r.codeWords)
		}
	}
	b.WriteString("# mode C with profile feedback, inlining off (CompileProfiled) and on (CompileInlined)\n")
	for _, p := range compileBenchPrograms() {
		for i, v := range []string{"off", "on"} {
			r := d.inline[p.Name][i]
			fmt.Fprintf(&b, "inline %-8s %-3s cycles=%d saverestore_ls=%d linkage=%d\n",
				p.Name, v, r.cycles, r.saveLS, r.linkage)
		}
	}
	b.WriteString("# default convention and the winner of an 8-candidate sweep, summed over the first 3 suite programs\n")
	for i, k := range []string{"default", "winner"} {
		r := d.convention[i]
		fmt.Fprintf(&b, "convention %-7s cycles=%d saverestore_ls=%d linkage=%d spec=%s\n",
			k, r.cycles, r.saveLS, r.linkage, d.convSpec[i])
	}
	b.WriteString("# call chain of the given depth (3 values live across each call): save/restore loads+stores\n")
	for depth := 2; depth <= maxChainDepth; depth++ {
		h := d.height[depth]
		fmt.Fprintf(&b, "height %2d D=%d E=%d\n", depth, h[0], h[1])
	}
	return b.String()
}

// TestPaperMetricsGolden pins the generated-code metrics of the paper's
// evaluation: every suite program and Large under the six modes, the
// inlining on/off rows, the convention default-vs-winner rows and the
// height chains. The simulator is deterministic, so any drift is a change
// to generated code; run with -update only after such an intended change,
// and review the diff cell by cell.
func TestPaperMetricsGolden(t *testing.T) {
	got := paperMeasurements(t).golden()
	golden := filepath.Join("testdata", "paper.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("paper metrics drifted from %s (run with -update if intended)\n%s",
			golden, firstDiff(string(want), got))
	}
}

// TestPaperShapes asserts the shape checks EXPERIMENTS.md states over the
// 13-program suite. Where a claim has a known exception the exception set is
// asserted exactly, so a new exception fails as well as a vanished one.
func TestPaperShapes(t *testing.T) {
	d := paperMeasurements(t)
	suite := benchprog.All()
	// where lists the suite programs whose cells satisfy pred.
	where := func(pred func(m map[string]paperRun) bool) []string {
		var out []string
		for _, p := range suite {
			if pred(d.table[p.Name]) {
				out = append(out, p.Name)
			}
		}
		return out
	}
	expect := func(claim string, got []string, want ...string) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: programs %v, want %v", claim, got, want)
		}
	}

	// Table 1, II.A ≥ 0: shrink-wrapping alone always reduces memory
	// accesses.
	expect("scalar l/s under A > base", where(func(m map[string]paperRun) bool {
		return m["A"].scalarLS > m["base"].scalarLS
	}))
	// Table 1, C ≥ B on column II: shrink-wrap on top of IPRA never adds
	// scalar traffic, and removes some on the partial-path programs.
	expect("scalar l/s under C > B", where(func(m map[string]paperRun) bool {
		return m["C"].scalarLS > m["B"].scalarLS
	}))
	for _, name := range []string{"map", "ccom", "upas"} {
		if m := d.table[name]; m["C"].scalarLS >= m["B"].scalarLS {
			t.Errorf("%s: scalar l/s under C = %d, want fewer than B's %d", name, m["C"].scalarLS, m["B"].scalarLS)
		}
	}
	// Table 1's negative cell: IPRA without shrink-wrap costs diff cycles.
	expect("cycles under B > base", where(func(m map[string]paperRun) bool {
		return m["B"].cycles > m["base"].cycles
	}), "diff")
	// Table 2, column I: caller-saved registers never lose on cycles.
	expect("cycles under D > E", where(func(m map[string]paperRun) bool {
		return m["D"].cycles > m["E"].cycles
	}))
	// Table 2, column II: nor on scalar traffic, except for nim.
	expect("scalar l/s under D > E", where(func(m map[string]paperRun) bool {
		return m["D"].scalarLS > m["E"].scalarLS
	}), "nim")

	// Height sweep: once the chain outgrows the register file, E's extra
	// save/restore traffic is the constant 14 ops of the saves migrated to
	// main; at depth 2 the caller-saved class wins by more.
	gap := func(depth int) int64 { return d.height[depth][1] - d.height[depth][0] }
	for depth := 4; depth <= maxChainDepth; depth++ {
		if g := gap(depth); g != 14 {
			t.Errorf("height %d: E−D save/restore = %d, want 14", depth, g)
		}
	}
	if g := gap(2); g <= 14 {
		t.Errorf("height 2: E−D save/restore = %d, want more than 14", g)
	}
}
