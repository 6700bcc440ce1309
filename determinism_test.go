package chow88

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"chow88/internal/benchprog"
	"chow88/internal/explain"
	"chow88/internal/front"
	"chow88/internal/obs"
)

// probeSeq numbers cacheProbe's sources so repeated runs (-count) stay
// fresh.
var probeSeq atomic.Int64

// cacheProbe returns src with a trailing comment naming tag and a
// process-unique number, so the front cache has never seen it: the first
// cached compile of the result is a miss and the second a hit. Comments do
// not reach the IR.
func cacheProbe(src, tag string) string {
	return fmt.Sprintf("%s\n// front-cache probe %d: %s\n", src, probeSeq.Add(1), tag)
}

// TestParallelPipelineDeterminism is the front cache's contract: for every
// suite program under every measurement mode, plus the large program, a
// cold compile (mode.Sequential bypasses the cache), the cache-miss compile
// that inserts the master, and a cache-hit compile that clones it must
// produce byte-identical machine code.
func TestParallelPipelineDeterminism(t *testing.T) {
	progs := benchprog.All()
	progs = append(progs, benchprog.Large())
	for _, p := range progs {
		for _, mode := range allModes() {
			name := fmt.Sprintf("%s/%s", p.Name, mode.Name)
			t.Run(name, func(t *testing.T) {
				src := cacheProbe(p.Source, name)
				coldMode := mode
				coldMode.Sequential = true
				cold, err := Compile(src, coldMode)
				if err != nil {
					t.Fatalf("cold compile: %v", err)
				}
				want := cold.Disassemble()

				before := front.CacheStats()
				miss, err := Compile(src, mode)
				if err != nil {
					t.Fatalf("cache-miss compile: %v", err)
				}
				mid := front.CacheStats()
				hit, err := Compile(src, mode)
				if err != nil {
					t.Fatalf("cache-hit compile: %v", err)
				}
				after := front.CacheStats()
				if mid.Misses-before.Misses != 1 || after.Hits-mid.Hits != 1 {
					t.Fatalf("front cache: misses %+d then hits %+d, want one miss then one hit",
						mid.Misses-before.Misses, after.Hits-mid.Hits)
				}

				if got := miss.Disassemble(); got != want {
					t.Errorf("cache-miss compile diverges from cold (%d vs %d bytes)\n%s",
						len(want), len(got), firstDiff(want, got))
				}
				// The hit clones the master the miss inserted; the clone
				// shares nothing, so it must be identical too.
				if got := hit.Disassemble(); got != want {
					t.Errorf("cache-hit compile diverges from cold\n%s", firstDiff(want, got))
				}
			})
		}
	}
}

// firstDiff renders the first disagreeing byte of two renderings.
func firstDiff(want, got string) string {
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			start := i - 40
			if start < 0 {
				start = 0
			}
			end := i + 40
			ew, eg := end, end
			if ew > len(want) {
				ew = len(want)
			}
			if eg > len(got) {
				eg = len(got)
			}
			return fmt.Sprintf("first divergence at byte %d:\n  want: %q\n   got: %q", i, want[start:ew], got[start:eg])
		}
	}
	return fmt.Sprintf("one output is a prefix of the other (%d vs %d bytes)", len(want), len(got))
}

// compileRecord is everything a compile leaves behind except timings: the
// disassembly, the explain journal, and the obs counters, gauges and
// per-phase span counts.
type compileRecord struct {
	asm      string
	journal  string
	counters []obs.Stat
	gauges   []obs.Stat
	spans    map[string]int64
}

// recordCompile compiles src under mode with a fresh obs session and explain
// journal installed, and returns what the compile recorded.
func recordCompile(t *testing.T, src string, mode Mode) compileRecord {
	t.Helper()
	obs.Begin(obs.Options{})
	defer obs.End()
	explain.Begin()
	defer explain.End()
	prog, err := Compile(src, mode)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	js, err := json.Marshal(explain.Current().Artifact())
	if err != nil {
		t.Fatal(err)
	}
	rep := prog.Report
	if rep == nil {
		t.Fatal("no CompileReport attached with a session active")
	}
	spans := map[string]int64{}
	for _, p := range rep.Phases {
		spans[p.Phase] = p.Count
	}
	return compileRecord{
		asm:      prog.Disassemble(),
		journal:  string(js),
		counters: rep.Counters,
		gauges:   rep.Gauges,
		spans:    spans,
	}
}

// TestCompileIndependentOfGOMAXPROCS: the compiler runs each compile on the
// calling goroutine, so the number of available procs must not show in
// anything it produces — code, explain journal, obs counters and gauges, or
// how many spans each phase closed.
func TestCompileIndependentOfGOMAXPROCS(t *testing.T) {
	nim := *benchprog.Lookup("nim")
	for _, p := range []benchprog.Benchmark{nim, benchprog.Large()} {
		t.Run(p.Name, func(t *testing.T) {
			// Warm the front cache so both recorded compiles are hits.
			if _, err := Compile(p.Source, ModeC()); err != nil {
				t.Fatal(err)
			}
			old := runtime.GOMAXPROCS(1)
			t.Cleanup(func() { runtime.GOMAXPROCS(old) })
			one := recordCompile(t, p.Source, ModeC())
			runtime.GOMAXPROCS(4)
			four := recordCompile(t, p.Source, ModeC())

			if one.asm != four.asm {
				t.Errorf("disassembly differs\n%s", firstDiff(one.asm, four.asm))
			}
			if one.journal != four.journal {
				t.Errorf("explain journal differs\n%s", firstDiff(one.journal, four.journal))
			}
			if !reflect.DeepEqual(one.counters, four.counters) {
				t.Errorf("obs counters differ:\nGOMAXPROCS=1: %v\nGOMAXPROCS=4: %v", one.counters, four.counters)
			}
			if !reflect.DeepEqual(one.gauges, four.gauges) {
				t.Errorf("obs gauges differ:\nGOMAXPROCS=1: %v\nGOMAXPROCS=4: %v", one.gauges, four.gauges)
			}
			if !reflect.DeepEqual(one.spans, four.spans) {
				t.Errorf("phase span counts differ:\nGOMAXPROCS=1: %v\nGOMAXPROCS=4: %v", one.spans, four.spans)
			}
		})
	}
}

// wideFlatSource builds a call graph with many independent leaves under one
// root: the most summaries one caller consults, and a large source for the
// front cache to build, insert and clone.
func wideFlatSource(leaves int) string {
	src := "var work [32]int;\n"
	for i := 0; i < leaves; i++ {
		src += fmt.Sprintf(`func w%d(x int) int {
    var i int;
    var s int;
    s = x + %d;
    for (i = 0; i < %d; i = i + 1) { s = s + i * %d; work[i %% 32] = s; }
    return s + work[%d];
}
`, i, i, 3+i%5, 1+i%3, i%32)
	}
	src += "func main() {\n    var t int;\n    t = 0;\n"
	for i := 0; i < leaves; i++ {
		src += fmt.Sprintf("    t = t + w%d(%d);\n", i, i)
	}
	src += "    print(t);\n}\n"
	return src
}

// TestPlanModuleWideCallGraphRace compiles a wide, flat call graph from
// several goroutines at once with one obs session installed — the
// concurrency chowd's request workers put on the compiler. Run under
// `go test -race` this drives the front cache's miss/insert/hit paths
// (every goroutine starts on a source the cache has never seen) and the
// shared session's registry through their contended paths. Every compile
// must match a cold one, and the session must account for every compile.
func TestPlanModuleWideCallGraphRace(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	src := cacheProbe(wideFlatSource(48), t.Name())
	coldMode := ModeC()
	coldMode.Sequential = true
	ref, err := Compile(src, coldMode)
	if err != nil {
		t.Fatalf("cold compile: %v", err)
	}
	want := ref.Disassemble()
	planned := ref.Plan.Funcs

	s := obs.Begin(obs.Options{Trace: true})
	defer obs.End()
	snap := s.Snap()

	const goroutines, iters = 4, 3
	start := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				prog, err := Compile(src, ModeC())
				if err != nil {
					errc <- fmt.Errorf("compile: %w", err)
					return
				}
				if got := prog.Disassemble(); got != want {
					errc <- fmt.Errorf("concurrent compile diverged (%d vs %d bytes)", len(got), len(want))
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	r := s.ReportSince(snap)
	const compiles = goroutines * iters
	if got := r.Counter("front.cache_hits") + r.Counter("front.cache_misses"); got != compiles {
		t.Errorf("front cache saw %d lookups, want %d", got, compiles)
	}
	if r.Counter("front.cache_misses") < 1 {
		t.Error("no compile missed the front cache on a fresh source")
	}
	if got, want := r.Counter("plan.funcs_planned"), int64(compiles*len(planned)); got != want {
		t.Errorf("plan.funcs_planned = %d, want %d", got, want)
	}
	if got := s.Events(); got == 0 {
		t.Error("shared session retained no trace events")
	}
}

// TestLargeProgramRuns pins down that the synthetic large program is valid,
// terminating CW whose compiled output matches the reference interpreter —
// so the compile benchmarks measure a real program.
func TestLargeProgramRuns(t *testing.T) {
	p := benchprog.Large()
	want, err := Interpret(p.Source)
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	prog, err := Compile(p.Source, ModeC())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := prog.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Output) != len(want) {
		t.Fatalf("output length %d, want %d", len(res.Output), len(want))
	}
	for i := range want {
		if res.Output[i] != want[i] {
			t.Fatalf("output[%d] = %d, want %d", i, res.Output[i], want[i])
		}
	}
}
