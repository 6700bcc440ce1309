package obs

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestNamesComplete catches a counter/gauge/phase added without a name table
// entry (an empty name would silently vanish from reports).
func TestNamesComplete(t *testing.T) {
	for c := Counter(0); c < NumCounters; c++ {
		if c.Name() == "" {
			t.Errorf("counter %d has no name", c)
		}
	}
	for g := Gauge(0); g < NumGauges; g++ {
		if g.Name() == "" {
			t.Errorf("gauge %d has no name", g)
		}
	}
	for p := Phase(0); p < NumPhases; p++ {
		if p.Name() == "" {
			t.Errorf("phase %d has no name", p)
		}
	}
}

// TestReportSince checks that reports diff the registry over the snapshot
// window: activity before the snapshot is excluded and gauges read
// end-of-window values.
func TestReportSince(t *testing.T) {
	s := NewSession(Options{})
	s.Add(CSimRunsFast, 3)
	s.SetMax(GDaemonQueueHigh, 5)
	snap := s.Snap()

	s.Add(CSimRunsFast, 2)
	s.Add(CFrontCacheHit, 1)
	s.SetMax(GDaemonQueueHigh, 4) // below the recorded max: no effect

	r := s.ReportSince(snap)
	if got := r.Counter("sim.runs_fast"); got != 2 {
		t.Errorf("sim.runs_fast diff = %d, want 2", got)
	}
	if got := r.Counter("front.cache_hits"); got != 1 {
		t.Errorf("front.cache_hits diff = %d, want 1", got)
	}
	if got := r.Gauge("daemon.queue_high_water"); got != 5 {
		t.Errorf("gauge = %d, want high-water 5", got)
	}
	if r.WallNanos <= 0 {
		t.Errorf("WallNanos = %d, want > 0", r.WallNanos)
	}
}

func TestSpanPhaseTimers(t *testing.T) {
	s := NewSession(Options{})
	snap := s.Snap()
	sp := s.Span(PhaseParse, "parse")
	time.Sleep(time.Millisecond)
	sp.End()
	s.Span(PhaseParse, "parse again").End()

	r := s.ReportSince(snap)
	var ps *PhaseStat
	for i := range r.Phases {
		if r.Phases[i].Phase == "parse" {
			ps = &r.Phases[i]
		}
	}
	if ps == nil {
		t.Fatalf("no parse phase in report: %+v", r.Phases)
	}
	if ps.Count != 2 {
		t.Errorf("parse span count = %d, want 2", ps.Count)
	}
	if ps.Nanos < int64(time.Millisecond) {
		t.Errorf("parse phase time = %d ns, want >= 1ms", ps.Nanos)
	}
	if got := r.PhaseNanos("parse"); got != ps.Nanos {
		t.Errorf("PhaseNanos = %d, want %d", got, ps.Nanos)
	}
}

// TestTraceJSON round-trips the trace through encoding/json and checks the
// trace_event invariants tracelint enforces.
func TestTraceJSON(t *testing.T) {
	s := NewSession(Options{Trace: true})
	s.Span(PhaseCompile, "Compile test").End()
	s.Span(PhaseCodegen, "f").End()

	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Cat  string   `json:"cat"`
			Ph   string   `json:"ph"`
			TS   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			TID  int      `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if f.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", f.DisplayTimeUnit)
	}
	spans := 0
	for _, e := range f.TraceEvents {
		if e.Name == "" || e.Ph == "" {
			t.Errorf("event missing name/ph: %+v", e)
		}
		if e.Ph != "X" {
			continue
		}
		spans++
		if e.TS == nil || *e.TS < 0 || e.Dur == nil || *e.Dur < 0 {
			t.Errorf("span %q has bad ts/dur: %+v", e.Name, e)
		}
		if e.TID != 0 {
			t.Errorf("span %q: tid=%d, want 0 (one timeline)", e.Name, e.TID)
		}
		if e.Name == "f" && e.Cat != "codegen" {
			t.Errorf("span f: cat=%q, want codegen", e.Cat)
		}
	}
	if spans != 2 {
		t.Errorf("trace has %d spans, want 2", spans)
	}
}

// TestNilSafety exercises every entry point on a nil session; any panic
// fails the test.
func TestNilSafety(t *testing.T) {
	var s *Session
	s.Add(CSimRunsFast, 1)
	s.SetMax(GDaemonQueueHigh, 4)
	s.Span(PhaseRun, "r").End()
	(Span{}).End()
	snap := s.Snap()
	if r := s.ReportSince(snap); r != nil {
		t.Errorf("nil session ReportSince = %+v, want nil", r)
	}
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Errorf("nil session trace is invalid JSON: %s", buf.String())
	}
	var nilR *Report
	var nilCR *CompileReport
	var nilRR *RunReport
	if nilR.Table() != "" || nilCR.Table() != "" || nilRR.Table() != "" {
		t.Error("nil report Table() should be empty")
	}
	if nilR.Counter("x") != 0 || nilR.Gauge("x") != 0 || nilR.PhaseNanos("x") != 0 {
		t.Error("nil report lookups should be zero")
	}
}

// disabledPath is the instrumentation sequence a hot call site executes when
// no session is installed.
func disabledPath() {
	s := Current()
	s.Add(CSimBlockEntries, 1)
	s.SetMax(GDaemonQueueHigh, 9)
	sp := s.Span(PhaseRun, "run")
	sp.End()
}

// TestObsDisabledAllocFree holds the disabled path to zero allocations —
// the property that lets instrumentation live in the pipeline permanently.
func TestObsDisabledAllocFree(t *testing.T) {
	prev := End()
	defer current.Store(prev)
	if n := testing.AllocsPerRun(1000, disabledPath); n != 0 {
		t.Errorf("disabled obs path allocates %.1f objects per op, want 0", n)
	}
}

func BenchmarkObsDisabled(b *testing.B) {
	prev := End()
	defer current.Store(prev)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		disabledPath()
	}
}

// TestConcurrentRegistry hammers the atomic registry from several goroutines
// (run with -race in CI).
func TestConcurrentRegistry(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	s := NewSession(Options{Trace: true})
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.Add(CCodegenFuncs, 1)
				s.SetMax(GDaemonBusyHigh, int64(w))
			}
			s.Span(PhaseCodegen, "w").End()
		}(w)
	}
	wg.Wait()
	r := s.ReportSince(Snapshot{})
	if got := r.Counter("codegen.funcs_emitted"); got != workers*each {
		t.Errorf("funcs_emitted = %d, want %d", got, workers*each)
	}
	if got := r.Gauge("daemon.busy_workers_high_water"); got != workers-1 {
		t.Errorf("busy-workers gauge = %d, want %d", got, workers-1)
	}
}

// TestTableRenders sanity-checks the human-readable forms.
func TestTableRenders(t *testing.T) {
	s := NewSession(Options{})
	snap := s.Snap()
	s.Add(CSimRunsFast, 1)
	s.Span(PhaseRun, "run").End()
	rr := &RunReport{
		Report:    *s.ReportSince(snap),
		Engine:    "reference",
		SuperHits: []Stat{{Name: "LW", Value: 5}},
	}
	rr.FallbackReason = "verify failed"
	out := rr.Table()
	for _, want := range []string{"engine=reference", "fallback: verify failed", "sim.runs_fast", "LW"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("RunReport.Table() missing %q:\n%s", want, out)
		}
	}
	cr := &CompileReport{Report: *s.ReportSince(snap), Training: s.ReportSince(snap)}
	out = cr.Table()
	for _, want := range []string{"compile:", "training build+run:", "wall time"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("CompileReport.Table() missing %q:\n%s", want, out)
		}
	}
}
