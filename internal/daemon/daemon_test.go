package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"chow88"
	"chow88/internal/obs"
)

const fibSrc = `
func fib(n int) int {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
func main() {
    print(fib(18));
    print(fib(10));
}
`

// fibSrcV2 edits only main, so an incremental rebuild reuses fib.
const fibSrcV2 = `
func fib(n int) int {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
func main() {
    print(fib(17));
    print(fib(10));
}
`

// slowSrc runs ~4e9 simple instructions: far past any test deadline, past
// the default instruction budget — a request for it only ends by limit.
const slowSrc = `
func spin(n int) int {
    var i int;
    var acc int;
    acc = 0;
    for (i = 0; i < n; i = i + 1) { acc = acc + i; }
    return acc;
}
func main() {
    var j int;
    var acc int;
    acc = 0;
    for (j = 0; j < 1000000; j = j + 1) { acc = acc + spin(1000); }
    print(acc);
}
`

func testCtx(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := testCtx(5 * time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (int, http.Header, *Response) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var r Response
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatalf("POST %s: decode response: %v", url, err)
	}
	return resp.StatusCode, resp.Header, &r
}

func reqBody(t *testing.T, req Request) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRunMatchesOracle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	status, _, r := postJSON(t, ts.URL+"/run", reqBody(t, Request{Source: fibSrc}))
	if status != 200 || !r.OK {
		t.Fatalf("run: status %d, resp %+v", status, r)
	}
	want, err := chow88.Interpret(fibSrc)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if fmt.Sprint(r.Output) != fmt.Sprint(want) {
		t.Errorf("output %v, oracle %v", r.Output, want)
	}
	if r.Stats == nil || r.Stats.Cycles <= 0 || r.Stats.Calls <= 0 {
		t.Errorf("missing run stats: %+v", r.Stats)
	}
	if r.Mode != "O3+sw" {
		t.Errorf("default mode = %q, want O3+sw", r.Mode)
	}
}

func TestCompileModesAndDisasm(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	off := false
	status, _, r := postJSON(t, ts.URL+"/compile", reqBody(t, Request{
		Source: fibSrc, Opt: "O2", ShrinkWrap: &off, Regs: "caller7", Disasm: true,
	}))
	if status != 200 || !r.OK {
		t.Fatalf("compile: status %d, resp %+v", status, r)
	}
	if r.Mode != "O2/caller7" {
		t.Errorf("mode = %q, want O2/caller7", r.Mode)
	}
	if r.Funcs != 2 || r.CodeWords <= 0 || r.Disasm == "" {
		t.Errorf("compile facts wrong: funcs=%d words=%d disasm=%d bytes", r.Funcs, r.CodeWords, len(r.Disasm))
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 4096, MaxSourceLines: 50})
	cases := []struct {
		name, endpoint, body string
		status               int
		class                string
	}{
		{"malformed", "/compile", `{`, 400, "malformed-json"},
		{"unknown field", "/compile", `{"source":"func main() { print(1); }","nope":1}`, 400, "unknown-field"},
		{"missing source", "/compile", `{}`, 400, "missing-source"},
		{"trailing data", "/compile", `{"source":"x"} {"source":"y"}`, 400, "trailing-data"},
		{"bad engine", "/run", `{"source":"func main() { print(1); }","engine":"turbo"}`, 400, "bad-engine"},
		{"native engine", "/run", `{"source":"func main() { print(1); }","engine":"native"}`, 400, "bad-engine"},
		{"bad opt", "/compile", `{"source":"func main() { print(1); }","opt":"O9"}`, 400, "bad-opt"},
		{"bad regs", "/compile", `{"source":"func main() { print(1); }","regs":"zero"}`, 400, "bad-regs"},
		{"negative timeout", "/compile", `{"source":"func main() { print(1); }","timeout_ms":-1}`, 400, "bad-timeout"},
		{"missing client", "/compile-incremental", `{"source":"func main() { print(1); }"}`, 400, "missing-client"},
		{"oversized body", "/compile", fmt.Sprintf(`{"source":%q}`, strings.Repeat("// padding\n", 600)), 413, "too-large"},
		{"too many lines", "/compile", fmt.Sprintf(`{"source":%q}`, strings.Repeat("//x\n", 60)), 413, "too-large"},
		{"parse error", "/compile", `{"source":"func main( {"}`, 422, "parse error"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, _, r := postJSON(t, ts.URL+c.endpoint, c.body)
			if status != c.status {
				t.Errorf("status = %d, want %d (resp %+v)", status, c.status, r)
			}
			if r.OK || r.Error == nil || r.Error.Class != c.class {
				t.Errorf("error = %+v, want class %q", r.Error, c.class)
			}
		})
	}
	if status, _, _ := getStatus(t, ts.URL+"/compile"); status != 405 {
		t.Errorf("GET /compile = %d, want 405", status)
	}
}

func getStatus(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b
}

func TestDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	start := time.Now()
	status, _, r := postJSON(t, ts.URL+"/run", reqBody(t, Request{Source: slowSrc, TimeoutMS: 300}))
	if status != 504 {
		t.Fatalf("slow run: status %d (resp %+v), want 504", status, r)
	}
	if r.Error == nil || r.Error.Class != "deadline" {
		t.Errorf("error = %+v, want class deadline", r.Error)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("deadline enforcement took %v", el)
	}
}

func TestQueueBackpressure(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	slow := reqBody(t, Request{Source: slowSrc, TimeoutMS: 1500})

	var wg sync.WaitGroup
	statuses := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, _, _ := postJSON(t, ts.URL+"/run", slow)
			statuses[i] = st
		}(i)
		time.Sleep(150 * time.Millisecond) // let it reach worker/queue
	}
	status, hdr, r := postJSON(t, ts.URL+"/run", slow)
	if status != 429 {
		t.Fatalf("third concurrent slow run: status %d (resp %+v), want 429", status, r)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("429 Retry-After = %q, want a positive integer", hdr.Get("Retry-After"))
	}
	if r.Error == nil || r.Error.Class != "queue-full" {
		t.Errorf("error = %+v, want class queue-full", r.Error)
	}
	wg.Wait()
	for i, st := range statuses {
		if st != 504 {
			t.Errorf("slow request %d: status %d, want 504 (deadline)", i, st)
		}
	}
	_, _, metrics := getStatus(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "daemon.rejected_queue_full") {
		t.Errorf("metrics missing rejection counter:\n%s", metrics)
	}
}

func TestIncremental(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, MaxClients: 2})
	status, _, r := postJSON(t, ts.URL+"/compile-incremental", reqBody(t, Request{Source: fibSrc, Client: "alice"}))
	if status != 200 || !r.OK {
		t.Fatalf("first build: status %d, resp %+v", status, r)
	}
	if r.Incremental {
		t.Errorf("first build claims incremental (reason %q)", r.FallbackReason)
	}
	status, _, r = postJSON(t, ts.URL+"/compile-incremental", reqBody(t, Request{Source: fibSrcV2, Client: "alice"}))
	if status != 200 || !r.OK {
		t.Fatalf("second build: status %d, resp %+v", status, r)
	}
	if !r.Incremental || r.Reused < 1 {
		t.Errorf("edit to main should reuse fib: %+v", r)
	}

	// Two more clients overflow MaxClients=2 and evict the oldest slot.
	for _, c := range []string{"bob", "carol"} {
		if st, _, rr := postJSON(t, ts.URL+"/compile-incremental", reqBody(t, Request{Source: fibSrc, Client: c})); st != 200 {
			t.Fatalf("client %s: status %d, resp %+v", c, st, rr)
		}
	}
	if n := s.states.entries(); n > 2 {
		t.Errorf("state table holds %d clients, cap 2", n)
	}
	_, _, metrics := getStatus(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "daemon.state_evictions") {
		t.Errorf("metrics missing state eviction counter:\n%s", metrics)
	}
}

// TestIncrementalSaveFailure puts a directory at a client's statefile
// path, so every load is rejected and every save fails (a read-only
// directory would not stop root). Each request must still answer 200 with
// a full rebuild, and each failed save must count in
// daemon.state_save_errors.
func TestIncrementalSaveFailure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	if err := os.Mkdir(s.states.statePath("dana"), 0o755); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		status, _, r := postJSON(t, ts.URL+"/compile-incremental", reqBody(t, Request{Source: fibSrc, Client: "dana"}))
		if status != 200 || !r.OK || r.Incremental {
			t.Fatalf("round %d: status %d, resp %+v; want a 200 full rebuild", round, status, r)
		}
		if !strings.Contains(r.FallbackReason, "statefile rejected") {
			t.Errorf("round %d: fallback reason %q, want statefile rejection", round, r.FallbackReason)
		}
		_, _, metrics := getStatus(t, ts.URL+"/metrics")
		if want := fmt.Sprintf("daemon.state_save_errors %d\n", round); !strings.Contains(string(metrics), want) {
			t.Errorf("round %d: /metrics lacks %q:\n%s", round, want, metrics)
		}
	}
}

func TestMetricsTraceHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if st, _, r := postJSON(t, ts.URL+"/run", reqBody(t, Request{Source: fibSrc})); st != 200 {
		t.Fatalf("warmup run: %d %+v", st, r)
	}
	st, _, metrics := getStatus(t, ts.URL+"/metrics")
	if st != 200 {
		t.Fatalf("/metrics: %d", st)
	}
	for _, want := range []string{"daemon.uptime_ns", "daemon.accepted 1", "daemon.queue_depth", "phase.compile"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	st, _, trace := getStatus(t, ts.URL+"/trace")
	if st != 200 || !bytes.Contains(trace, []byte("traceEvents")) {
		t.Errorf("/trace: status %d, body %.80s", st, trace)
	}
	st, _, hz := getStatus(t, ts.URL+"/healthz")
	if st != 200 || !bytes.Contains(hz, []byte(`"ok":true`)) {
		t.Errorf("/healthz: status %d, body %s", st, hz)
	}
}

// TestRetryAfterDerivation pins the backoff arithmetic: the 429 hint tracks
// one queue turnover at the observed job latency (capped at the request
// budget), and the 503 hint tracks the drain window's remainder.
func TestRetryAfterDerivation(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, QueueDepth: 8, MaxTimeout: 30 * time.Second})

	// No completed jobs yet: nothing to extrapolate from, minimal backoff.
	if got := s.retryAfter(http.StatusTooManyRequests); got != 1 {
		t.Errorf("429 with no history = %d, want 1", got)
	}
	// Three jobs at 3s each: an empty queue still waits out the one job
	// ahead of it, ceil((0/2+1)*3s) = 3.
	s.jobNanos.Store(int64(9 * time.Second))
	s.jobCount.Store(3)
	if got := s.retryAfter(http.StatusTooManyRequests); got != 3 {
		t.Errorf("429 at 3s/job = %d, want 3", got)
	}
	// Pathological latency history never hints past the request budget cap.
	s.jobNanos.Store(int64(300 * time.Second))
	s.jobCount.Store(1)
	if got := s.retryAfter(http.StatusTooManyRequests); got != 30 {
		t.Errorf("429 capped = %d, want 30 (MaxTimeout)", got)
	}
	// Draining with a deadline: the window's remainder.
	s.mu.Lock()
	s.drainUntil = time.Now().Add(7 * time.Second)
	s.mu.Unlock()
	if got := s.retryAfter(http.StatusServiceUnavailable); got < 5 || got > 7 {
		t.Errorf("503 with 7s drain window = %d, want ~6", got)
	}
	// Draining without a deadline: minimal hint, never zero or negative.
	s.mu.Lock()
	s.drainUntil = time.Time{}
	s.mu.Unlock()
	if got := s.retryAfter(http.StatusServiceUnavailable); got != 1 {
		t.Errorf("503 without deadline = %d, want 1", got)
	}
}

func TestShutdownDrains(t *testing.T) {
	s, err := NewServer(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the worker, then shut down while it runs.
	inflight := make(chan int, 1)
	go func() {
		st, _, _ := postJSON(t, ts.URL+"/run", reqBody(t, Request{Source: slowSrc, TimeoutMS: 1200}))
		inflight <- st
	}()
	time.Sleep(300 * time.Millisecond)

	ctx, cancel := testCtx(10 * time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()
	time.Sleep(100 * time.Millisecond)

	// New work during the drain is refused with 503.
	st, hdr, r := postJSON(t, ts.URL+"/compile", reqBody(t, Request{Source: fibSrc}))
	if st != 503 || r.Error == nil || r.Error.Class != "draining" {
		t.Errorf("during drain: status %d, error %+v, want 503/draining", st, r.Error)
	}
	// The hint is the drain window's remainder (ctx has ~10s left), not the
	// old hardcoded second: retrying any sooner just meets the corpse again.
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 2 || ra > 10 {
		t.Errorf("503 Retry-After = %q, want the drain remainder in [2,10]", hdr.Get("Retry-After"))
	}

	// The in-flight request completes (its own deadline answers it).
	if st := <-inflight; st != 504 {
		t.Errorf("in-flight request: status %d, want 504", st)
	}
	if err := <-done; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestShutdownEndsObsSession holds Shutdown to uninstalling the process-wide
// obs session NewServer installed, so nothing timed after the daemon is
// gone keeps being traced — but never a newer session someone else began.
func TestShutdownEndsObsSession(t *testing.T) {
	defer obs.End()
	shutdown := func(s *Server) {
		t.Helper()
		ctx, cancel := testCtx(5 * time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	}

	s, err := NewServer(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if obs.Current() != s.obs {
		t.Fatal("NewServer did not install its obs session")
	}
	shutdown(s)
	if obs.Current() != nil {
		t.Fatal("obs session still installed after Shutdown")
	}

	s, err = NewServer(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	newer := obs.Begin(obs.Options{})
	shutdown(s)
	if obs.Current() != newer {
		t.Fatal("Shutdown uninstalled a session it did not install")
	}
}
