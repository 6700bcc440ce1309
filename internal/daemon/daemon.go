// Package daemon is chowd's engine: a hardened compile-as-a-service server
// exposing the chow88 pipeline over HTTP+JSON.
//
// Every design choice serves one property: a misbehaving request — too
// big, too slow, malformed, panic-inducing, or deadline-blowing — degrades
// into a structured error for that request alone, while concurrent healthy
// requests keep getting byte-identical-to-oracle answers. Concretely:
//
//   - Admission control: a bounded worker pool fed by a bounded queue.
//     When the queue is full the request is refused immediately with 429
//     and Retry-After — the daemon never accumulates unbounded goroutines
//     or latency it cannot pay.
//   - Deadlines: every request carries a wall-clock budget (default or
//     client-chosen, capped) that covers queue wait, compile (checked at
//     pipeline stage boundaries) and simulation (sim.Options.Deadline).
//   - Input limits: request bodies are size-capped before JSON decoding,
//     sources are line-capped after, and the HTTP server's read timeouts
//     starve slow-client (slowloris) connections.
//   - Panic containment: each unit of work runs under recover; a poisoned
//     unit yields a structured 500 and the worker moves on.
//   - Incremental state: per-client statefiles under an LRU cap, each
//     serialized by a single-writer lock, evicted only when idle.
//   - Graceful shutdown: draining refuses new work with 503 while
//     in-flight and queued work completes under a drain deadline.
package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"chow88/internal/classify"
	"chow88/internal/faultinject"
	"chow88/internal/mcode"
	"chow88/internal/obs"
	"chow88/internal/pipeline"
	"chow88/internal/sim"
)

// Config tunes the server. The zero value of every field selects a
// production-shaped default (see fill).
type Config struct {
	// Workers is the compile worker pool size.
	Workers int
	// QueueDepth is the admission queue capacity; a full queue answers 429.
	QueueDepth int
	// MaxBodyBytes caps the request body; MaxSourceLines caps the decoded
	// program's line count.
	MaxBodyBytes   int64
	MaxSourceLines int
	// DefaultTimeout is the per-request wall-clock budget when the request
	// names none; MaxTimeout caps what a request may ask for.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// ReadHeaderTimeout/ReadTimeout bound how long a client may take to
	// deliver its request (slowloris defense).
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	// StateDir holds per-client incremental statefiles; empty means a
	// fresh temporary directory owned (and removed at Shutdown) by the
	// server. MaxClients caps the statefile count via LRU eviction.
	StateDir   string
	MaxClients int
	// TraceCap bounds retained trace events (obs.Options.TraceCap); a
	// long-lived process must not grow its trace buffer without limit.
	TraceCap int
}

func (c *Config) fill() {
	if c.Workers < 1 {
		c.Workers = 4
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxSourceLines <= 0 {
		c.MaxSourceLines = 20000
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.ReadHeaderTimeout <= 0 {
		c.ReadHeaderTimeout = 5 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 15 * time.Second
	}
	if c.MaxClients < 1 {
		c.MaxClients = 64
	}
	if c.TraceCap <= 0 {
		c.TraceCap = 4096
	}
}

// Server is one daemon instance. Create with NewServer, attach listeners
// with Serve, stop with Shutdown.
type Server struct {
	cfg     Config
	obs     *obs.Session
	base    obs.Snapshot
	httpSrv *http.Server
	states  *stateTable

	queue chan *job
	wg    sync.WaitGroup // workers
	busy  atomic.Int64

	// jobNanos/jobCount accumulate completed-job wall time, the latency
	// estimate behind the 429 Retry-After hint.
	jobNanos atomic.Int64
	jobCount atomic.Int64

	mu          sync.RWMutex // guards draining and sends into queue
	draining    bool
	drainUntil  time.Time // Shutdown ctx's deadline, zero if none
	ownStateDir bool
}

type job struct {
	endpoint string
	ctx      context.Context
	run      func(ctx context.Context) (int, *Response)
	done     chan jobResult // buffered(1): the worker never blocks on a lost client
}

type jobResult struct {
	status int
	resp   *Response
}

// NewServer builds and starts a server (workers running, no listeners
// yet). It installs a fresh obs session as the process-wide current one so
// the whole pipeline's metrics land in /metrics; Shutdown uninstalls it.
func NewServer(cfg Config) (*Server, error) {
	cfg.fill()
	s := &Server{cfg: cfg}
	if cfg.StateDir == "" {
		dir, err := os.MkdirTemp("", "chowd-state-")
		if err != nil {
			return nil, fmt.Errorf("daemon: state dir: %w", err)
		}
		s.cfg.StateDir = dir
		s.ownStateDir = true
	} else if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("daemon: state dir: %w", err)
	}
	// The daemon is its state directory's only writer; leftover lockfiles
	// are debris from a crashed predecessor and would wedge every Save.
	clearStaleLocks(s.cfg.StateDir)

	s.obs = obs.Begin(obs.Options{Trace: true, TraceCap: cfg.TraceCap})
	s.base = s.obs.Snap()
	s.states = newStateTable(s.cfg.StateDir, cfg.MaxClients, s.obs)
	s.queue = make(chan *job, cfg.QueueDepth)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/compile", func(w http.ResponseWriter, r *http.Request) {
		s.serveWork(w, r, "compile", nil, s.compileWork)
	})
	mux.HandleFunc("/compile-incremental", func(w http.ResponseWriter, r *http.Request) {
		s.serveWork(w, r, "compile-incremental", requireClient, s.incrementalWork)
	})
	mux.HandleFunc("/run", func(w http.ResponseWriter, r *http.Request) {
		s.serveWork(w, r, "run", nil, s.runWork)
	})
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/healthz", s.handleHealthz)
	s.httpSrv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: cfg.ReadHeaderTimeout,
		ReadTimeout:       cfg.ReadTimeout,
	}
	return s, nil
}

// Handler exposes the daemon's HTTP surface (tests drive it directly).
func (s *Server) Handler() http.Handler { return s.httpSrv.Handler }

// Serve accepts connections on ln until Shutdown. It may be called once
// per listener (TCP and unix socket concurrently).
func (s *Server) Serve(ln net.Listener) error { return s.httpSrv.Serve(ln) }

// Shutdown drains the daemon: new work is refused with 503 immediately,
// queued and in-flight work completes, and listeners close — all under
// ctx's deadline. A drain that outlives ctx returns the deadline error
// with work still running (the process is expected to exit anyway).
// Shutdown also uninstalls the server's obs session unless another session
// has replaced it since NewServer; /metrics and /trace keep reading it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	if !already {
		s.draining = true
		if dl, ok := ctx.Deadline(); ok {
			s.drainUntil = dl
		}
		// Safe: every sender holds mu.RLock and re-checks draining first.
		close(s.queue)
	}
	s.mu.Unlock()

	var err error
	if !already {
		drained := make(chan struct{})
		go func() { s.wg.Wait(); close(drained) }()
		select {
		case <-drained:
		case <-ctx.Done():
			err = fmt.Errorf("daemon: drain deadline: %w", ctx.Err())
		}
	}
	if serr := s.httpSrv.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	if s.ownStateDir {
		os.RemoveAll(s.cfg.StateDir)
	}
	obs.EndIf(s.obs)
	return err
}

// serveWork is the shared request path: decode → validate → admit → await.
func (s *Server) serveWork(w http.ResponseWriter, r *http.Request, endpoint string,
	pre func(*Request) *ReqError, work func(context.Context, *Request) (int, *Response)) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, reqErrorResponse(
			&ReqError{http.StatusMethodNotAllowed, "method-not-allowed", endpoint + " takes POST"}))
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	req, rerr := DecodeRequest(body, Limits{MaxBodyBytes: s.cfg.MaxBodyBytes, MaxSourceLines: s.cfg.MaxSourceLines})
	if rerr == nil && pre != nil {
		rerr = pre(req)
	}
	if rerr != nil {
		if rerr.Status == http.StatusRequestEntityTooLarge {
			s.obs.Add(obs.CDaemonRejectedSize, 1)
		} else {
			s.obs.Add(obs.CDaemonBadRequests, 1)
		}
		writeJSON(w, rerr.Status, reqErrorResponse(rerr))
		return
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	j := &job{endpoint: endpoint, ctx: ctx, done: make(chan jobResult, 1)}
	j.run = func(ctx context.Context) (int, *Response) { return work(ctx, req) }
	if res, admitted := s.admit(j); !admitted {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter(res.status)))
		writeJSON(w, res.status, res.resp)
		return
	}
	select {
	case res := <-j.done:
		if res.status == http.StatusGatewayTimeout {
			s.obs.Add(obs.CDaemonDeadlines, 1)
		}
		writeJSON(w, res.status, res.resp)
	case <-r.Context().Done():
		// Client gone; the worker's answer lands in the buffered channel
		// and is discarded, and ctx's cancellation (derived from the
		// request context) unwinds any compile still running.
	}
}

func requireClient(req *Request) *ReqError {
	if req.Client == "" {
		return &ReqError{http.StatusBadRequest, "missing-client", `"client" is required on /compile-incremental`}
	}
	return nil
}

// retryAfter derives the Retry-After hint (seconds, >= 1) for a refusal.
// Draining (503): retrying against this process is futile until it is gone,
// so the hint is the drain window's remainder — a client that waits that
// long talks to the replacement, not the corpse. Queue full (429): the hint
// is one full queue turnover through the worker pool at the observed mean
// job latency, so a saturated daemon paces clients to its actual drain rate
// instead of inviting an immediate second refusal.
func (s *Server) retryAfter(status int) int {
	if status == http.StatusServiceUnavailable {
		s.mu.RLock()
		until := s.drainUntil
		s.mu.RUnlock()
		if sec := int(time.Until(until) / time.Second); sec > 1 {
			return sec
		}
		return 1
	}
	mean := time.Duration(0)
	if n := s.jobCount.Load(); n > 0 {
		mean = time.Duration(s.jobNanos.Load() / n)
	}
	turnover := time.Duration(len(s.queue)/s.cfg.Workers+1) * mean
	sec := int((turnover + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	if lim := int(s.cfg.MaxTimeout / time.Second); sec > lim && lim >= 1 {
		sec = lim
	}
	return sec
}

// admit places j in the queue or refuses it (429 queue full, 503
// draining). It never blocks: backpressure is the client's problem to
// pace, not the daemon's to buffer.
func (s *Server) admit(j *job) (jobResult, bool) {
	s.mu.RLock()
	if s.draining {
		s.mu.RUnlock()
		s.obs.Add(obs.CDaemonDrainRefusals, 1)
		return jobResult{http.StatusServiceUnavailable, reqErrorResponse(
			&ReqError{http.StatusServiceUnavailable, "draining", "daemon is shutting down"})}, false
	}
	select {
	case s.queue <- j:
		s.obs.Add(obs.CDaemonAccepted, 1)
		s.obs.SetMax(obs.GDaemonQueueHigh, int64(len(s.queue)))
		s.mu.RUnlock()
		return jobResult{}, true
	default:
		s.mu.RUnlock()
		s.obs.Add(obs.CDaemonRejectedQueue, 1)
		return jobResult{http.StatusTooManyRequests, reqErrorResponse(
			&ReqError{http.StatusTooManyRequests, "queue-full", "admission queue is full; retry"})}, false
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		j.done <- s.runJob(j)
	}
}

// runJob executes one unit of work with panic containment: a poisoned unit
// becomes a structured 500, the worker survives to take the next job.
func (s *Server) runJob(j *job) (res jobResult) {
	defer func() {
		if p := recover(); p != nil {
			s.obs.Add(obs.CDaemonPanics, 1)
			res = jobResult{http.StatusInternalServerError, &Response{OK: false, Error: &ErrorInfo{
				Class: "internal error", ExitCode: classify.ExitInternal,
				Detail: fmt.Sprintf("worker panic (recovered): %v", p),
			}}}
		}
	}()
	if j.ctx.Err() != nil { // budget spent waiting in the queue
		return jobResult{http.StatusGatewayTimeout, deadlineResponse(j.ctx.Err())}
	}
	s.obs.SetMax(obs.GDaemonBusyHigh, s.busy.Add(1))
	defer s.busy.Add(-1)
	t0 := time.Now()
	defer func() {
		s.jobNanos.Add(int64(time.Since(t0)))
		s.jobCount.Add(1)
	}()
	if faultinject.Armed() {
		faultinject.PanicDaemonWorker(j.endpoint)
	}
	status, resp := j.run(j.ctx)
	return jobResult{status, resp}
}

func deadlineResponse(err error) *Response {
	return &Response{OK: false, Error: &ErrorInfo{
		Class: "deadline", ExitCode: classify.ExitDeadline,
		Detail: fmt.Sprintf("request deadline exceeded: %v", err),
	}}
}

// compile is the shared compile step: pipeline.Compile (cached front end
// plus the validated pipeline) under ctx's deadline, spanned as "daemon
// compile <mode>" on the server's session (the current one). The compile's
// report is ignored: concurrent workers share the session. On success it
// fills a response with the compile-shaped fields and also returns the
// machine code for endpoints that go on to execute it.
func (s *Server) compile(ctx context.Context, req *Request) (*Response, *mcode.Program, int, *Response) {
	mode, rerr := req.Mode()
	if rerr != nil { // unreachable: DecodeRequest validated; defense in depth
		return nil, nil, rerr.Status, reqErrorResponse(rerr)
	}
	c, err := pipeline.Compile(ctx, req.Source, mode, "daemon compile")
	if err != nil {
		status, resp := errorResponse(err)
		return nil, nil, status, resp
	}
	resp := &Response{OK: true, Mode: mode.Name, Funcs: len(c.Plan.Funcs), CodeWords: len(c.Code.Code)}
	for _, d := range c.Demotions {
		resp.Demotions = append(resp.Demotions, d.String())
	}
	if req.Disasm {
		resp.Disasm = c.Code.Disassemble()
	}
	return resp, c.Code, 0, nil
}

// compileWork compiles the source and describes the result.
func (s *Server) compileWork(ctx context.Context, req *Request) (int, *Response) {
	resp, _, status, errResp := s.compile(ctx, req)
	if errResp != nil {
		return status, errResp
	}
	return http.StatusOK, resp
}

// runWork compiles and executes, passing the deadline's remainder to the
// simulator so a long-running program can't outlive its request budget.
func (s *Server) runWork(ctx context.Context, req *Request) (int, *Response) {
	resp, code, status, errResp := s.compile(ctx, req)
	if errResp != nil {
		return status, errResp
	}
	opts := sim.Options{MaxInstrs: req.MaxInstrs, Engine: req.Engine}
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			return http.StatusGatewayTimeout, deadlineResponse(context.DeadlineExceeded)
		}
		opts.Deadline = rem
	}
	res, err := sim.Run(code, opts)
	if err != nil {
		return errorResponse(err)
	}
	resp.Output = res.Output
	if resp.Output == nil {
		resp.Output = []int64{} // a silent program still answers with an output field
	}
	resp.Engine = res.Engine
	resp.Stats = &Stats{
		Cycles: res.Stats.Cycles, Instrs: res.Stats.Instrs, Calls: res.Stats.Calls,
		Loads: res.Stats.Loads, Stores: res.Stats.Stores, LinkageCycles: res.Stats.LinkageCycles,
	}
	return http.StatusOK, resp
}

// incrementalWork compiles against the client's statefile under its
// single-writer lock. A missing/corrupt/mismatched statefile degrades to a
// full rebuild (never a wrong program) with the reason reported.
func (s *Server) incrementalWork(ctx context.Context, req *Request) (int, *Response) {
	mode, rerr := req.Mode()
	if rerr != nil {
		return rerr.Status, reqErrorResponse(rerr)
	}
	cs := s.states.acquire(req.Client)
	defer s.states.release(cs)
	cs.mu.Lock()
	defer cs.mu.Unlock()

	c, err := pipeline.CompileIncremental(ctx, req.Source, mode, cs.path, "daemon compile-incremental")
	if err != nil {
		return errorResponse(err)
	}
	if c.SaveErr != nil {
		// Non-fatal: the next round pays a full rebuild. A locked
		// statefile here would be a daemon bug (cs.mu serializes
		// writers), so surface it in metrics either way.
		s.obs.AddLabeled("daemon.state_save_errors", 1)
	}
	resp := &Response{OK: true, Mode: mode.Name, Funcs: len(c.Plan.Funcs), CodeWords: len(c.Code.Code),
		Incremental: c.Incremental, FallbackReason: c.FallbackReason,
		Reused: c.Reused, Replanned: c.Replanned}
	for _, d := range c.Demotions {
		resp.Demotions = append(resp.Demotions, d.String())
	}
	if req.Disasm {
		resp.Disasm = c.Code.Disassemble()
	}
	return http.StatusOK, resp
}

// handleMetrics renders the daemon-lifetime metrics window as plain text,
// one "name value" pair per line.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rep := s.obs.ReportSince(s.base)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "daemon.uptime_ns %d\n", rep.WallNanos)
	fmt.Fprintf(w, "daemon.queue_depth %d\n", len(s.queue))
	fmt.Fprintf(w, "daemon.busy_workers %d\n", s.busy.Load())
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	fmt.Fprintf(w, "daemon.draining %d\n", boolInt(draining))
	fmt.Fprintf(w, "daemon.state_clients %d\n", s.states.entries())
	fmt.Fprintf(w, "daemon.trace_dropped %d\n", s.obs.TraceDropped())
	for _, c := range rep.Counters {
		fmt.Fprintf(w, "%s %d\n", c.Name, c.Value)
	}
	for _, g := range rep.Gauges {
		fmt.Fprintf(w, "%s %d\n", g.Name, g.Value)
	}
	for _, p := range rep.Phases {
		fmt.Fprintf(w, "phase.%s.count %d\nphase.%s.ns %d\n", p.Phase, p.Count, p.Phase, p.Nanos)
	}
}

// handleTrace exports the retained trace as Chrome trace_event JSON.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.obs.WriteTrace(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	status := http.StatusOK
	if draining {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"ok": !draining, "draining": draining})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
