package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"chow88"
	"chow88/internal/benchprog"
	"chow88/internal/daemon"
	"chow88/internal/front"
	"chow88/internal/obs"
)

// mix is the traffic mix, dealt from a bag so every four requests hold it
// exactly. It is internal/loadgen's healthy-client mix, /run : /compile :
// /compile-incremental = 2:1:1, the mix chowload and
// BenchmarkDaemonSaturation measure.
var mix = []string{"/run", "/run", "/compile", "/compile-incremental"}

// shortRuns are the suite programs /run serves: each compiles and runs in
// a few milliseconds.
var shortRuns = []string{"calcc", "dhrystone", "ccom", "upas", "awk", "diff"}

// incrChains is how many /compile-incremental sessions run, one client key
// each, as many as loadgen's default clients; sampledEvery picks which
// /compile and /compile-incremental answers carry their disassembly for an
// off-clock check against chow88.Compile. Chain k edits a fixed item,
// spaced evenly through the corpus, so the seed draws the edits but not
// which programs the chains hold.
//
// p99Window: latency_p99_ms is the median of the p99s of half-second
// windows (75 requests each, so each window's p99 is its second-slowest
// request). The tail of a 2-vCPU shared host comes in spells; a whole-run
// or three-window p99 rose from 13 to 26 ms between runs of the same seed
// while p50 stayed within 5%, and a median over 40 windows moves far less.
const (
	incrChains   = 4
	sampledEvery = 16
	p99Window    = 500 * time.Millisecond
)

// serveW drives an in-process chowd (daemon.NewServer, one worker per CPU)
// over loopback HTTP with an open-loop generator at the contract's fixed
// rate, from one sender goroutine per CPU. Each request is timed from the
// moment it was due.
type serveW struct {
	c          contract
	closedLoop bool // send back to back instead of on schedule (capacity probe)
	srv        *daemon.Server
	served     chan error
	base       string
	transport  *http.Transport
	client     *http.Client

	runs   []runInput
	items  []*program
	chains []*chain
	sums   paperSums

	mu     sync.Mutex // guards the generator state below while planning a request
	rng    *rand.Rand
	uniq   int64
	issued int
	// Bags deal the endpoint, the /run program, the /compile item and the
	// incremental chain, so a section's mix does not hang on the draw: a
	// rare slow item (Large) sets p99, and its count must not vary.
	kinds, runBag, itemBag, chainBag bag

	samples []sampled
	daemonM map[string]int64 // /metrics at the end of the traced section
	hits    int64
	lookups int64
	// Incremental answers in traced sections, and those whose frontier
	// reached beyond the edited function; likewise for pressure edits.
	incremental, propagated              int
	pressureRebuilds, pressurePropagated int
}

type runInput struct {
	name  string
	body  []byte
	want  []int64
	stats daemon.Stats
	words int
}

// request is one planned request.
type request struct {
	endpoint, key string
	body          []byte
	run           *runInput // for /run
	src           string    // for sampled compiles
	disasm        bool
	pressure      bool // the edit behind a compile raises register pressure
}

type sampled struct {
	key, src, disasm string
}

// A bag deals the indexes 0..n-1 in a seeded random order, then refills, so
// every n draws hold each index exactly once.
type bag struct {
	n    int
	left []int
}

func (b *bag) next(rng *rand.Rand) int {
	if len(b.left) == 0 {
		b.left = rng.Perm(b.n)
	}
	i := b.left[0]
	b.left = b.left[1:]
	return i
}

func (w *serveW) setup(e *env) error {
	if obs.Current() != nil {
		return fmt.Errorf("an obs session is active before the daemon starts")
	}
	w.c, w.closedLoop, w.rng = e.c, e.closedLoop, rand.New(rand.NewSource(e.seed))
	for _, name := range shortRuns {
		b := benchprog.Lookup(name)
		want, err := chow88.Interpret(b.Source)
		if err != nil {
			return fmt.Errorf("%s oracle: %w", name, err)
		}
		p, err := chow88.Compile(b.Source, chow88.ModeC())
		if err != nil {
			return err
		}
		res, err := p.Run()
		if err != nil {
			return err
		}
		if !sameInts(res.Output, want) {
			return fmt.Errorf("%s: in-process run differs from the interpreter", name)
		}
		body, err := json.Marshal(daemon.Request{Source: b.Source, TimeoutMS: w.c.Serve.TimeoutMS})
		if err != nil {
			return err
		}
		st := res.Stats
		w.runs = append(w.runs, runInput{name: name, body: body, want: want, words: len(p.Code.Code), stats: daemon.Stats{
			Cycles: st.Cycles, Instrs: st.Instrs, Calls: st.Calls,
			Loads: st.Loads, Stores: st.Stores, LinkageCycles: st.LinkageCycles,
		}})
		w.sums.add(&st, len(p.Code.Code))
	}
	items, err := corpus(e.seed, 0)
	if err != nil {
		return err
	}
	w.items = items
	for k := 0; k < incrChains; k++ {
		w.chains = append(w.chains, newChain(items[k*len(items)/incrChains], e.seed*104729+int64(k)))
	}
	w.kinds, w.runBag, w.itemBag, w.chainBag = bag{n: len(mix)}, bag{n: len(w.runs)}, bag{n: len(items)}, bag{n: incrChains}

	stateDir, err := os.MkdirTemp(e.dir, "chowd-")
	if err != nil {
		return err
	}
	w.srv, err = daemon.NewServer(daemon.Config{Workers: runtime.NumCPU(), StateDir: stateDir})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()
	w.transport = &http.Transport{MaxIdleConnsPerHost: runtime.NumCPU()}
	w.client = &http.Client{Transport: w.transport}
	return nil
}

// plan draws the next request from the seeded mix. The caller holds mu.
func (w *serveW) plan() (*request, error) {
	kind := mix[w.kinds.next(w.rng)]
	disasm := w.rng.Intn(sampledEvery) == 0
	w.uniq++
	switch kind {
	case "/run":
		in := &w.runs[w.runBag.next(w.rng)]
		return &request{endpoint: "/run", key: "/run " + in.name, body: in.body, run: in}, nil
	case "/compile-incremental":
		k := w.chainBag.next(w.rng)
		c := w.chains[k]
		e := c.p.mixedEdit(c.rng, w.uniq)
		src := c.step(e)
		body, err := json.Marshal(daemon.Request{Source: src, Client: "chain" + strconv.Itoa(k), TimeoutMS: w.c.Serve.TimeoutMS, Disasm: disasm})
		return &request{endpoint: "/compile-incremental", key: "/compile-incremental " + c.p.name, body: body, src: src, disasm: disasm, pressure: e.pressure}, err
	default:
		p := w.items[w.itemBag.next(w.rng)]
		src := p.revision(p.mixedEdit(w.rng, w.uniq))
		body, err := json.Marshal(daemon.Request{Source: src, TimeoutMS: w.c.Serve.TimeoutMS, Disasm: disasm})
		return &request{endpoint: "/compile", key: "/compile " + p.name, body: body, src: src, disasm: disasm}, err
	}
}

// sender is one goroutine's share of a section.
type sender struct {
	l  loop
	tr *tracer
}

func (w *serveW) run(d time.Duration, sec section) (*loop, []*tracer, error) {
	interval := time.Duration(float64(time.Second) / w.c.Serve.RatePerS)
	n := int(d / interval)
	limit := time.Duration(w.c.Serve.LatencyLimitMS * float64(time.Millisecond))
	front0 := front.CacheStats()
	w.issued = 0
	start := time.Now()
	senders := make([]*sender, runtime.NumCPU())
	errs := make([]error, len(senders))
	var wg sync.WaitGroup
	for g := range senders {
		s := &sender{}
		if sec == tracedSection {
			s.tr = newTracer(start, g+1)
		}
		senders[g] = s
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = w.send(s, start, interval, n, d, limit, sec)
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	l := &loop{p99Window: p99Window}
	var trs []*tracer
	for _, s := range senders {
		l.merge(&s.l)
		if s.tr != nil {
			trs = append(trs, s.tr)
		}
	}
	l.wall = time.Since(start)
	if sec == tracedSection {
		f := front.CacheStats()
		w.hits += f.Hits - front0.Hits
		w.lookups += f.Hits - front0.Hits + f.Misses - front0.Misses
		m, err := w.metrics()
		if err != nil {
			return nil, nil, err
		}
		w.daemonM = m
	}
	return l, trs, nil
}

// send issues requests until the section's n are planned (open loop) or
// its time is up (closed loop).
func (w *serveW) send(s *sender, start time.Time, interval time.Duration, n int, d, limit time.Duration, sec section) error {
	for {
		w.mu.Lock()
		i := w.issued
		w.issued++
		if (!w.closedLoop && i >= n) || (w.closedLoop && time.Since(start) >= d) {
			w.mu.Unlock()
			return nil
		}
		req, err := w.plan()
		w.mu.Unlock()
		if err != nil {
			return err
		}
		due := start.Add(time.Duration(i) * interval)
		if w.closedLoop {
			due = time.Now()
		}
		time.Sleep(time.Until(due))
		s.l.lag += time.Since(due)
		s.l.attempted++
		resp, status, err := w.exchange(s.tr, req)
		lat := time.Since(due)
		s.l.record(req.key, lat)
		switch {
		case err != nil:
			s.l.mismatch("%s: %v", req.key, err)
		case status != http.StatusOK || !resp.OK:
			s.l.mismatch("%s: http %d: %+v", req.key, status, resp.Error)
		default:
			if msg := w.verify(req, resp, sec); msg != "" {
				s.l.mismatch("%s: %s", req.key, msg)
			} else if lat > limit {
				s.l.failed++
			} else {
				s.l.good++
			}
		}
	}
}

// exchange posts one request; traced, the op span covers the exchange and
// decoding, and a layer span the HTTP round trip.
func (w *serveW) exchange(tr *tracer, req *request) (*daemon.Response, int, error) {
	var op, s int
	if tr != nil {
		op = tr.op(req.endpoint)
		s = tr.begin(op, "POST "+req.endpoint)
	}
	hresp, err := w.client.Post(w.base+req.endpoint, "application/json", bytes.NewReader(req.body))
	var data []byte
	if err == nil {
		data, err = io.ReadAll(hresp.Body)
		hresp.Body.Close()
	}
	if tr != nil {
		tr.end(s)
	}
	if err != nil {
		if tr != nil {
			tr.end(op)
		}
		return nil, 0, err
	}
	resp := &daemon.Response{}
	err = json.Unmarshal(data, resp)
	if tr != nil {
		tr.end(op)
	}
	return resp, hresp.StatusCode, err
}

// verify checks one successful answer: /run against the oracle and the
// in-process run, and keeps sampled disassemblies for check.
func (w *serveW) verify(req *request, resp *daemon.Response, sec section) string {
	if in := req.run; in != nil {
		if !sameInts(resp.Output, in.want) {
			return "output differs from the interpreter"
		}
		if resp.Stats == nil || *resp.Stats != in.stats || resp.CodeWords != in.words {
			return "run statistics differ from the in-process compile and run"
		}
		return ""
	}
	if resp.CodeWords <= 0 {
		return "no code words"
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if req.disasm && sec != warmSection {
		w.samples = append(w.samples, sampled{req.key, req.src, resp.Disasm})
	}
	if sec == tracedSection && resp.Incremental {
		w.incremental++
		if req.pressure {
			w.pressureRebuilds++
		}
		if resp.Replanned > 1 {
			w.propagated++
			if req.pressure {
				w.pressurePropagated++
			}
		}
	}
	return ""
}

// metrics reads the daemon's /metrics as name → value.
func (w *serveW) metrics() (map[string]int64, error) {
	resp, err := w.client.Get(w.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseInt(val, 10, 64); err == nil {
			m[name] = v
		}
	}
	return m, sc.Err()
}

// check compares every sampled compile answer with chow88.Compile of the
// same source; the paper sums are the /run set's, which every /run answer
// matched.
func (w *serveW) check(rep *report) (*paperSums, error) {
	for _, s := range w.samples {
		p, err := chow88.Compile(s.src, chow88.ModeC())
		if err != nil {
			rep.mismatch("%s: in-process compile: %v", s.key, err)
			continue
		}
		if p.Disassemble() != s.disasm {
			rep.mismatch("%s: daemon code differs from chow88.Compile's", s.key)
		}
	}
	return &w.sums, nil
}

func (w *serveW) layerValues(agg *layers, vals map[string]float64) {
	for _, l := range []struct{ metric, span string }{
		{"daemon.run_p50_ms", "POST /run"},
		{"daemon.compile_p50_ms", "POST /compile"},
		{"daemon.incremental_p50_ms", "POST /compile-incremental"},
	} {
		vals[l.metric] = ms(quantile(agg.by[l.span], 0.5))
	}
	if w.lookups > 0 {
		vals["front.cache_hit_ratio"] = float64(w.hits) / float64(w.lookups)
	}
	vals["incr.propagated_ratio"] = ratio(w.propagated, w.incremental)
	vals["incr.pressure_propagated_ratio"] = ratio(w.pressurePropagated, w.pressureRebuilds)
	for metric, name := range map[string]string{
		"daemon.queue_rejections": "daemon.rejected_queue_full",
		"daemon.queue_high_water": "daemon.queue_high_water",
		"daemon.busy_high_water":  "daemon.busy_workers_high_water",
	} {
		vals[metric] = float64(w.daemonM[name])
	}
}

// close drains the daemon and removes the obs session it installed.
func (w *serveW) close() error {
	if w.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.srv.Shutdown(ctx)
	if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	w.transport.CloseIdleConnections()
	obs.End()
	w.srv = nil
	return err
}
