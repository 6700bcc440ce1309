package main

import (
	"encoding/json"
	"os"
	"time"

	"chow88/internal/pixie"
)

// span is one timed call: an op span (parent < 0) or a layer span inside
// one. Spans of one op share its id.
type span struct {
	name       string
	op, parent int
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps the spans of one goroutine in memory; it records spans only
// in the benchmark's own code, around calls into each layer's public API.
type tracer struct {
	epoch time.Time
	tid   int
	spans []span
	ops   int
}

func newTracer(epoch time.Time, tid int) *tracer { return &tracer{epoch: epoch, tid: tid} }

// op opens a root span for a new op and returns its index.
func (t *tracer) op(name string) int {
	t.ops++
	t.spans = append(t.spans, span{name: name, op: t.ops, parent: -1, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

// begin opens a layer span under the op span parent.
func (t *tracer) begin(parent int, name string) int {
	t.spans = append(t.spans, span{name: name, op: t.spans[parent].op, parent: parent, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].end = time.Since(t.epoch) }

// dur is span i's duration.
func (t *tracer) dur(i int) time.Duration { return t.spans[i].end - t.spans[i].start }

// layers aggregates spans across tracers: per layer name the durations of
// its spans, and per op the time no layer span covers.
type layers struct {
	by           map[string][]time.Duration
	opTime       time.Duration
	unattributed time.Duration
	ops          int
}

func aggregate(ts ...*tracer) *layers {
	l := &layers{by: map[string][]time.Duration{}}
	for _, t := range ts {
		covered := map[int]time.Duration{}
		for i, s := range t.spans {
			if s.parent >= 0 {
				l.by[s.name] = append(l.by[s.name], t.dur(i))
				covered[s.parent] += t.dur(i)
			}
		}
		for i, s := range t.spans {
			if s.parent < 0 {
				l.ops++
				l.opTime += t.dur(i)
				l.unattributed += t.dur(i) - covered[i]
			}
		}
	}
	return l
}

// meanMS is the mean duration of the named layer's spans.
func (l *layers) meanMS(name string) float64 { return meanMS(l.by[name]) }

// unattributedShare is the fraction of op time outside every layer span.
func (l *layers) unattributedShare() float64 {
	if l.opTime <= 0 {
		return 0
	}
	return float64(l.unattributed) / float64(l.opTime)
}

// writeChrome writes the spans as Chrome trace_event JSON.
func writeChrome(path string, ts ...*tracer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var evs []event
	for _, t := range ts {
		at := t.epoch.Sub(ts[0].epoch)
		for _, s := range t.spans {
			evs = append(evs, event{
				Name: s.name, Ph: "X", PID: 1, TID: t.tid,
				TS: float64(at+s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Args: map[string]int{"op": s.op},
			})
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// paperSums totals the paper's generated-code metrics over a fixed set of
// compiled and executed programs.
type paperSums struct {
	cycles, scalarLS, saveRestoreLS, linkage, codeWords int64
}

func (s *paperSums) add(st *pixie.Stats, words int) {
	s.cycles += st.Cycles
	s.scalarLS += st.ScalarLS()
	s.saveRestoreLS += st.SaveRestoreLS()
	s.linkage += st.LinkageCycles
	s.codeWords += int64(words)
}

func (s *paperSums) report(rep *report) {
	rep.add("sim_cycles", "count", float64(s.cycles))
	rep.add("scalar_ls", "count", float64(s.scalarLS))
	rep.add("saverestore_ls", "count", float64(s.saveRestoreLS))
	rep.add("linkage_cycles", "count", float64(s.linkage))
	rep.add("code_words", "count", float64(s.codeWords))
}
