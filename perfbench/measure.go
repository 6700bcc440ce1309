package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// report is one run's outcome. Every output mismatch, error and missed
// latency limit is a failure; a mismatch also makes the run incorrect.
type report struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

// mismatch records a wrong output: the run is incorrect and one more op failed.
func (r *report) mismatch(format string, args ...any) {
	r.correct = false
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// print writes one human-readable line per metric, then the JSON result
// as the last line.
func (r *report) print(w io.Writer) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]val{}}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile returns the nearest-rank q-quantile of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	ds = append([]time.Duration(nil), ds...)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(q*float64(len(ds))+0.5) - 1
	return ds[min(max(i, 0), len(ds)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is n/of, 0 for none.
func ratio(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// meanMS is the mean of ds in milliseconds, 0 for none.
func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return ms(t) / float64(len(ds))
}

// resetPeakRSS starts a new peak resident set size window, so the peak
// covers the timed section and not the setup's transient allocations. It
// first collects and returns freed memory, so the window does not start from
// however much setup garbage the last GC cycle happened to leave resident.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// heapAllocs is the process's cumulative heap allocation in bytes, read
// without stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// loop is the record of one timed section: per-op latency, keyed by what
// the op worked on so traced and untraced sections can be compared.
type loop struct {
	lat  []time.Duration
	keys []string
	// begun is when each op started; for serve, when it was due.
	begun     []time.Time
	attempted int
	// good counts ops that succeeded (within the latency limit, on serve).
	good, failed int
	wall         time.Duration
	// lag sums how late an open-loop generator sent each request.
	lag time.Duration
	// bad describes each wrong output or failed op.
	bad []string
	// rounds times each complete round of a closed loop, a fixed set of
	// roundOps ops; its median gives a throughput that a burst of
	// contention on the host moves less than a whole-section mean.
	rounds   []float64
	roundOps int
	// p99Window, when set, makes p99 the median of the p99s of windows this
	// long.
	p99Window time.Duration
}

func (l *loop) round(d time.Duration, ops int) {
	l.rounds = append(l.rounds, d.Seconds())
	l.roundOps = ops
}

// opsPerSecond is the median round's throughput, or for a loop without
// rounds its successful ops over its wall time.
func (l *loop) opsPerSecond() float64 {
	if len(l.rounds) > 0 {
		return float64(l.roundOps) / median(l.rounds)
	}
	return float64(l.good) / l.wall.Seconds()
}

// merge appends o's ops to l.
func (l *loop) merge(o *loop) {
	l.lat = append(l.lat, o.lat...)
	l.keys = append(l.keys, o.keys...)
	l.begun = append(l.begun, o.begun...)
	l.attempted += o.attempted
	l.good += o.good
	l.failed += o.failed
	l.wall += o.wall
	l.lag += o.lag
	l.bad = append(l.bad, o.bad...)
}

func (l *loop) record(key string, d time.Duration) {
	l.lat = append(l.lat, d)
	l.keys = append(l.keys, key)
	l.begun = append(l.begun, time.Now().Add(-d))
}

// p99 is the 99th-percentile latency of a section of length d, made
// steadier against a spell of host contention: the section is split into
// equal windows by op start and the result is the median of their p99s.
// With p99Window set, the windows are that long; otherwise there are three,
// used only when every one has at least ten ops beyond its own p99, and the
// whole section's p99 is the result when one has fewer.
func (l *loop) p99(d time.Duration) time.Duration {
	windows, fixed := 3, l.p99Window > 0
	if fixed {
		windows = max(int(d/l.p99Window), 1)
	}
	if len(l.begun) == 0 {
		return 0
	}
	start := l.begun[0]
	for _, t := range l.begun {
		if t.Before(start) {
			start = t
		}
	}
	parts := make([][]time.Duration, windows)
	for i, t := range l.begun {
		w := min(int(int64(windows)*int64(t.Sub(start))/int64(d)), windows-1)
		parts[w] = append(parts[w], l.lat[i])
	}
	var p99s []float64
	for _, p := range parts {
		if fixed && len(p) == 0 {
			continue
		}
		if !fixed && len(p)-int(0.99*float64(len(p))+0.5) < 10 {
			return quantile(l.lat, 0.99)
		}
		p99s = append(p99s, float64(quantile(p, 0.99)))
	}
	return time.Duration(median(p99s))
}

// mismatch records a failed op whose output was wrong or missing.
func (l *loop) mismatch(format string, args ...any) {
	l.failed++
	l.bad = append(l.bad, fmt.Sprintf(format, args...))
}

// absorb adds a section's failures to the report, and its op counts when
// the section is measured.
func (r *report) absorb(l *loop, counted bool) {
	for _, b := range l.bad {
		r.correct = false
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", b)
	}
	if counted {
		r.attempted += l.attempted
		r.failed += l.failed
	} else if len(l.bad) > 0 {
		r.failed += len(l.bad)
	}
}

// meanByKey is the mean latency of each key's ops.
func (l *loop) meanByKey() map[string]float64 {
	sum, n := map[string]float64{}, map[string]int{}
	for i, d := range l.lat {
		sum[l.keys[i]] += ms(d)
		n[l.keys[i]]++
	}
	for k := range sum {
		sum[k] /= float64(n[k])
	}
	return sum
}

// overheadRatio compares a traced section with an untraced one: the median
// over the keys both ran of traced mean latency over untraced mean latency.
func overheadRatio(traced, untraced *loop) float64 {
	t, u := traced.meanByKey(), untraced.meanByKey()
	var rs []float64
	for k, tv := range t {
		if uv, ok := u[k]; ok && uv > 0 {
			rs = append(rs, tv/uv)
		}
	}
	return median(rs)
}

// addEndToEnd reports the metrics every workload shares for a timed
// section of length d; rss is its peak resident set size.
func addEndToEnd(rep *report, setup []float64, l *loop, d time.Duration, rss float64) {
	rep.add("setup_s", "s", median(setup))
	rep.add("ops_per_s", "1/s", l.opsPerSecond())
	rep.add("latency_p50_ms", "ms", ms(quantile(l.lat, 0.50)))
	rep.add("latency_p99_ms", "ms", ms(l.p99(d)))
	success := 0.0
	if rep.attempted > 0 {
		success = 1 - float64(rep.failed)/float64(rep.attempted)
	}
	rep.add("success_ratio", "ratio", success)
	rep.add("peak_rss_mb", "MB", rss)
}
