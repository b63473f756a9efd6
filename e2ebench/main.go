// Command e2ebench is PrintQueue's end-to-end benchmark. One invocation
// runs one workload for a fixed wall-clock budget and prints every metric
// by name with its unit; the last line of standard output is a JSON object
// with the keys correct, attempted, failed and metrics.
//
//	e2ebench -workload uw-dpq -seed 3 -seconds 8 -trace 0
//
// With -trace 0 the metrics are the end-to-end metrics (tracing off). With
// -trace 1 the same workload runs untraced for half the budget and traced
// for the other half, followed by component replays; the metrics are then
// the per-layer metrics, including each layer's self time and the tracing
// overhead. Inputs are generated from -seed only: the same seed yields the
// same input digest. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// watchdogLimit bounds one invocation: a run that has not finished by then
// dumps every goroutine's stack and exits non-zero instead of hanging.
const watchdogLimit = 170 * time.Second

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; README.md says what each measures per
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_mpps", "Mpkt/s"},
	{"query_p50_us", "us"},
	{"query_p90_us", "us"},
	{"answer_p50_us", "us"},
	{"answer_p90_us", "us"},
	{"precision", "ratio"},
	{"recall", "ratio"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload bypasses
// reports 0 for its metrics.
var perLayer = []metricDef{
	{"trace.gen_ns_per_pkt", "ns"},
	{"switchsim.ns_per_pkt", "ns"},
	{"control.observe_ns_per_pkt", "ns"},
	{"pipeline.observe_ns_per_pkt", "ns"},
	{"pipeline.close_ms", "ms"},
	{"control.flips", "count"},
	{"control.flip_us", "us"},
	{"control.special_freezes", "count"},
	{"control.dp_suppressed", "count"},
	{"control.infeasible_flips", "count"},
	{"control.dp_freeze_frac", "ratio"},
	{"timewindow.insert_ns", "ns"},
	{"qmonitor.observe_ns", "ns"},
	{"timewindow.snapshot_us", "us"},
	{"qmonitor.snapshot_us", "us"},
	{"checkpoint.filter_us", "us"},
	{"histstore.encode_us", "us"},
	{"histstore.append_us", "us"},
	{"histstore.bytes_per_cp", "bytes"},
	{"histstore.compression_ratio", "ratio"},
	{"histstore.append_errors", "count"},
	{"histstore.cache_hits", "count"},
	{"histstore.cache_misses", "count"},
	{"stream.frames", "count"},
	{"stream.bytes", "bytes"},
	{"stream.resyncs", "count"},
	{"stream.lag_p50_us", "us"},
	{"stream.lag_p99_us", "us"},
	{"query.hot_p50_us", "us"},
	{"query.hot_p99_us", "us"},
	{"query.cold_p50_us", "us"},
	{"query.cold_p99_us", "us"},
	{"query.indirect_p50_us", "us"},
	{"query.indirect_p99_us", "us"},
	{"query.original_p50_us", "us"},
	{"query.original_p99_us", "us"},
	{"query.flows_per_answer", "count"},
	{"control.dpq_query_us", "us"},
	{"control.mux_interval_p50_us", "us"},
	{"control.mux_interval_p99_us", "us"},
	{"control.mux_retries", "count"},
	{"control.mux_timeouts", "count"},
	{"control.mux_reconnects", "count"},
	{"fleet.querypath_us", "us"},
	{"fleet.hop_latency_us", "us"},
	{"fleet.rank_us", "us"},
	{"fleet.mirror_querypath_us", "us"},
	{"fleet.mirror_served_frac", "ratio"},
	{"fleet.mirror_hit_us", "us"},
	{"fleet.mirror_catchup_ms", "ms"},
	{"flow.format_ns_per_key", "ns"},
	{"flow.parse_ns_per_key", "ns"},
	{"runtime.alloc_bytes_per_pkt", "bytes"},
	{"runtime.alloc_bytes_per_query", "bytes"},
	{"dpq.snapshot_share_pct", "%"},
	{"dpq.filter_share_pct", "%"},
	{"dpq.query_share_pct", "%"},
	{"dpq.encode_share_pct", "%"},
	{"dpq.append_share_pct", "%"},
	{"self.trace_pct", "%"},
	{"self.switchsim_pct", "%"},
	{"self.control_pct", "%"},
	{"self.pipeline_pct", "%"},
	{"self.timewindow_pct", "%"},
	{"self.qmonitor_pct", "%"},
	{"self.histstore_pct", "%"},
	{"self.stream_pct", "%"},
	{"self.fleet_pct", "%"},
	{"self.flow_pct", "%"},
	{"self.bench_pct", "%"},
	{"tracing.spans", "count"},
	{"tracing.overhead_pct", "%"},
	{"bench.query_p99_us", "us"},
	{"bench.answer_p99_us", "us"},
	{"bench.failed_frac", "ratio"},
	{"bench.query_samples", "count"},
	{"bench.answer_samples", "count"},
}

// layers are the span prefixes self time is attributed to; "bench" is the
// benchmark's own root spans.
var layers = []string{"trace", "switchsim", "control", "pipeline", "timewindow", "qmonitor",
	"histstore", "stream", "fleet", "flow", "bench"}

// workload is one benchmark workload: a seeded setup followed by a
// measured phase of a given length.
type workload interface {
	// setup builds the inputs (and everything the measured phase needs),
	// recording spans into tr when it is non-nil, and returns the digest
	// of the generated inputs.
	setup(seed uint64, tr *tracer) (digest uint64, err error)
	// measure runs the measured phase for d, with spans recorded into tr
	// when tr is non-nil, and folds its results into r.
	measure(d time.Duration, tr *tracer, r *result) error
	// components runs the traced run's component replays, with spans
	// recorded into tr.
	components(tr *tracer, r *result) error
	// close releases everything setup built.
	close()
}

// workloads maps the -workload names to their constructors.
var workloads = map[string]func(scratch string) workload{
	"uw-ingest": func(string) workload { return &uwIngest{} },
	"uw-dpq":    func(s string) workload { return &uwDPQ{scratch: s} },
	"ws-path":   func(s string) workload { return &wsPath{scratch: s} },
	"ws-mirror": func(s string) workload { return &wsPath{scratch: s, mirror: true} },
}

// setupRounds is how many times setup runs per invocation; setup_s is the
// median, and every round must reproduce the same input digest.
const setupRounds = 3

// result accumulates one invocation's outcome.
type result struct {
	attempted int64
	failed    int64
	metrics   map[string]float64
	notes     []string
	failures  []string
}

func newResult() *result { return &result{metrics: make(map[string]float64)} }

// op records one attempted operation; a non-empty why marks it failed.
func (r *result) op(why string) {
	r.attempted++
	if why != "" {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, why)
		}
	}
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

// absorb counts another phase's operations and failures into r; its
// metrics are not taken.
func (r *result) absorb(x *result) {
	r.attempted += x.attempted
	r.failed += x.failed
	for _, f := range x.failures {
		if len(r.failures) < 20 {
			r.failures = append(r.failures, f)
		}
	}
}

// latency records a latency sample set as <prefix>_p50_us, _p90_us and
// _p99_us, the last being the highest percentile, up to p99, with at least
// ten samples beyond it; it notes that percentile and the sample count.
func (r *result) latency(prefix string, us []float64) {
	if len(us) == 0 {
		return
	}
	p50, p90 := median(us), percentile(us, 90)
	tv, pct := tail(us)
	r.set(prefix+"_p50_us", p50)
	r.set(prefix+"_p90_us", p90)
	r.set(prefix+"_p99_us", tv)
	r.note("%s: p50 %.2f us, p90 %.2f us, p%.1f %.2f us, n=%d", prefix, p50, p90, pct, tv, len(us))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload: uw-ingest, uw-dpq, ws-path or ws-mirror")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 8, "length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	scratch := flag.String("scratch", ".bench_build/run", "scratch directory for durable histories")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	stop := startWatchdog(watchdogLimit)
	dir, err := os.MkdirTemp(mkdirAll(*scratch), *name+"-")
	if err != nil {
		fail(err)
	}
	spans := filepath.Join(filepath.Dir(filepath.Clean(*scratch)), fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))
	res, err := run(mk(dir), *seed, time.Duration(*seconds)*time.Second, *traced == 1, spans)
	os.RemoveAll(dir)
	stop()
	if err != nil {
		fail(err)
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	if err := emit(os.Stdout, res, defs, *traced == 1); err != nil {
		fail(err)
	}
}

func mkdirAll(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	return dir
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
	os.Exit(1)
}

// startWatchdog fails the run with a dump of every goroutine if it has not
// finished within limit. The returned func disarms it.
func startWatchdog(limit time.Duration) (stop func()) {
	t := time.AfterFunc(limit, func() {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		fmt.Fprintf(os.Stderr, "e2ebench: watchdog: run exceeded %v; goroutines:\n%s\n", limit, buf[:n])
		os.Exit(3)
	})
	return func() { t.Stop() }
}

// run executes one invocation: setupRounds setups (the last one is kept),
// then the measured phase, untraced, or half untraced and half traced
// followed by the component replays.
func run(w workload, seed uint64, d time.Duration, traced bool, spans string) (*result, error) {
	defer w.close()
	r := newResult()
	var tr *tracer
	if traced {
		tr = newTracer(1<<21, spans)
	}
	var setups []float64
	var digest uint64
	for i := 0; i < setupRounds; i++ {
		if i > 0 {
			w.close()
		}
		t0 := time.Now()
		dg, err := w.setup(seed, tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == 0 {
			digest = dg
		} else if dg != digest {
			r.op(fmt.Sprintf("setup round %d: input digest %016x differs from %016x", i, dg, digest))
			continue
		}
		r.op("")
	}
	r.set("setup_s", median(setups))
	r.note("input digest %016x; setup %.3fs (median of %d)", digest, median(setups), len(setups))

	if !traced {
		// The first eighth of the budget warms the process up (heap growth,
		// page faults, first-use caches); its figures are discarded but its
		// answers are still checked.
		warm := newResult()
		if err := w.measure(d/8, nil, warm); err != nil {
			return nil, err
		}
		r.absorb(warm)
		hp := startHeapPeak()
		err := w.measure(d-d/8, nil, r)
		r.set("heap_peak_mb", hp.stop())
		return r, err
	}
	// Traced run: a short untraced warm-up (discarded), then an untraced
	// slice that is the reference the tracing overhead is measured
	// against, then the traced slice the per-layer metrics come from,
	// followed by the component replays.
	warm, base := newResult(), newResult()
	if err := w.measure(d/6, nil, warm); err != nil {
		return nil, err
	}
	if err := w.measure(d/3, nil, base); err != nil {
		return nil, err
	}
	r.absorb(warm)
	r.absorb(base)
	if err := w.measure(d-d/6-d/3, tr, r); err != nil {
		return nil, err
	}
	r.set("tracing.overhead_pct", overheadPct(base, r))
	if err := w.components(tr, r); err != nil {
		return nil, err
	}
	r.set("dpq.snapshot_share_pct", share(r, base, "timewindow.snapshot_us", "qmonitor.snapshot_us"))
	r.set("dpq.filter_share_pct", share(r, base, "checkpoint.filter_us"))
	r.set("dpq.query_share_pct", share(r, base, "control.dpq_query_us"))
	r.set("dpq.encode_share_pct", share(r, base, "histstore.encode_us"))
	// Store.Append encodes before it writes, so the append share counts
	// only what Append adds to the encoding.
	r.set("dpq.append_share_pct", share(r, base, appendWriteUs))
	self, total := tr.selfTimes()
	for _, l := range layers {
		if total > 0 {
			r.set("self."+l+"_pct", 100*float64(self[l])/float64(total))
		}
	}
	r.set("tracing.spans", float64(tr.len()))
	r.set("bench.query_p99_us", r.metrics["query_p99_us"])
	r.set("bench.answer_p99_us", r.metrics["answer_p99_us"])
	r.set("bench.failed_frac", float64(r.failed)/float64(max(r.attempted, 1)))
	if path, err := tr.write(); err == nil {
		r.note("spans written to %s (%d dropped)", path, tr.dropped)
	} else {
		r.note("spans not written: %v", err)
	}
	return r, nil
}

// headlineCost is the internal metric every workload sets: the cost of
// its headline operation (ns per packet for ingest, the answer median for
// diagnoses). It is not printed; it is what tracing overhead compares.
const headlineCost = "_headline_cost"

// dpqP50 is the internal metric uw-dpq sets to its data-plane query
// median, the base of the dpq.*_share_pct metrics.
const dpqP50 = "_dpq_p50_us"

// overheadPct is the tracing overhead: how much more the workload's
// headline operation cost traced than untraced, in percent.
func overheadPct(untraced, traced *result) float64 {
	u, t := untraced.metrics[headlineCost], traced.metrics[headlineCost]
	if u <= 0 || t <= 0 {
		return 0
	}
	return 100 * (t/u - 1)
}

// share is the summed medians of the named component timings as a share
// of the untraced data-plane-query median, in percent (0 when the
// workload runs no data-plane queries).
func share(r, untraced *result, names ...string) float64 {
	dpq := untraced.metrics[dpqP50]
	if dpq <= 0 {
		return 0
	}
	var s float64
	for _, n := range names {
		s += r.metrics[n]
	}
	return 100 * s / dpq
}

// emit prints the notes, one line per metric, and the JSON result line.
func emit(w *os.File, r *result, defs []metricDef, traced bool) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "# FAILED:", f)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]val, len(defs))}
	var missing []string
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !traced && (!ok || v <= 0) {
			missing = append(missing, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			v = 0
		}
		out.Metrics[d.name] = val{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-32s %16.4f %s\n", d.name, v, d.unit)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics missing or not positive: %s", strings.Join(missing, ", "))
	}
	if r.attempted == 0 {
		return fmt.Errorf("no operation attempted")
	}
	out.Correct = r.failed == 0
	fmt.Fprintf(w, "%-32s %16.6f ratio\n", "failed_frac", float64(r.failed)/float64(r.attempted))
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	return nil
}
