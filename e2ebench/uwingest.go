package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"printqueue"
	"printqueue/internal/core/qmonitor"
	"printqueue/internal/core/timewindow"
	"printqueue/internal/flow"
	"printqueue/internal/metrics"
)

// uw-ingest: four ports, each with its own seeded UW trace, merged in
// dequeue order and replayed as a closed-loop batch job through
// System.StartPipeline. Paper time windows, poll period = set period, a
// bounded hot ring, no durable history and no data-plane trigger.
const (
	uwIngestPorts       = 4
	uwIngestPktsPerPort = 500000
	uwIngestMaxCPs      = 64
	// uwIngestVictims is the victim sample per depth bucket; the first
	// replay diagnoses all of them, every later one uwIngestChecks of them,
	// rotating.
	uwIngestVictims = 64
	uwIngestChecks  = 48
)

// diagnosis is one victim's in-process answer: direct culprits, indirect
// culprits from the regime start, and original culprits.
type diagnosis struct {
	direct, indirect, original printqueue.Report
}

type uwIngest struct {
	cfg     printqueue.Config
	stream  []deq
	end     uint64
	flips   []int
	victims []victim
	ref     []diagnosis // serial reference answers, per victim
	tm      timing
}

func uwIngestConfig() printqueue.Config {
	cfg := printqueue.DefaultConfig(0, 1, 2, 3)
	cfg.MaxCheckpoints = uwIngestMaxCPs
	return cfg
}

func (w *uwIngest) setup(seed uint64, tr *tracer) (uint64, error) {
	w.tm = timing{tr: tr}
	w.cfg = uwIngestConfig()
	run, err := simulate(seed, uwIngestPorts, uwIngestPktsPerPort, &w.tm)
	if err != nil {
		return 0, err
	}
	w.stream = merge(run.streams)
	w.end = run.end
	w.flips = flipSchedule(w.stream, uint64(w.cfg.TimeWindows.SetPeriod()), nil)
	w.victims = sampleVictims(run.gt, paperBuckets, uwIngestVictims)
	if len(w.victims) == 0 {
		return 0, fmt.Errorf("uw-ingest: no victims deeper than %d cells", paperBuckets[0].lo)
	}
	// The serial reference every pipeline replay must match bit for bit.
	ref, err := printqueue.New(w.cfg)
	if err != nil {
		return 0, err
	}
	for i := range w.stream {
		d := &w.stream[i]
		ref.Observe(d.pkt, d.enq, d.deq, d.depth)
	}
	ref.Finalize(w.end)
	w.ref = make([]diagnosis, len(w.victims))
	for i, v := range w.victims {
		if w.ref[i], err = diagnose(ref, v); err != nil {
			return 0, fmt.Errorf("uw-ingest: reference diagnosis: %w", err)
		}
	}
	h := newDigest()
	for i := range w.stream {
		w.stream[i].hash(&h)
	}
	return uint64(h), nil
}

// diagnose runs one victim's in-process diagnosis on a System.
func diagnose(sys *printqueue.System, v victim) (diagnosis, error) {
	d, _, err := diagnoseTimed(sys, v, nil, -1, 0)
	return d, err
}

// partTimes are one diagnosis's indirect and original query durations in
// microseconds (timeDirect times the direct query on its own).
type partTimes struct{ indirect, original float64 }

// diagnoseTimed runs one victim's in-process diagnosis — direct culprits,
// indirect culprits from the regime start, original culprits — timing
// each query and, when tr is set, recording a span for each under parent.
func diagnoseTimed(sys *printqueue.System, v victim, tr *tracer, parent int32, req uint64) (diagnosis, partTimes, error) {
	var d diagnosis
	var pt partTimes
	var err error
	h := tr.begin("control.query_direct", parent, req)
	d.direct, err = sys.QueryInterval(v.port, v.enq, v.deq)
	tr.finish(h)
	if err != nil {
		return d, pt, err
	}
	if v.regimeStart < v.enq {
		h = tr.begin("control.query_indirect", parent, req)
		t := time.Now()
		d.indirect, err = sys.QueryInterval(v.port, v.regimeStart, v.enq)
		pt.indirect = usSince(t)
		tr.finish(h)
		if err != nil {
			return d, pt, err
		}
	}
	h = tr.begin("control.query_original", parent, req)
	t := time.Now()
	d.original, err = sys.QueryOriginal(v.port, 0, v.enq)
	pt.original = usSince(t)
	tr.finish(h)
	return d, pt, err
}

// timeDirect times the direct-culprit query of the picked victims, in a
// pass of its own so the indirect and original queries' garbage does not
// land in it, and appends the times to us.
func timeDirect(sys *printqueue.System, victims []victim, picks []int, tr *tracer, us []float64) []float64 {
	req := tr.req()
	h := tr.begin("bench.direct_pass", -1, req)
	defer tr.finish(h)
	for _, i := range picks {
		v := victims[i]
		q := tr.begin("control.query_direct", h, req)
		t := time.Now()
		if _, err := sys.QueryInterval(v.port, v.enq, v.deq); err == nil {
			us = append(us, usSince(t))
		}
		tr.finish(q)
	}
	return us
}

// countsOf converts a report to per-flow counts for scoring.
func countsOf(r printqueue.Report) flow.Counts {
	c := make(flow.Counts, len(r))
	for _, cu := range r {
		c[internalFlow(cu.Flow)] += cu.Packets
	}
	return c
}

// accuracy is the mean per-victim direct-culprit precision and recall.
type accuracy struct{ p, r, n float64 }

func (a *accuracy) add(estimate, truth flow.Counts) {
	p, r := metrics.PrecisionRecall(estimate, truth)
	a.p += p
	a.r += r
	a.n++
}

func (a *accuracy) set(res *result) {
	if a.n > 0 {
		res.set("precision", a.p/a.n)
		res.set("recall", a.r/a.n)
		res.note("accuracy over %d victims: precision %.4f recall %.4f", int(a.n), a.p/a.n, a.r/a.n)
	}
}

func (w *uwIngest) measure(d time.Duration, tr *tracer, r *result) error {
	var mpps, drain, query, indirect, original []float64
	var observeNs, closeNs, pkts int64
	var flips, replays int
	var acc accuracy
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	deadline := time.Now().Add(d)
	for replay := 0; replay == 0 || time.Now().Before(deadline); replay++ {
		// Each replay is one batch job; collect the previous one's garbage
		// outside the timing so every job starts from the same heap.
		runtime.GC()
		req := tr.req()
		root := tr.begin("bench.replay", -1, req)
		sys, err := printqueue.New(w.cfg)
		if err != nil {
			return err
		}
		pl, err := sys.StartPipeline(printqueue.PipelineConfig{})
		if err != nil {
			return err
		}
		t0 := time.Now()
		if tr == nil {
			for i := range w.stream {
				p := &w.stream[i]
				pl.Observe(p.pkt, p.enq, p.deq, p.depth)
			}
		} else {
			const batch = 4096
			for lo := 0; lo < len(w.stream); lo += batch {
				h := tr.begin("pipeline.observe", root, req)
				for i := lo; i < lo+batch && i < len(w.stream); i++ {
					p := &w.stream[i]
					pl.Observe(p.pkt, p.enq, p.deq, p.depth)
				}
				tr.finish(h)
			}
		}
		t1 := time.Now()
		h := tr.begin("pipeline.close", root, req)
		pl.Close()
		tr.finish(h)
		t2 := time.Now()
		h = tr.begin("control.finalize", root, req)
		sys.Finalize(w.end)
		tr.finish(h)
		t3 := time.Now()
		n := len(w.stream)
		mpps = append(mpps, float64(n)/t3.Sub(t0).Seconds()/1e6)
		drain = append(drain, float64(t3.Sub(t1).Nanoseconds())/1e3)
		observeNs += t1.Sub(t0).Nanoseconds()
		closeNs += t2.Sub(t1).Nanoseconds()
		pkts += int64(n)
		flips += sys.Stats().Checkpoints
		r.op("")
		tr.finish(root)

		// Victim checks: the first replay diagnoses every victim (and
		// scores accuracy); later ones a rotating subset. Every answer is
		// checked; query_* times the direct culprits. The indirect and
		// original queries' costs follow the length of the congestion
		// regime and where the few periodic checkpoints land, which swing
		// from seed to seed, so they are reported on their own.
		var picks []int
		if replay == 0 {
			for i := range w.victims {
				picks = append(picks, i)
			}
		} else {
			for j := 0; j < uwIngestChecks; j++ {
				picks = append(picks, (replay*uwIngestChecks+j)%len(w.victims))
			}
		}
		// Collect the replay's garbage and build every checkpoint's query
		// index with one full-span query per port, both untimed: query_*
		// is the steady-state query, and the one-time index build is
		// checkpoint.filter_us.
		runtime.GC()
		for _, p := range w.cfg.Ports {
			if _, err := sys.QueryInterval(p, 0, w.end); err != nil {
				r.op(fmt.Sprintf("uw-ingest port %d: full-span query: %v", p, err))
			}
		}
		query = timeDirect(sys, w.victims, picks, tr, query)
		for _, i := range picks {
			v := w.victims[i]
			q := tr.req()
			vh := tr.begin("bench.diagnosis", -1, q)
			got, pt, err := diagnoseTimed(sys, v, tr, vh, q)
			tr.finish(vh)
			indirect = append(indirect, pt.indirect)
			original = append(original, pt.original)
			r.op(checkReference(i, v, got, err, w.ref[i]))
			if replay == 0 {
				acc.add(countsOf(got.direct), v.truth)
			}
		}
		replays++
	}
	runtime.ReadMemStats(&ms1)
	r.set("ingest_mpps", median(mpps))
	r.set(headlineCost, 1e3/median(mpps))
	r.latency("answer", drain)
	r.latency("query", query)
	r.latency("query.indirect", indirect)
	r.latency("query.original", original)
	acc.set(r)
	r.note("uw-ingest: %d replays of %d packets over %d ports; ingest %.3f Mpkt/s (median)", replays, len(w.stream), uwIngestPorts, median(mpps))
	r.note("answer = end of stream to answerable (Pipeline.Close + Finalize)")
	r.set("bench.query_samples", float64(len(query)))
	r.set("bench.answer_samples", float64(len(drain)))
	r.set("pipeline.observe_ns_per_pkt", float64(observeNs)/float64(pkts))
	r.set("pipeline.close_ms", float64(closeNs)/float64(replays)/1e6)
	r.set("control.flips", float64(flips)/float64(replays))
	r.set("runtime.alloc_bytes_per_pkt", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(pkts))
	return nil
}

// checkReference compares a pipeline-built victim diagnosis with the
// serial reference's; it returns why the answer is wrong, or "".
func checkReference(i int, v victim, got diagnosis, err error, want diagnosis) string {
	switch {
	case err != nil:
		return fmt.Sprintf("uw-ingest victim %d: %v", i, err)
	case !reflect.DeepEqual(got, want):
		return fmt.Sprintf("uw-ingest victim %d (port %d, [%d,%d)): pipeline answer differs from the serial reference", i, v.port, v.enq, v.deq)
	}
	return ""
}

func (w *uwIngest) components(tr *tracer, r *result) error {
	w.tm.report(r)
	ns, flipUs, err := serialReplay(w.cfg, w.stream, w.flips, w.end, tr)
	if err != nil {
		return err
	}
	r.set("control.observe_ns_per_pkt", ns)
	r.set("control.flip_us", median(flipUs))
	ins, obs, err := registerReplay(w.stream, uwTW, uwQM, tr)
	if err != nil {
		return err
	}
	r.set("timewindow.insert_ns", ins)
	r.set("qmonitor.observe_ns", obs)
	return nil
}

func (w *uwIngest) close() {}

// serialReplay feeds a stream through a fresh System's serial Observe,
// timing the calls in batches of 256 that contain no freeze, and each call
// at a freeze index on its own, then finalizes the system at end (a flip
// on every port). It returns ns per non-freezing call and the flipping
// calls' durations in microseconds, Finalize's split evenly over ports.
func serialReplay(cfg printqueue.Config, stream []deq, freezes []int, end uint64, tr *tracer) (float64, []float64, error) {
	sys, err := printqueue.New(cfg)
	if err != nil {
		return 0, nil, err
	}
	defer sys.Close()
	req := tr.req()
	root := tr.begin("bench.serial_replay", -1, req)
	defer tr.finish(root)
	const batch = 256
	var batchNs, batchPkts int64
	var freezeUs []float64
	next := 0 // index into freezes
	for lo := 0; lo < len(stream); {
		if next < len(freezes) && freezes[next] == lo {
			p := &stream[lo]
			h := tr.begin("control.observe_freeze", root, req)
			t := time.Now()
			sys.Observe(p.pkt, p.enq, p.deq, p.depth)
			freezeUs = append(freezeUs, usSince(t))
			tr.finish(h)
			next++
			lo++
			continue
		}
		hi := lo + batch
		if hi > len(stream) {
			hi = len(stream)
		}
		if next < len(freezes) && freezes[next] < hi {
			hi = freezes[next]
		}
		h := tr.begin("control.observe", root, req)
		t := time.Now()
		for i := lo; i < hi; i++ {
			p := &stream[i]
			sys.Observe(p.pkt, p.enq, p.deq, p.depth)
		}
		batchNs += time.Since(t).Nanoseconds()
		tr.finish(h)
		batchPkts += int64(hi - lo)
		lo = hi
	}
	// Finalize flips every port once, in line: one more flip sample each.
	h := tr.begin("control.finalize", root, req)
	t := time.Now()
	sys.Finalize(end)
	fin := usSince(t) / float64(len(cfg.Ports))
	tr.finish(h)
	for range cfg.Ports {
		freezeUs = append(freezeUs, fin)
	}
	if batchPkts == 0 {
		return 0, freezeUs, nil
	}
	return float64(batchNs) / float64(batchPkts), freezeUs, nil
}

// registerReplay replays a stream straight into standalone time windows and
// queue monitors (one per port), timing Windows.Insert and Monitor.Observe
// separately, and returns ns per call of each.
func registerReplay(stream []deq, tw timewindow.Config, qm qmonitor.Config, tr *tracer) (insertNs, observeNs float64, err error) {
	maxPort := 0
	keys := make([]flow.Key, len(stream))
	for i := range stream {
		keys[i] = internalFlow(stream[i].pkt.Flow)
		maxPort = max(maxPort, stream[i].pkt.Port)
	}
	wins := make([]*timewindow.Windows, maxPort+1)
	mons := make([]*qmonitor.Monitor, maxPort+1)
	for p := range wins {
		if wins[p], err = timewindow.New(tw, nil); err != nil {
			return 0, 0, err
		}
		if mons[p], err = qmonitor.New(qm, nil); err != nil {
			return 0, 0, err
		}
	}
	req := tr.req()
	root := tr.begin("bench.register_replay", -1, req)
	defer tr.finish(root)
	h := tr.begin("timewindow.insert", root, req)
	t := time.Now()
	for i := range stream {
		wins[stream[i].pkt.Port].Insert(keys[i], stream[i].deq)
	}
	insertNs = float64(time.Since(t).Nanoseconds()) / float64(len(stream))
	tr.finish(h)
	h = tr.begin("qmonitor.observe", root, req)
	t = time.Now()
	for i := range stream {
		mons[stream[i].pkt.Port].Observe(keys[i], stream[i].depth)
	}
	observeNs = float64(time.Since(t).Nanoseconds()) / float64(len(stream))
	tr.finish(h)
	return insertNs, observeNs, nil
}
