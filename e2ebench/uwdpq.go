package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"printqueue"
	"printqueue/internal/core/control"
	"printqueue/internal/core/histstore"
	"printqueue/internal/core/qmonitor"
	"printqueue/internal/core/timewindow"
	"printqueue/internal/groundtruth"
	"printqueue/internal/telemetry"
)

// uw-dpq: one UW port replayed serially through System.Observe with the
// paper's Fig. 9 data-plane query setting armed (1000-cell depth trigger,
// 100M entries/s register reads), the durable history on, and one
// checkpoint subscriber draining the stream over loopback.
const (
	// uwDPQTraces seeded UW traces of uwDPQPackets each are replayed in
	// rotation, each on a fresh System: pooling several traces steadies
	// the figures across seeds, while one System never holds more than
	// one trace's data-plane checkpoints.
	uwDPQTraces   = 4
	uwDPQPackets  = 300000
	uwDPQTrigger  = 1000
	uwDPQReadRate = 100e6
	uwDPQMaxCPs   = 64
	// uwDPQVictims victims per depth bucket over all traces.
	uwDPQVictims   = 32
	streamDeadline = 10 * time.Second
)

type uwDPQ struct {
	scratch string
	cfg     printqueue.Config
	traces  []*dpqTrace
	tm      timing

	// last is the trace of the last replay; dpIdx and flips are the
	// stream indices of its calls that froze (data-plane and periodic).
	last  *dpqTrace
	dpIdx []int
	flips []int
	run   int
	// kept is the durable history of the traced run's last replay.
	kept string
}

// dpqTrace is one replayed trace: its dequeue stream, ground truth, and
// the data-plane answers of its first replay, which every later replay
// must reproduce exactly, with their accuracy.
type dpqTrace struct {
	stream []deq
	gt     *groundtruth.Collector
	end    uint64
	first  []printqueue.DataPlaneQuery
	acc    accuracy
	// victims are the trace's share of the depth-stratified diagnosis
	// targets; every replay of the trace diagnoses all of them.
	victims []victim
}

func (w *uwDPQ) setup(seed uint64, tr *tracer) (uint64, error) {
	w.tm = timing{tr: tr}
	w.traces = nil
	w.cfg = printqueue.DefaultConfig(0)
	w.cfg.DPTriggerDepthCells = uwDPQTrigger
	w.cfg.ReadRateEntriesPerSec = uwDPQReadRate
	w.cfg.MaxCheckpoints = uwDPQMaxCPs
	h := newDigest()
	for k := 0; k < uwDPQTraces; k++ {
		run, err := simulate(seed*1000+uint64(k), 1, uwDPQPackets, &w.tm)
		if err != nil {
			return 0, err
		}
		tc := &dpqTrace{stream: run.streams[0], gt: run.gt[0], end: run.end}
		for i := range tc.stream {
			tc.stream[i].hash(&h)
		}
		w.traces = append(w.traces, tc)
	}
	// Victims are stratified over all traces pooled; each is diagnosed on
	// its own trace's replays.
	gts := make([]*groundtruth.Collector, len(w.traces))
	for k, tc := range w.traces {
		gts[k] = tc.gt
	}
	for _, v := range sampleVictims(gts, paperBuckets, uwDPQVictims) {
		tc := w.traces[v.src]
		tc.victims = append(tc.victims, v)
	}
	for k, tc := range w.traces {
		if len(tc.victims) == 0 {
			return 0, fmt.Errorf("uw-dpq: trace %d has no victims deeper than %d cells", k, paperBuckets[0].lo)
		}
	}
	return uint64(h), nil
}

// subscriber drains one checkpoint stream, recording when each
// data-plane checkpoint (by freeze time) arrived. A resync is counted and
// healed by resubscribing from the last freeze time received, which
// replays the gap from the switch's segment log.
type subscriber struct {
	addr string

	mu     sync.Mutex
	st     *control.CheckpointStream
	closed bool
	recv   map[uint64]int64 // special freeze time -> receipt (ns since epoch)
	// replayedAt marks special freeze times that arrived replayed from
	// the log rather than pushed live.
	replayedAt map[uint64]bool
	frames     int64
	bytes      int64
	resyncs    int64
	replayed   int64
	err        error
	done       chan struct{}
}

func subscribe(addr string) (*subscriber, error) {
	st, err := control.DialCheckpoints(addr, 0, control.DialOptions{})
	if err != nil {
		return nil, err
	}
	s := &subscriber{addr: addr, st: st, recv: make(map[uint64]int64), replayedAt: make(map[uint64]bool), done: make(chan struct{})}
	go s.loop()
	return s, nil
}

func (s *subscriber) loop() {
	defer close(s.done)
	var last uint64
	for {
		s.mu.Lock()
		st := s.st
		s.mu.Unlock()
		f, err := st.Next()
		if err == nil {
			at := nowNs()
			s.mu.Lock()
			s.frames++
			s.bytes += int64(len(f.Payload))
			if f.Replay {
				s.replayed++
			}
			if f.Special {
				s.recv[f.FreezeTime] = at
				if f.Replay {
					s.replayedAt[f.FreezeTime] = true
				}
			}
			s.mu.Unlock()
			last = f.FreezeTime
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		if !errors.Is(err, control.ErrStreamResync) {
			s.err = err
			s.mu.Unlock()
			return
		}
		s.resyncs++
		s.mu.Unlock()
		st.Close()
		next, err := control.DialCheckpoints(s.addr, last, control.DialOptions{})
		s.mu.Lock()
		if err != nil || s.closed {
			if err == nil {
				next.Close()
			}
			s.err = err
			s.mu.Unlock()
			return
		}
		s.st = next
		s.mu.Unlock()
	}
}

// waitFor blocks until every freeze time in want has arrived or the
// deadline passes, and returns how many are missing.
func (s *subscriber) waitFor(want []uint64, deadline time.Duration) int {
	end := time.Now().Add(deadline)
	for {
		s.mu.Lock()
		missing := 0
		for _, ft := range want {
			if _, ok := s.recv[ft]; !ok {
				missing++
			}
		}
		dead := s.err != nil
		s.mu.Unlock()
		if missing == 0 || dead || time.Now().After(end) {
			return missing
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// close ends the subscription and waits for the drain goroutine.
func (s *subscriber) close() {
	s.mu.Lock()
	s.closed = true
	st := s.st
	s.mu.Unlock()
	st.Close()
	<-s.done
}

func (w *uwDPQ) measure(d time.Duration, tr *tracer, r *result) error {
	n := uwDPQPackets
	for _, tc := range w.traces {
		n = max(n, len(tc.stream))
	}
	starts := make([]int64, n)
	durs := make([]int64, n)
	var mpps, dpqUs, lagUs, query, indirect, original, dpqQueryUs []float64
	var frames, bytes, resyncs, replays, suppressed, infeasible, special, flips int64
	var hist printqueue.HistoryStats
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var pkts int64
	deadline := time.Now().Add(d)
	for replay := 0; replay < len(w.traces) || time.Now().Before(deadline); replay++ {
		tc := w.traces[w.run%len(w.traces)]
		w.last = tc
		n := len(tc.stream)
		w.run++
		// Each replay is one batch job; collect the previous one's garbage
		// outside the timing so every job starts from the same heap.
		runtime.GC()
		dir := filepath.Join(w.scratch, fmt.Sprintf("dpq-%d", w.run))
		cfg := w.cfg
		cfg.History = &printqueue.HistoryConfig{Dir: dir}
		sys, err := printqueue.New(cfg)
		if err != nil {
			return err
		}
		svc, err := sys.Serve("127.0.0.1:0", 1)
		if err != nil {
			sys.Close()
			return err
		}

		// The subscriber attaches once the history holds a checkpoint:
		// subscribing to an empty durable history panics the switch
		// (Store.ReplaySince loads the index of the empty active segment),
		// so the first freeze reaches the subscriber as a replayed frame
		// and is left out of the freshness samples.
		var sub *subscriber
		var subscribing time.Duration
		req := tr.req()
		root := tr.begin("bench.replay", -1, req)
		t0 := time.Now()
		for i := range tc.stream {
			p := &tc.stream[i]
			s := nowNs()
			sys.Observe(p.pkt, p.enq, p.deq, p.depth)
			starts[i] = s
			durs[i] = nowNs() - s
			if sub == nil {
				if st := sys.Stats(); st.SpecialFreezes+st.Checkpoints > 0 {
					ts := time.Now()
					if sub, err = subscribe(svc.Addr()); err != nil {
						svc.Close()
						sys.Close()
						return err
					}
					subscribing += time.Since(ts)
				}
			}
		}
		el := time.Since(t0) - subscribing
		sys.Finalize(tc.end)
		if sub == nil {
			if sub, err = subscribe(svc.Addr()); err != nil {
				svc.Close()
				sys.Close()
				return err
			}
		}
		mpps = append(mpps, float64(n)/el.Seconds()/1e6)
		pkts += int64(n)
		r.op("")

		dqs := sys.DataPlaneQueries(0)
		st := sys.Stats()
		if st.SpecialFreezes != len(dqs) {
			r.op(fmt.Sprintf("uw-dpq: Stats().SpecialFreezes = %d but %d data-plane answers", st.SpecialFreezes, len(dqs)))
		}
		suppressed += int64(st.DPSuppressed)
		infeasible += int64(st.InfeasibleFlips)
		special += int64(st.SpecialFreezes)

		// Map every data-plane answer to the Observe call that froze: its
		// freeze time is the triggering packet's dequeue time.
		w.dpIdx = w.dpIdx[:0]
		specialSet := make(map[int]bool, len(dqs))
		want := make([]uint64, 0, len(dqs))
		for j, dq := range dqs {
			i := sort.Search(n, func(k int) bool { return tc.stream[k].deq >= dq.FreezeTime })
			if i == n || tc.stream[i].deq != dq.FreezeTime || tc.stream[i].pkt.Flow != dq.Victim {
				r.op(fmt.Sprintf("uw-dpq answer %d: no dequeue at freeze time %d for its victim", j, dq.FreezeTime))
				continue
			}
			w.dpIdx = append(w.dpIdx, i)
			specialSet[i] = true
			want = append(want, dq.FreezeTime)
			dpqUs = append(dpqUs, float64(durs[i])/1e3)
		}
		w.flips = flipSchedule(tc.stream, uint64(cfg.TimeWindows.SetPeriod()), specialSet)
		flips += int64(len(w.flips))

		// Freshness: from the start of the freezing Observe call to the
		// subscriber's receipt of the frame with that freeze time.
		missing := sub.waitFor(want, streamDeadline)
		sub.mu.Lock()
		for _, i := range w.dpIdx {
			at, ok := sub.recv[tc.stream[i].deq]
			if !ok || sub.replayedAt[tc.stream[i].deq] {
				continue
			}
			lagUs = append(lagUs, float64(at-starts[i])/1e3)
			if tr != nil {
				tr.add("control.dp_freeze", starts[i], starts[i]+durs[i], root, req)
				tr.add("stream.deliver", starts[i]+durs[i], at, -1, req)
			}
		}
		sub.mu.Unlock()
		sub.close()
		frames += sub.frames
		bytes += sub.bytes
		resyncs += sub.resyncs
		replays += sub.replayed
		if missing > 0 {
			r.op(fmt.Sprintf("uw-dpq: %d of %d data-plane checkpoints never reached the subscriber", missing, len(want)))
		} else {
			r.op("")
		}
		if sub.err != nil {
			r.op(fmt.Sprintf("uw-dpq: subscriber: %v", sub.err))
		}
		tr.finish(root)

		// Score the data-plane answers: each must match its ground-truth
		// victim, be non-empty when the truth is, and repeat exactly on
		// every replay.
		firstReplay := tc.first == nil
		if firstReplay {
			tc.first = dqs
		}
		for j, dq := range dqs {
			why := ""
			gi, ok := tc.gt.FindByDeq(dq.DeqTime, internalFlow(dq.Victim))
			switch {
			case !ok:
				why = fmt.Sprintf("uw-dpq answer %d: victim not in ground truth", j)
			case len(dq.Culprits) == 0 && len(tc.gt.DirectTruth(gi)) > 0:
				why = fmt.Sprintf("uw-dpq answer %d: empty answer for a victim with culprits", j)
			case len(dqs) != len(tc.first) || !reflect.DeepEqual(dq, tc.first[j]):
				why = fmt.Sprintf("uw-dpq answer %d: differs from the first replay's", j)
			}
			r.op(why)
			if firstReplay && ok {
				tc.acc.add(countsOf(dq.Culprits), tc.gt.DirectTruth(gi))
			}
		}

		// Collect the replay's garbage and build every checkpoint's query
		// index (hot) or decode it into the cache (cold) with one
		// full-span query, both untimed: query_* is the steady-state
		// query; the one-time index build is checkpoint.filter_us.
		runtime.GC()
		if _, err := sys.QueryInterval(0, 0, tc.end); err != nil {
			r.op(fmt.Sprintf("uw-dpq full-span query: %v", err))
		}
		// The data-plane victims' intervals, re-issued asynchronously
		// once the replay is done: the inline query's share of a freeze.
		for j, dq := range dqs {
			t := time.Now()
			rep, err := sys.QueryInterval(0, dq.EnqTime, dq.DeqTime)
			dpqQueryUs = append(dpqQueryUs, usSince(t))
			if err != nil {
				r.op(fmt.Sprintf("uw-dpq re-issued answer %d: %v", j, err))
			} else if !reflect.DeepEqual(rep, dq.Culprits) {
				r.op(fmt.Sprintf("uw-dpq re-issued answer %d: differs from the data-plane answer", j))
			} else {
				r.op("")
			}
		}

		// Asynchronous diagnoses of depth-stratified victims beside the
		// history's segment log: direct, indirect and original culprits.
		// query_* times the direct culprits; the indirect and original
		// queries' costs follow the regime length and checkpoint placement
		// a seed produces, so they are reported on their own.
		all := make([]int, len(tc.victims))
		for i := range all {
			all[i] = i
		}
		query = timeDirect(sys, tc.victims, all, tr, query)
		for _, v := range tc.victims {
			q := tr.req()
			vh := tr.begin("bench.diagnosis", -1, q)
			_, pt, err := diagnoseTimed(sys, v, tr, vh, q)
			tr.finish(vh)
			indirect = append(indirect, pt.indirect)
			original = append(original, pt.original)
			if err != nil {
				r.op(fmt.Sprintf("uw-dpq diagnosis [%d,%d): %v", v.enq, v.deq, err))
			} else {
				r.op("")
			}
		}
		hs, _ := sys.HistoryStats()
		hist.Appended += hs.Appended
		hist.AppendErrors += hs.AppendErrors
		hist.EncodedBytes += hs.EncodedBytes
		hist.RawBytes += hs.RawBytes
		hist.CacheHits += hs.CacheHits
		hist.CacheMisses += hs.CacheMisses
		if hs.AppendErrors > 0 {
			r.op(fmt.Sprintf("uw-dpq: %d history appends failed", hs.AppendErrors))
		}
		svc.Close()
		sys.Close()
		if tr != nil {
			// The traced run keeps its last replay's history: the
			// component replay re-encodes its retained checkpoints.
			os.RemoveAll(w.kept)
			w.kept = dir
		} else {
			os.RemoveAll(dir)
		}
	}
	runtime.ReadMemStats(&ms1)
	nRuns := float64(len(mpps))
	r.set("ingest_mpps", median(mpps))
	r.latency("answer", dpqUs)
	r.set(dpqP50, median(dpqUs))
	r.set(headlineCost, median(dpqUs))
	r.latency("query", query)
	r.latency("query.indirect", indirect)
	r.latency("query.original", original)
	r.latency("stream.lag", lagUs)
	var acc accuracy
	for _, tc := range w.traces {
		acc.p += tc.acc.p
		acc.r += tc.acc.r
		acc.n += tc.acc.n
	}
	acc.set(r)
	r.note("uw-dpq: %d replays of %d packets; ingest %.3f Mpkt/s (median); answer = data-plane query (freezing Observe call)", len(mpps), n, median(mpps))
	r.set("bench.query_samples", float64(len(query)))
	r.set("bench.answer_samples", float64(len(dpqUs)))
	r.set("control.special_freezes", float64(special)/nRuns)
	r.set("control.dp_suppressed", float64(suppressed)/nRuns)
	r.set("control.infeasible_flips", float64(infeasible)/nRuns)
	if special+suppressed > 0 {
		r.set("control.dp_freeze_frac", float64(special)/float64(special+suppressed))
	}
	r.set("control.flips", float64(flips)/nRuns)
	r.set("control.dpq_query_us", median(dpqQueryUs))
	r.set("stream.frames", float64(frames)/nRuns)
	r.set("stream.bytes", float64(bytes)/nRuns)
	r.set("stream.resyncs", float64(resyncs))
	r.note("stream: %d frames (%d replayed from the log), %d resyncs", frames, replays, resyncs)
	if hist.Appended > 0 {
		r.set("histstore.bytes_per_cp", float64(hist.EncodedBytes)/float64(hist.Appended))
		r.set("histstore.compression_ratio", float64(hist.RawBytes)/float64(hist.EncodedBytes))
	}
	r.set("histstore.append_errors", float64(hist.AppendErrors))
	r.set("histstore.cache_hits", float64(hist.CacheHits)/nRuns)
	r.set("histstore.cache_misses", float64(hist.CacheMisses)/nRuns)
	r.set("runtime.alloc_bytes_per_pkt", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(pkts))
	var flipUs []float64
	for _, i := range w.flips {
		flipUs = append(flipUs, float64(durs[i])/1e3)
	}
	r.set("control.flip_us", median(flipUs))
	return nil
}

func (w *uwDPQ) components(tr *tracer, r *result) error {
	w.tm.report(r)
	plain := printqueue.DefaultConfig(0)
	plain.MaxCheckpoints = uwDPQMaxCPs
	tc := w.last
	ns, _, err := serialReplay(plain, tc.stream, flipSchedule(tc.stream, uint64(plain.TimeWindows.SetPeriod()), nil), tc.end, tr)
	if err != nil {
		return err
	}
	r.set("control.observe_ns_per_pkt", ns)
	ins, obs, err := registerReplay(tc.stream, uwTW, uwQM, tr)
	if err != nil {
		return err
	}
	r.set("timewindow.insert_ns", ins)
	r.set("qmonitor.observe_ns", obs)
	if err := snapshotReplay(tc.stream, w.dpIdx, w.flips, tr, r); err != nil {
		return err
	}
	return recordReplay(w.kept, filepath.Join(w.scratch, "append-replay"), tr, r)
}

// snapshotReplay replays a stream into standalone registers rotated the
// way the control plane rotates its four register sets (a periodic flip
// toggles the low selector bit, a data-plane freeze the high one, and the
// queue monitor's stack top carries over), so each frozen set holds what
// the system's did, and times the time window and queue monitor snapshots
// at every data-plane freeze. The replay runs twice, each pass after a
// collection, and reports the second, whose snapshots reuse the first
// pass's memory as the system's freezes reuse their predecessors' instead
// of faulting in fresh pages.
func snapshotReplay(stream []deq, dps, flips []int, tr *tracer, r *result) error {
	if len(dps) == 0 {
		return fmt.Errorf("snapshot replay: no data-plane freezes to replay")
	}
	var snapTW, snapQM []float64
	for pass := 0; pass < 2; pass++ {
		runtime.GC()
		snapTW, snapQM = snapTW[:0], snapQM[:0]
		var tws [4]*timewindow.Windows
		var qms [4]*qmonitor.Monitor
		for i := range tws {
			var err error
			if tws[i], err = timewindow.New(uwTW, nil); err != nil {
				return err
			}
			if qms[i], err = qmonitor.New(uwQM, nil); err != nil {
				return err
			}
		}
		sel := 0
		toggle := func(bit int) {
			next := sel ^ bit
			qms[next].Adopt(qms[sel].Top(), qms[sel].Seq())
			sel = next
		}
		req := tr.req()
		root := tr.begin("bench.snapshot_replay", -1, req)
		nextDP, nextFlip := 0, 0
		for i := range stream {
			if nextFlip < len(flips) && flips[nextFlip] == i {
				nextFlip++
				toggle(1)
			}
			k := internalFlow(stream[i].pkt.Flow)
			tws[sel].Insert(k, stream[i].deq)
			qms[sel].Observe(k, stream[i].depth)
			if nextDP >= len(dps) || dps[nextDP] != i {
				continue
			}
			nextDP++
			h := tr.begin("timewindow.snapshot", root, req)
			t := time.Now()
			tws[sel].Snapshot()
			snapTW = append(snapTW, usSince(t))
			tr.finish(h)
			h = tr.begin("qmonitor.snapshot", root, req)
			t = time.Now()
			qms[sel].Snapshot()
			snapQM = append(snapQM, usSince(t))
			tr.finish(h)
			toggle(2)
		}
		tr.finish(root)
	}
	r.set("timewindow.snapshot_us", median(snapTW))
	r.set("qmonitor.snapshot_us", median(snapQM))
	return nil
}

// recordReplay times, over the data-plane checkpoints a replay retained
// in its durable history, the rest of a freeze: Algorithm 3's filter, the
// record encoding, and the append to a scratch segment log.
func recordReplay(histDir, scratch string, tr *tracer, r *result) error {
	if histDir == "" {
		return fmt.Errorf("record replay: no retained history")
	}
	hist, err := histstore.Open(histstore.Options{Dir: histDir}, telemetry.NewRegistry())
	if err != nil {
		return err
	}
	defer hist.Close()
	cps, err := hist.Covering(0, 0, ^uint64(0))
	if err != nil {
		return err
	}
	st, err := histstore.Open(histstore.Options{Dir: scratch}, telemetry.NewRegistry())
	if err != nil {
		return err
	}
	defer func() {
		st.Close()
		os.RemoveAll(scratch)
	}()
	var filter, encode, appendUs, write []float64
	var buf []byte
	req := tr.req()
	root := tr.begin("bench.record_replay", -1, req)
	defer tr.finish(root)
	for _, cc := range cps {
		rec := cc.Record()
		if !rec.Special {
			continue
		}
		h := tr.begin("timewindow.filter", root, req)
		t := time.Now()
		rec.TW.Filter()
		filter = append(filter, usSince(t))
		tr.finish(h)
		h = tr.begin("histstore.encode", root, req)
		t = time.Now()
		buf, err = histstore.EncodeRecord(buf[:0], rec)
		enc := usSince(t)
		tr.finish(h)
		if err != nil {
			return err
		}
		h = tr.begin("histstore.append", root, req)
		t = time.Now()
		err = st.Append(rec)
		app := usSince(t)
		tr.finish(h)
		if err != nil {
			return err
		}
		encode = append(encode, enc)
		appendUs = append(appendUs, app)
		// Store.Append encodes before it writes; what it adds to the
		// encoding is the per-freeze difference.
		write = append(write, max(app-enc, 0))
	}
	if len(encode) == 0 {
		return fmt.Errorf("record replay: no data-plane checkpoints retained")
	}
	r.set("checkpoint.filter_us", median(filter))
	r.set("histstore.encode_us", median(encode))
	r.set("histstore.append_us", median(appendUs))
	r.set(appendWriteUs, median(write))
	r.note("record replay over %d retained data-plane checkpoints", len(encode))
	return nil
}

// appendWriteUs is the internal metric the append share is computed from:
// the median of what Store.Append adds to the encoding, per freeze.
const appendWriteUs = "_append_write_us"

func (w *uwDPQ) close() {}
