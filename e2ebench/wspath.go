package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"printqueue/internal/core/control"
	"printqueue/internal/core/histstore"
	"printqueue/internal/fleet"
	"printqueue/internal/flow"
	"printqueue/internal/groundtruth"
	"printqueue/internal/pktrec"
	"printqueue/internal/switchsim"
)

// ws-path and ws-mirror: a 3-hop chain at 10 Gb/s carrying a WS trace,
// with seeded WS cross traffic joining at the middle hop. Every hop keeps
// a durable history and a hot ring of only wsMaxCPs checkpoints, so most
// of the history is cold. Everything is ingested in setup and served by
// ServeQueries on loopback. One closed-loop client then diagnoses sampled
// victims of the middle hop in process and through a fleet collector: the
// plain network fan-out (ws-path) or the mirrored collector (ws-mirror).
const (
	wsHops        = 3
	wsPackets     = 150000
	wsCrossLoad   = 0.35
	wsLinkDelayNs = 1000
	wsMaxCPs      = 4
	// wsPollsPerSet checkpoints each hop several times per set period, so
	// the trace leaves a history several hot rings deep.
	wsPollsPerSet = 4
	// wsIngestReps is how many times setup ingests each hop's stream.
	wsIngestReps = 4
	wsVictims    = 3000
	// wsMaxShift bounds the shift nextFresh gives an interval; victims
	// are kept only when their shifted intervals stay inside every hop's
	// history.
	wsMaxShift = 1 << 16
	// wsMinDepth is the victims' minimum enqueue depth at the middle hop
	// (about ten near-MTU packets queued).
	wsMinDepth = 200
	// wsScored is how many victims every run scores, so precision and
	// recall are a function of the seed alone.
	wsScored   = 200
	wsTopK     = 10
	wsWarmup   = 30 * time.Second
	wsSamples  = 400 // victims per traced component pass
	middleHop  = 1
	victimPort = 0
)

type wsPath struct {
	scratch string
	mirror  bool

	round int
	tm    timing
	// Over all setup rounds: hop ingest rates (Mpkt/s) and mirror
	// catch-up times (ms).
	ingestMpps []float64
	catchupMs  []float64
	allocPkt   float64

	sys     []*control.System
	qs      []*control.QueryServer
	srv     []*control.NetServer
	gt      []*groundtruth.Collector
	plain   *fleet.Collector
	mirr    *fleet.Collector
	hops    []fleet.HopRef
	end     uint64 // smallest finalize freeze across hops
	victims []victim
	dir     string

	// asked holds every interval the mirrored collector has been asked,
	// so ws-mirror's answer latency only ever counts memo misses.
	asked map[[2]uint64]bool
	pass  uint64
	keys  []flow.Key
	histA [2]int64 // history cache hits and misses at the end of setup
}

func (w *wsPath) setup(seed uint64, tr *tracer) (uint64, error) {
	w.round++
	w.tm = timing{tr: tr}
	w.dir = filepath.Join(w.scratch, fmt.Sprintf("setup-%d", w.round))
	mainPkts, err := generate(wsTrace(seed, wsPackets, 1), &w.tm)
	if err != nil {
		return 0, err
	}
	// Cross traffic spans the main trace, so the middle hop congests
	// throughout and its victims reach every part of the history.
	crossCfg := wsTrace(seed^0x9e3779b97f4a7c15, 0, wsCrossLoad)
	crossCfg.DurationNs = mainPkts[len(mainPkts)-1].Arrival
	crossPkts, err := generate(crossCfg, &w.tm)
	if err != nil {
		return 0, err
	}
	h := newDigest()
	main := values(mainPkts, &h)
	cross := values(crossPkts, &h)

	chain, err := switchsim.NewChain(switchsim.ChainConfig{
		Hops: wsHops, Ports: 1, LinkDelayNs: wsLinkDelayNs,
		Port: switchsim.PortConfig{LinkBps: linkBps, BufferCells: bufferCells},
	})
	if err != nil {
		return 0, err
	}
	recs := make([][]pktrec.Packet, wsHops)
	w.gt = make([]*groundtruth.Collector, wsHops)
	for k := 0; k < wsHops; k++ {
		k := k
		w.gt[k] = groundtruth.NewCollector()
		p := chain.Switch(k).Port(victimPort)
		p.AddEgressHook(w.gt[k])
		p.AddEgressHook(switchsim.EgressFunc(func(pk *pktrec.Packet) { recs[k] = append(recs[k], *pk) }))
	}
	h0 := tr.begin("switchsim.chain", -1, 0)
	t0 := time.Now()
	chain.Run(main, [][]pktrec.Packet{middleHop: cross})
	w.tm.simNs += time.Since(t0).Nanoseconds()
	tr.finish(h0)
	w.tm.simPkts += int64(len(main) + len(cross))

	// Ingest each hop's recorded dequeue stream into its System. One
	// ingest of a hop's stream takes tens of milliseconds, too short to
	// time steadily, so each stream is ingested wsIngestReps times into
	// fresh Systems, each after a collection, and the last one is kept.
	w.end = ^uint64(0)
	var allocated, ingested uint64
	for k := 0; k < wsHops; k++ {
		fin := chain.Switch(k).Port(victimPort).Now() + 1
		w.end = min(w.end, fin)
		for rep := 0; rep < wsIngestReps; rep++ {
			dir := filepath.Join(w.dir, fmt.Sprintf("hop%d-%d", k, rep))
			sys, err := control.New(control.Config{
				TW: wsTW, QM: wsQM, Ports: []int{victimPort}, MaxCheckpoints: wsMaxCPs,
				PollPeriodNs: wsTW.SetPeriod() / wsPollsPerSet,
				History:      &histstore.Options{Dir: dir},
			})
			if err != nil {
				return 0, err
			}
			runtime.GC()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			h := tr.begin("control.ingest", -1, 0)
			t := time.Now()
			for i := range recs[k] {
				sys.OnDequeue(&recs[k][i])
			}
			sys.Finalize(fin)
			el := time.Since(t)
			tr.finish(h)
			runtime.ReadMemStats(&ms1)
			w.ingestMpps = append(w.ingestMpps, float64(len(recs[k]))/el.Seconds()/1e6)
			allocated += ms1.TotalAlloc - ms0.TotalAlloc
			ingested += uint64(len(recs[k]))
			if rep < wsIngestReps-1 {
				sys.Close()
				os.RemoveAll(dir)
				continue
			}
			w.sys = append(w.sys, sys)
		}
		for i := range recs[k] {
			d := recordDeq(&recs[k][i])
			d.hash(&h)
		}
	}
	w.allocPkt = float64(allocated) / float64(ingested)

	// Serve every hop on loopback and register it with the collectors.
	w.plain = fleet.New(fleet.Options{})
	if w.mirror {
		w.mirr = fleet.New(fleet.Options{Mirror: true, MirrorDir: filepath.Join(w.dir, "mirror")})
	}
	w.hops = make([]fleet.HopRef, wsHops)
	for k, sys := range w.sys {
		qs := control.NewQueryServer(sys)
		qs.Start(2)
		w.qs = append(w.qs, qs)
		srv, err := control.ServeQueries("127.0.0.1:0", qs)
		if err != nil {
			return 0, err
		}
		w.srv = append(w.srv, srv)
		info := fleet.SwitchInfo{ID: fmt.Sprintf("sw%d", k), Hop: k, Addr: srv.Addr().String()}
		if err := w.plain.Register(info); err != nil {
			return 0, err
		}
		if w.mirr != nil {
			if err := w.mirr.Register(info); err != nil {
				return 0, err
			}
		}
		w.hops[k] = fleet.HopRef{SwitchID: info.ID, Port: victimPort}
	}
	if w.mirr != nil {
		// Mirror catch-up: poll until every hop answers the full span from
		// its replica. This also guarantees each mirror's stream is up
		// before anything closes it.
		t := time.Now()
		if err := waitMirrored(w.mirr, w.hops, w.end, wsWarmup); err != nil {
			return 0, err
		}
		w.catchupMs = append(w.catchupMs, float64(time.Since(t).Nanoseconds())/1e6)
	}

	// Victims of the middle hop whose interval every hop's history covers.
	w.victims = w.victims[:0]
	for _, v := range sampleVictims(w.gt[middleHop:middleHop+1], []depthBucket{{wsMinDepth, 0}}, wsVictims) {
		if v.deq+wsMaxShift < w.end {
			w.victims = append(w.victims, v)
		}
	}
	if len(w.victims) < wsScored {
		return 0, fmt.Errorf("ws: only %d victims at the middle hop", len(w.victims))
	}
	w.asked = make(map[[2]uint64]bool)
	w.pass = 0
	w.histA = w.histCounts()
	return uint64(h), nil
}

// values copies generated packets into a schedule and folds them into the
// input digest.
func values(pkts []*pktrec.Packet, h *digest) []pktrec.Packet {
	out := make([]pktrec.Packet, len(pkts))
	for i, p := range pkts {
		out[i] = *p
		h.u64(p.Flow.Hash(0))
		h.u64(uint64(p.Bytes))
		h.u64(p.Arrival)
	}
	return out
}

// waitMirrored polls a full-span path query until every hop is served
// from its mirror.
func waitMirrored(c *fleet.Collector, hops []fleet.HopRef, end uint64, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		warm := true
		for _, res := range c.QueryPath(hops, 0, end) {
			if res.Err != nil || !res.Mirrored {
				warm = false
			}
		}
		if warm {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ws: mirrors did not catch up to %d within %v", end, limit)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// histCounts sums the hops' cold-tier cache hits and misses.
func (w *wsPath) histCounts() [2]int64 {
	var out [2]int64
	for _, sys := range w.sys {
		if st, ok := sys.HistoryStats(); ok {
			out[0] += st.CacheHits
			out[1] += st.CacheMisses
		}
	}
	return out
}

// interval returns victim j's query interval. Each pass over the victim
// list shifts the interval by one more nanosecond, so the mirrored
// collector is never asked the same interval twice.
func (w *wsPath) interval(j int) (victim, uint64, uint64) {
	v := w.victims[j%len(w.victims)]
	shift := uint64(j / len(w.victims))
	return v, v.enq + shift, v.deq + shift
}

// diagnoseLocal is the middle hop's in-process diagnosis of victim v
// over [s, e): direct culprits, indirect culprits from the regime start,
// and original culprits. It returns the direct answer, which the
// collectors' answers are checked against, and its query time in
// microseconds.
func (w *wsPath) diagnoseLocal(v victim, s, e uint64, tr *tracer, parent int32, req uint64) (flow.Counts, float64, error) {
	sys := w.sys[middleHop]
	h := tr.begin("control.query_direct", parent, req)
	t := time.Now()
	direct, err := sys.QueryInterval(victimPort, s, e)
	us := usSince(t)
	tr.finish(h)
	if err != nil {
		return nil, us, err
	}
	if rs := v.regimeStart + (s - v.enq); rs < s {
		h = tr.begin("control.query_indirect", parent, req)
		_, err = sys.QueryInterval(victimPort, rs, s)
		tr.finish(h)
		if err != nil {
			return nil, us, err
		}
	}
	h = tr.begin("control.query_original", parent, req)
	_, err = sys.QueryOriginal(victimPort, 0, s)
	tr.finish(h)
	return direct, us, err
}

// sameCounts reports whether wire-form counts (flow keys rendered as
// strings) hold exactly the in-process counts.
func sameCounts(wire map[string]float64, want flow.Counts) bool {
	if len(wire) != len(want) {
		return false
	}
	for s, n := range wire {
		k, err := flow.ParseKey(s)
		if got, ok := want[k]; err != nil || !ok || got != n {
			return false
		}
	}
	return true
}

// checkNetwork verifies a network path diagnosis: complete, never served
// by a mirror, and every hop's counts equal to that hop's in-process
// answer over the same interval.
func (w *wsPath) checkNetwork(d *fleet.PathDiagnosis, s, e uint64, mid flow.Counts) string {
	if d.Partial {
		return fmt.Sprintf("ws-path [%d,%d): partial diagnosis, failed hops %v", s, e, d.FailedHops())
	}
	for k, hd := range d.Hops {
		want := mid
		if k != middleHop {
			var err error
			if want, err = w.sys[k].QueryInterval(victimPort, s, e); err != nil {
				return fmt.Sprintf("ws-path [%d,%d) hop %d: in-process query: %v", s, e, k, err)
			}
		}
		if hd.Mirrored {
			return fmt.Sprintf("ws-path [%d,%d) hop %d: served by a mirror", s, e, k)
		}
		if !sameCounts(hd.Counts, want) {
			return fmt.Sprintf("ws-path [%d,%d) hop %d: network counts differ from the switch's in-process answer", s, e, k)
		}
	}
	return ""
}

// checkMirror verifies a mirrored path diagnosis against the network
// collector's: every hop served fresh from its mirror, with the same
// counts and the same culprit ranking.
func checkMirror(got, want *fleet.PathDiagnosis, s, e uint64) string {
	if got.Partial || want.Partial {
		return fmt.Sprintf("ws-mirror [%d,%d): partial diagnosis (mirrored %v, network %v)", s, e, got.FailedHops(), want.FailedHops())
	}
	for k := range got.Hops {
		g, n := &got.Hops[k], &want.Hops[k]
		switch {
		case !g.Mirrored:
			return fmt.Sprintf("ws-mirror [%d,%d) hop %d: fell back to the network", s, e, k)
		case g.Stale:
			return fmt.Sprintf("ws-mirror [%d,%d) hop %d: covered interval answered stale", s, e, k)
		case !reflect.DeepEqual(g.Counts, n.Counts):
			return fmt.Sprintf("ws-mirror [%d,%d) hop %d: mirrored counts differ from the network's", s, e, k)
		case !reflect.DeepEqual(g.Culprits, n.Culprits):
			return fmt.Sprintf("ws-mirror [%d,%d) hop %d: mirrored ranking differs from the network's", s, e, k)
		}
	}
	return ""
}

// nextFresh returns the next interval the mirrored collector has never
// been asked, and marks it asked; ok is false once every shift is used.
func (w *wsPath) nextFresh() (v victim, s, e uint64, ok bool) {
	for w.pass < uint64(len(w.victims))*wsMaxShift {
		j := int(w.pass)
		w.pass++
		v, s, e := w.interval(j)
		key := [2]uint64{s, e}
		if !w.asked[key] {
			w.asked[key] = true
			return v, s, e, true
		}
	}
	return victim{}, 0, 0, false
}

func (w *wsPath) measure(d time.Duration, tr *tracer, r *result) error {
	var query, answer []float64
	var acc accuracy
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	served, legs := 0, 0
	// Accuracy is scored on the same victims every time: the middle hop's
	// direct answers for wsScored victims spread over the list.
	for j := 0; j < wsScored; j++ {
		v := w.victims[j*len(w.victims)/wsScored]
		c, err := w.sys[middleHop].QueryInterval(victimPort, v.enq, v.deq)
		if err != nil {
			return err
		}
		acc.add(c, v.truth)
	}
	deadline := time.Now().Add(d)
	n := 0
	for ; n == 0 || time.Now().Before(deadline); n++ {
		v, s, e, ok := w.nextFresh()
		if !ok {
			return fmt.Errorf("ws: every victim interval has been asked")
		}
		req := tr.req()
		root := tr.begin("bench.diagnosis", -1, req)
		local, us, err := w.diagnoseLocal(v, s, e, tr, root, req)
		query = append(query, us)
		if err != nil {
			tr.finish(root)
			r.op(fmt.Sprintf("ws in-process [%d,%d): %v", s, e, err))
			continue
		}
		label := fmt.Sprintf("victim-%d", n)
		if !w.mirror {
			h := tr.begin("fleet.diagnose", root, req)
			t := time.Now()
			pd, err := w.plain.Diagnose(label, w.hops, s, e, wsTopK)
			answer = append(answer, usSince(t))
			tr.finish(h)
			tr.finish(root)
			if err != nil {
				r.op(fmt.Sprintf("ws-path [%d,%d): %v", s, e, err))
				continue
			}
			r.op(w.checkNetwork(pd, s, e, local))
			w.collectKeys(pd)
			continue
		}
		h := tr.begin("fleet.mirror_diagnose", root, req)
		t := time.Now()
		md, err := w.mirr.Diagnose(label, w.hops, s, e, wsTopK)
		answer = append(answer, usSince(t))
		tr.finish(h)
		tr.finish(root)
		if err != nil {
			r.op(fmt.Sprintf("ws-mirror [%d,%d): %v", s, e, err))
			continue
		}
		for _, hd := range md.Hops {
			legs++
			if hd.Mirrored {
				served++
			}
		}
		pd, err := w.plain.Diagnose(label, w.hops, s, e, wsTopK)
		if err != nil {
			r.op(fmt.Sprintf("ws-mirror [%d,%d): network reference: %v", s, e, err))
			continue
		}
		r.op(checkMirror(md, pd, s, e))
		w.collectKeys(md)
	}
	runtime.ReadMemStats(&ms1)
	r.set("ingest_mpps", median(w.ingestMpps))
	r.latency("query", query)
	r.latency("answer", answer)
	r.set(headlineCost, median(answer))
	acc.set(r)
	name := "ws-path"
	how := "3-hop Collector.Diagnose over the network fan-out"
	if w.mirror {
		name = "ws-mirror"
		how = "3-hop Collector.Diagnose on the mirrored collector, never-asked intervals (memo misses)"
		if legs > 0 {
			r.set("fleet.mirror_served_frac", float64(served)/float64(legs))
		}
	}
	r.note("%s: %d diagnoses over %d victims; answer = %s; ingest_mpps = hop ingest during setup", name, n, len(w.victims), how)
	r.set("bench.query_samples", float64(len(query)))
	r.set("bench.answer_samples", float64(len(answer)))
	r.set("runtime.alloc_bytes_per_query", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(max(n, 1)))
	return nil
}

// collectKeys keeps a bounded sample of answer flow keys for the flow
// format/parse replay.
func (w *wsPath) collectKeys(d *fleet.PathDiagnosis) {
	if len(w.keys) >= 1<<16 {
		return
	}
	for _, hd := range d.Hops {
		for s := range hd.Counts {
			if k, err := flow.ParseKey(s); err == nil {
				w.keys = append(w.keys, k)
			}
		}
	}
}

func (w *wsPath) components(tr *tracer, r *result) error {
	w.tm.report(r)
	r.set("runtime.alloc_bytes_per_pkt", w.allocPkt)
	if len(w.catchupMs) > 0 {
		r.set("fleet.mirror_catchup_ms", median(w.catchupMs))
	}
	hc := w.histCounts()
	r.set("histstore.cache_hits", float64(hc[0]-w.histA[0]))
	r.set("histstore.cache_misses", float64(hc[1]-w.histA[1]))

	// Per-query costs on the middle hop, hot and cold tiers apart.
	sys := w.sys[middleHop]
	cps := sys.Checkpoints(victimPort)
	if len(cps) == 0 {
		return fmt.Errorf("ws: middle hop retains no checkpoints")
	}
	hotStart := cps[0].PrevFreeze
	var hot, cold, indirect, original, flows []float64
	req := tr.req()
	root := tr.begin("bench.query_replay", -1, req)
	for j := 0; j < wsSamples && j < len(w.victims); j++ {
		v := w.victims[j*len(w.victims)/wsSamples]
		t0 := nowNs()
		c, err := sys.QueryInterval(victimPort, v.enq, v.deq)
		t1 := nowNs()
		if err != nil {
			return err
		}
		tr.add("control.query_interval", t0, t1, root, req)
		us := float64(t1-t0) / 1e3
		if v.enq >= hotStart {
			hot = append(hot, us)
		} else {
			cold = append(cold, us)
		}
		flows = append(flows, float64(len(c)))
		if v.regimeStart < v.enq {
			t := time.Now()
			if _, err := sys.QueryInterval(victimPort, v.regimeStart, v.enq); err != nil {
				return err
			}
			indirect = append(indirect, usSince(t))
		}
		t := time.Now()
		if _, err := sys.QueryOriginal(victimPort, 0, v.enq); err != nil {
			return err
		}
		original = append(original, usSince(t))
	}
	tr.finish(root)
	r.latency("query.hot", hot)
	r.latency("query.cold", cold)
	r.latency("query.indirect", indirect)
	r.latency("query.original", original)
	var fsum float64
	for _, f := range flows {
		fsum += f
	}
	r.set("query.flows_per_answer", fsum/float64(max(len(flows), 1)))

	// The binary mux wire to the middle hop.
	mc, err := control.DialMux(w.srv[middleHop].Addr().String())
	if err != nil {
		return err
	}
	var mux, qp, hopLat, rank []float64
	for j := 0; j < wsSamples && j < len(w.victims); j++ {
		v := w.victims[j*len(w.victims)/wsSamples]
		h := tr.begin("control.mux_interval", -1, req)
		t := time.Now()
		_, err := mc.Interval(victimPort, v.enq, v.deq)
		mux = append(mux, usSince(t))
		tr.finish(h)
		if err != nil {
			r.op(fmt.Sprintf("ws mux interval: %v", err))
		}
		h = tr.begin("fleet.querypath", -1, req)
		t = time.Now()
		res := w.plain.QueryPath(w.hops, v.enq, v.deq)
		q := usSince(t)
		tr.finish(h)
		qp = append(qp, q)
		var slowest float64
		for _, hr := range res {
			slowest = max(slowest, float64(hr.Latency.Nanoseconds())/1e3)
		}
		hopLat = append(hopLat, slowest)
		t = time.Now()
		if _, err := w.plain.Diagnose("rank", w.hops, v.enq, v.deq, wsTopK); err != nil {
			r.op(fmt.Sprintf("ws rank diagnosis: %v", err))
		}
		rank = append(rank, usSince(t)-q)
	}
	r.latency("control.mux_interval", mux)
	r.set("control.mux_retries", float64(mc.Retries()))
	r.set("control.mux_timeouts", float64(mc.Timeouts()))
	r.set("control.mux_reconnects", float64(mc.Reconnects()))
	mc.Close()
	r.set("fleet.querypath_us", median(qp))
	r.set("fleet.hop_latency_us", median(hopLat))
	r.set("fleet.rank_us", median(rank))

	if w.mirr != nil {
		// Memo misses through QueryPath, then a repeat pass of the same
		// intervals: memo hits, reported on their own.
		var miss, hit []float64
		var again [][2]uint64
		for j := 0; j < wsSamples; j++ {
			_, s, e, ok := w.nextFresh()
			if !ok {
				return fmt.Errorf("ws: every victim interval has been asked")
			}
			h := tr.begin("fleet.mirror_querypath", -1, req)
			t := time.Now()
			w.mirr.QueryPath(w.hops, s, e)
			miss = append(miss, usSince(t))
			tr.finish(h)
			again = append(again, [2]uint64{s, e})
		}
		for _, iv := range again {
			h := tr.begin("fleet.mirror_hit", -1, req)
			t := time.Now()
			if _, err := w.mirr.Diagnose("repeat", w.hops, iv[0], iv[1], wsTopK); err != nil {
				r.op(fmt.Sprintf("ws mirror repeat: %v", err))
			}
			hit = append(hit, usSince(t))
			tr.finish(h)
		}
		r.set("fleet.mirror_querypath_us", median(miss))
		r.set("fleet.mirror_hit_us", median(hit))
	}

	// Flow-key formatting and parsing over the keys the answers carried.
	if len(w.keys) > 0 {
		strs := make([]string, len(w.keys))
		h := tr.begin("flow.format", -1, req)
		t := time.Now()
		for i, k := range w.keys {
			strs[i] = k.String()
		}
		r.set("flow.format_ns_per_key", float64(time.Since(t).Nanoseconds())/float64(len(w.keys)))
		tr.finish(h)
		h = tr.begin("flow.parse", -1, req)
		t = time.Now()
		for _, s := range strs {
			if _, err := flow.ParseKey(s); err != nil {
				r.op(fmt.Sprintf("ws flow key %q: %v", s, err))
			}
		}
		r.set("flow.parse_ns_per_key", float64(time.Since(t).Nanoseconds())/float64(len(w.keys)))
		tr.finish(h)
	}
	return nil
}

func (w *wsPath) close() {
	if w.mirr != nil {
		w.mirr.Close()
		w.mirr = nil
	}
	if w.plain != nil {
		w.plain.Close()
		w.plain = nil
	}
	for _, s := range w.srv {
		s.Close()
	}
	for _, q := range w.qs {
		q.Stop()
	}
	for _, s := range w.sys {
		s.Close()
	}
	w.srv, w.qs, w.sys = nil, nil, nil
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
