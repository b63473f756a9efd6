package main

import (
	"fmt"
	"time"

	"printqueue"
	"printqueue/internal/core/qmonitor"
	"printqueue/internal/core/timewindow"
	"printqueue/internal/flow"
	"printqueue/internal/groundtruth"
	"printqueue/internal/pktrec"
	"printqueue/internal/switchsim"
	"printqueue/internal/trace"
)

// linkBps is every simulated port's line rate (the paper's 10 Gb/s).
const linkBps = 10e9

// bufferCells is every simulated port's buffer, deep enough for the
// paper's >20k-cell victims.
const bufferCells = 40000

// The paper's per-trace parameters (§7.1): m0=6, alpha=2 for UW's ~100 B
// packets; m0=10, alpha=1 for the near-MTU WS trace; T=4, k=12 for both.
var (
	uwTW = timewindow.Config{M0: 6, K: 12, Alpha: 2, T: 4, MinPktTxDelayNs: 80}
	wsTW = timewindow.Config{M0: 10, K: 12, Alpha: 1, T: 4, MinPktTxDelayNs: 1200}
	uwQM = qmonitor.Config{MaxDepthCells: 32768, GranuleCells: 2}
	wsQM = qmonitor.Config{MaxDepthCells: 32768, GranuleCells: 19}
)

// uwTrace is the UW preset: episodic bursts that reach every queue-depth
// bucket of the paper's figures.
func uwTrace(seed uint64, port, packets int) trace.Config {
	return trace.Config{
		Workload: trace.UW, Seed: seed, Port: port, LinkBps: linkBps, Packets: packets,
		Episodic: true, CalmLoad: 0.9, BurstLoad: 3.2,
		MeanCalmNs: 100e3, MeanBurstNs: 150e3, FlowArrivalRate: 30000,
	}
}

// wsTrace is the WS preset (near-MTU packets, tens of flows in flight).
// load scales the calm and burst offered loads, so cross traffic can join
// a path without saturating it on its own.
func wsTrace(seed uint64, packets int, load float64) trace.Config {
	return trace.Config{
		Workload: trace.WS, Seed: seed, LinkBps: linkBps, Packets: packets,
		Episodic: true, CalmLoad: 0.9 * load, BurstLoad: 2.2 * load,
		MeanCalmNs: 500e3, MeanBurstNs: 1e6, FlowArrivalRate: 4000, MaxActiveFlows: 32,
	}
}

// deq is one recorded dequeue: the packet as the analysis program sees it.
type deq struct {
	pkt   printqueue.Packet
	enq   uint64
	deq   uint64
	depth int
}

func publicFlow(k flow.Key) printqueue.FlowID {
	return printqueue.FlowID{SrcIP: k.SrcIP, DstIP: k.DstIP, SrcPort: k.SrcPort, DstPort: k.DstPort, Proto: uint8(k.Proto)}
}

func internalFlow(f printqueue.FlowID) flow.Key {
	return flow.Key{SrcIP: f.SrcIP, DstIP: f.DstIP, SrcPort: f.SrcPort, DstPort: f.DstPort, Proto: flow.Proto(f.Proto)}
}

func recordDeq(p *pktrec.Packet) deq {
	return deq{
		pkt:   printqueue.Packet{Flow: publicFlow(p.Flow), Bytes: p.Bytes, Arrival: p.Arrival, Port: p.Port, Queue: p.Queue},
		enq:   p.Meta.EnqTimestamp,
		deq:   p.Meta.DeqTimestamp(),
		depth: p.Meta.EnqQdepth,
	}
}

// hash folds one recorded dequeue into the input digest.
func (d *deq) hash(h *digest) {
	k := internalFlow(d.pkt.Flow)
	h.u64(uint64(k.Hash(0)))
	h.u64(uint64(d.pkt.Bytes)<<32 | uint64(d.pkt.Port))
	h.u64(d.enq)
	h.u64(d.deq)
	h.u64(uint64(d.depth))
}

// timing accumulates the setup-time costs the traced run reports, and
// records a span around each call into the trace generator and the switch
// simulator when tr is non-nil.
type timing struct {
	tr             *tracer
	genNs, genPkts int64
	simNs, simPkts int64
}

// report sets the traced run's trace-generation and simulation costs.
func (tm *timing) report(r *result) {
	if tm.genPkts > 0 {
		r.set("trace.gen_ns_per_pkt", float64(tm.genNs)/float64(tm.genPkts))
	}
	if tm.simPkts > 0 {
		r.set("switchsim.ns_per_pkt", float64(tm.simNs)/float64(tm.simPkts))
	}
}

// generate runs the trace generator, charging its time to tm.
func generate(cfg trace.Config, tm *timing) ([]*pktrec.Packet, error) {
	h := tm.tr.begin("trace.generate", -1, 0)
	t0 := time.Now()
	pkts, err := trace.Generate(cfg)
	tm.tr.finish(h)
	if err != nil {
		return nil, err
	}
	if len(pkts) == 0 {
		return nil, fmt.Errorf("trace generator produced no packets")
	}
	tm.genNs += time.Since(t0).Nanoseconds()
	tm.genPkts += int64(len(pkts))
	return pkts, nil
}

// switchRun is one simulated switch's recorded output: per port, the
// dequeue stream in dequeue order and its ground truth.
type switchRun struct {
	streams [][]deq
	gt      []*groundtruth.Collector
	end     uint64 // one past the last dequeue on any port
}

// simulate replays seeded per-port UW traces through one simulated switch
// (switchsim stands in for the Tofino traffic manager) and records each
// port's dequeue stream. Ports are generated and drained one at a time, so
// only one port's schedule is held at once. Each port's stream is cut where its queue was
// last empty, so a replay is a set of whole congestion episodes and every
// port ends quiescent rather than at whatever depth the generator
// stopped; the ground truth is built from the cut streams.
func simulate(seed uint64, ports, perPort int, tm *timing) (*switchRun, error) {
	sw, err := switchsim.NewSwitch(ports, switchsim.PortConfig{LinkBps: linkBps, BufferCells: bufferCells})
	if err != nil {
		return nil, err
	}
	run := &switchRun{streams: make([][]deq, ports), gt: make([]*groundtruth.Collector, ports)}
	for p := 0; p < ports; p++ {
		p := p
		pkts, err := generate(uwTrace(seed*1000+uint64(p), p, perPort), tm)
		if err != nil {
			return nil, err
		}
		run.streams[p] = make([]deq, 0, len(pkts))
		port := sw.Port(p)
		port.AddEgressHook(switchsim.EgressFunc(func(pk *pktrec.Packet) {
			run.streams[p] = append(run.streams[p], recordDeq(pk))
		}))
		h := tm.tr.begin("switchsim.run", -1, 0)
		t0 := time.Now()
		for _, pk := range pkts {
			sw.Inject(pk)
		}
		port.Flush()
		tm.simNs += time.Since(t0).Nanoseconds()
		tm.tr.finish(h)
		tm.simPkts += int64(len(pkts))
	}
	for p, s := range run.streams {
		s = cutAtIdle(s)
		if len(s) == 0 {
			return nil, fmt.Errorf("port %d: empty dequeue stream", p)
		}
		run.streams[p] = s
		run.gt[p] = groundTruth(s)
		run.end = max(run.end, s[len(s)-1].deq+1)
	}
	return run, nil
}

// cutAtIdle drops the stream's tail from the last packet that found its
// queue empty (an enqueue depth no larger than its own cells).
func cutAtIdle(s []deq) []deq {
	for i := len(s) - 1; i > 0; i-- {
		if s[i].depth <= pktrec.Cells(s[i].pkt.Bytes) {
			return s[:i]
		}
	}
	return s
}

// groundTruth builds the per-packet ground truth of a dequeue stream.
func groundTruth(s []deq) *groundtruth.Collector {
	gt := groundtruth.NewCollector()
	for i := range s {
		d := &s[i]
		gt.Add(pktrec.Telemetry{
			Flow: internalFlow(d.pkt.Flow), EnqTimestamp: d.enq, DeqTimedelta: d.deq - d.enq,
			EnqQdepth: uint32(d.depth), Port: uint16(d.pkt.Port), Bytes: uint32(d.pkt.Bytes),
		})
	}
	return gt
}

// merge interleaves per-port dequeue streams into one stream in dequeue
// order (ties broken by port), as a multi-port egress pipeline emits them.
func merge(streams [][]deq) []deq {
	n := 0
	for _, s := range streams {
		n += len(s)
	}
	out := make([]deq, 0, n)
	idx := make([]int, len(streams))
	for len(out) < n {
		best := -1
		for p, s := range streams {
			if idx[p] < len(s) && (best < 0 || s[idx[p]].deq < streams[best][idx[best]].deq) {
				best = p
			}
		}
		out = append(out, streams[best][idx[best]])
		idx[best]++
	}
	return out
}

// victim is one diagnosed packet: its queuing interval, the start of its
// congestion regime, and its direct-culprit ground truth.
type victim struct {
	src         int // index of the ground truth it was sampled from
	port        int
	enq, deq    uint64
	regimeStart uint64
	truth       flow.Counts
}

// depthBucket is a range of enqueue-time queue depths in cells; hi == 0
// means unbounded.
type depthBucket struct{ lo, hi int }

// paperBuckets are the paper's victim queue-depth groups (§7.2).
var paperBuckets = []depthBucket{
	{1000, 2000}, {2000, 5000}, {5000, 10000}, {10000, 15000}, {15000, 20000}, {20000, 0},
}

// sampleVictims picks victims stratified by depth bucket, as the paper
// does: per bucket, up to perBucket victims evenly spaced over the
// candidates of every collector. Stratifying keeps the victims' depth mix,
// and with it the cost of their diagnoses, from swinging with the few
// deepest episodes a seed happens to produce.
func sampleVictims(gts []*groundtruth.Collector, buckets []depthBucket, perBucket int) []victim {
	type cand struct{ port, idx int }
	var out []victim
	for _, b := range buckets {
		lo, hi := b.lo, b.hi
		var cands []cand
		for p, gt := range gts {
			for _, i := range gt.SampleVictims(groundtruth.DepthBucket(lo, hi), 0) {
				cands = append(cands, cand{p, i})
			}
		}
		n := min(perBucket, len(cands))
		for j := 0; j < n; j++ {
			c := cands[j*len(cands)/n]
			gt := gts[c.port]
			rec := gt.Record(c.idx)
			out = append(out, victim{
				src: c.port, port: int(rec.Port), enq: rec.EnqTimestamp, deq: rec.DeqTimestamp(),
				regimeStart: gt.RegimeStart(c.idx), truth: gt.DirectTruth(c.idx),
			})
		}
	}
	return out
}

// flipSchedule returns the indices of the packets whose Observe call
// performs a periodic flip, given the poll period and the indices of the
// packets that trigger data-plane freezes (which restart the period). It
// follows the control plane's rule: a port's first packet starts the
// period, and a packet dequeued a full period after the last freeze flips
// before it is inserted.
func flipSchedule(stream []deq, periodNs uint64, special map[int]bool) []int {
	type portClock struct {
		started bool
		last    uint64
	}
	clocks := map[int]*portClock{}
	var out []int
	for i := range stream {
		d := &stream[i]
		c := clocks[d.pkt.Port]
		if c == nil {
			c = &portClock{}
			clocks[d.pkt.Port] = c
		}
		if !c.started {
			c.started = true
			c.last = d.deq
		} else if d.deq-c.last >= periodNs {
			out = append(out, i)
			c.last = d.deq
		}
		if special[i] {
			c.last = d.deq
		}
	}
	return out
}
