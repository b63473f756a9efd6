package control

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"printqueue/internal/core/qmonitor"
	"printqueue/internal/core/timewindow"
	"printqueue/internal/flow"
)

// scanInterval is the reference interval query the indexed path is held
// bit-identical to. It prunes nothing and uses no cell index: every cell
// of every window of every hot checkpoint is visited
// (Filtered.AccumulateScanInto). The part of the interval below the oldest
// hot checkpoint comes from the cold tier, partitioned exactly as the
// production path partitions it, so a bounded hot tier cannot shrink the
// reference answer.
func scanInterval(s *System, port int, start, end uint64) (flow.Counts, error) {
	ps, ok := s.ports[port]
	if !ok {
		return nil, fmt.Errorf("control: port %d not activated", port)
	}
	if end <= start {
		return nil, fmt.Errorf("control: empty query interval [%d, %d)", start, end)
	}
	cps := ps.snapshotCheckpoints()
	hotStart := ^uint64(0)
	if len(cps) > 0 {
		hotStart = cps[0].PrevFreeze
	}
	cold, coldEnd := s.coldRun(port, start, end, hotStart)
	acc := timewindow.NewAccumulator(s.cfg.TW.T, s.twCoeff)
	for _, cp := range cps {
		if lo, hi := max(start, cp.PrevFreeze), min(end, cp.FreezeTime); hi > lo {
			cp.Filtered().AccumulateScanInto(acc, lo, hi)
		}
	}
	accumulateCold(acc, cold, start, coldEnd)
	return acc.Counts(), nil
}

// buildDeepHistory drives a system with a long trace and a short poll
// period, producing a checkpoint history of at least minCheckpoints, and
// returns the final dequeue timestamp.
func buildDeepHistory(t *testing.T, s *System, port, minCheckpoints int) uint64 {
	t.Helper()
	var ts uint64 = 1000
	for i := 0; len(s.Checkpoints(port)) < minCheckpoints; i++ {
		ts += 8
		s.OnDequeue(deq(fkey(byte(i%24)), port, ts-16, ts, 8))
		if i > 1_000_000 {
			t.Fatal("history not growing; poll period misconfigured")
		}
	}
	s.Finalize(ts + 1)
	return ts
}

// TestQueryPathDifferential compares the indexed interval-query path with
// the reference scan (scanInterval) over randomized intervals on a deep
// checkpoint history. The two must be bit-identical (exact DeepEqual on
// float maps), including empty, inverted, point, and all-history intervals.
func TestQueryPathDifferential(t *testing.T) {
	cfg := testConfig(0)
	cfg.PollPeriodNs = 256
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	horizon := buildDeepHistory(t, s, 0, 64)

	rng := rand.New(rand.NewPCG(13, 37))
	for q := 0; q < 120; q++ {
		var lo, hi uint64
		switch q {
		case 0:
			lo, hi = 0, horizon+1000 // all history
		case 1:
			lo, hi = 0, 1 // before the first packet
		case 2:
			lo, hi = horizon, horizon+1 // the very last instant
		case 3:
			lo, hi = horizon/2, horizon/2+1 // point query mid-trace
		default:
			lo = rng.Uint64N(horizon)
			hi = lo + 1 + rng.Uint64N(horizon/3)
		}
		indexed, err := s.QueryInterval(0, lo, hi)
		if err != nil {
			t.Fatalf("indexed query [%d,%d): %v", lo, hi, err)
		}
		scan, err := scanInterval(s, 0, lo, hi)
		if err != nil {
			t.Fatalf("scan query [%d,%d): %v", lo, hi, err)
		}
		if !reflect.DeepEqual(indexed, scan) {
			t.Fatalf("interval [%d,%d): indexed %v != scan %v", lo, hi, indexed, scan)
		}
	}
	if got := s.qpath.checkpointsPruned.Load(); got == 0 {
		t.Error("narrow queries pruned no checkpoints")
	}
}

// TestPruneCheckpoints checks the coverage binary search against a
// brute-force overlap filter on synthetic histories.
func TestPruneCheckpoints(t *testing.T) {
	mk := func(freezes ...uint64) []*Checkpoint {
		var cps []*Checkpoint
		prev := uint64(0)
		for _, f := range freezes {
			cps = append(cps, &Checkpoint{FreezeTime: f, PrevFreeze: prev})
			prev = f
		}
		return cps
	}
	oracle := func(cps []*Checkpoint, start, end uint64) []*Checkpoint {
		var out []*Checkpoint
		for _, cp := range cps {
			// Coverage (PrevFreeze, FreezeTime] overlaps [start, end)?
			lo, hi := start, end
			if cp.PrevFreeze > lo {
				lo = cp.PrevFreeze
			}
			if cp.FreezeTime < hi {
				hi = cp.FreezeTime
			}
			if hi > lo {
				out = append(out, cp)
			}
		}
		return out
	}

	// Intervals are non-empty (end > start) — QueryInterval rejects empty
	// intervals before pruning runs.
	hist := mk(100, 200, 300, 400, 500)
	cases := [][2]uint64{
		{0, 50}, {0, 100}, {0, 101}, {150, 250},
		{200, 201}, {199, 200}, {450, 600}, {500, 600}, {0, 1000},
		{99, 501}, {100, 101}, {499, 500},
	}
	for _, c := range cases {
		got := pruneCheckpoints(hist, c[0], c[1])
		want := oracle(hist, c[0], c[1])
		if len(got) != len(want) {
			t.Fatalf("interval [%d,%d): pruned %d checkpoints, oracle %d", c[0], c[1], len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("interval [%d,%d): run differs at %d", c[0], c[1], i)
			}
		}
	}
	if got := pruneCheckpoints(nil, 0, 100); len(got) != 0 {
		t.Fatalf("pruning empty history returned %d checkpoints", len(got))
	}

	// Randomized histories and intervals.
	rng := rand.New(rand.NewPCG(5, 8))
	for trial := 0; trial < 40; trial++ {
		var freezes []uint64
		f := uint64(0)
		for i := 0; i < rng.IntN(30); i++ {
			f += 1 + rng.Uint64N(100)
			freezes = append(freezes, f)
		}
		h := mk(freezes...)
		for q := 0; q < 20; q++ {
			lo := rng.Uint64N(f + 100)
			hi := lo + 1 + rng.Uint64N(f/2+10)
			got := pruneCheckpoints(h, lo, hi)
			want := oracle(h, lo, hi)
			if len(got) != len(want) {
				t.Fatalf("trial %d [%d,%d): pruned %d, oracle %d", trial, lo, hi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d [%d,%d): run differs at %d", trial, lo, hi, i)
				}
			}
		}
	}
}

// TestQueryOriginalPrefixMemo checks the memoized merge prefix returns the
// same culprits as the direct merge loop, across repeated queries, multiple
// query times, and history trimming (which bumps the generation).
func TestQueryOriginalPrefixMemo(t *testing.T) {
	cfg := testConfig(0)
	cfg.PollPeriodNs = 256
	cfg.MaxCheckpoints = 12
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ts uint64 = 1000
	check := func() {
		t.Helper()
		cps := s.Checkpoints(0)
		if len(cps) == 0 {
			return
		}
		for _, q := range []uint64{0, ts / 4, ts / 2, ts, ts + 1000} {
			got, err := s.QueryOriginal(0, 0, q)
			if err != nil {
				t.Fatalf("QueryOriginal(%d): %v", q, err)
			}
			idx := nearestCheckpoint(cps, q)
			snap := cps[0].QM[0]
			for i := 1; i <= idx; i++ {
				snap = qmonitor.Merge(snap, cps[i].QM[0])
			}
			want := snap.OriginalCulprits()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("QueryOriginal(%d) = %v, want %v (direct merge of %d checkpoints)", q, got, want, idx+1)
			}
		}
	}

	for round := 0; round < 6; round++ {
		for i := 0; i < 400; i++ {
			ts += 8
			depth := 4 + (i % 60) // staircase climbs and resets
			s.OnDequeue(deq(fkey(byte(i%10)), 0, ts-16, ts, depth))
		}
		s.FinalizePort(0, ts+1)
		check() // repeated rounds exercise cache extension and, once the
		// history exceeds MaxCheckpoints, the generation reset
	}
	ps := s.ports[0]
	ps.mu.RLock()
	gen := ps.histGen
	n := ps.checkpoints.len()
	ps.mu.RUnlock()
	if gen == 0 {
		t.Fatal("history never trimmed; MaxCheckpoints not exercised")
	}
	if n > cfg.MaxCheckpoints {
		t.Fatalf("history has %d checkpoints, bound is %d", n, cfg.MaxCheckpoints)
	}
}

// TestQueryOriginalPrefixConcurrent hammers QueryOriginal from many
// goroutines while traffic (and trimming) continues, for the race detector.
func TestQueryOriginalPrefixConcurrent(t *testing.T) {
	cfg := testConfig(0)
	cfg.PollPeriodNs = 256
	cfg.MaxCheckpoints = 8
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := buildDeepHistory(t, s, 0, cfg.MaxCheckpoints)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			ts += 8
			s.OnDequeue(deq(fkey(byte(i%6)), 0, ts-16, ts, 12))
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, _ = s.QueryOriginal(0, 0, uint64(1000+i*37*(g+1)))
				_, _ = s.QueryInterval(0, uint64(i*16), uint64(i*16+512))
			}
		}(g)
	}
	wg.Wait()
}
