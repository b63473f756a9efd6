package main

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"sort"
	"testing"

	"printqueue"
	"printqueue/internal/fleet"
	"printqueue/internal/flow"
)

// The tail is the highest percentile with at least ten samples beyond it,
// capped at p99.
func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{11, 12, 20, 57, 100, 101, 999, 1000, 1001, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() // distinct with overwhelming probability
		}
		v, pct := tail(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: p%.2f = %v leaves %d samples beyond it, want >= 10", n, pct, v, beyond)
		}
		if pct < tailCap && beyond != 10 {
			t.Errorf("n=%d: p%.2f leaves %d samples beyond it; a higher percentile would still leave 10", n, pct, beyond)
		}
		if pct > tailCap {
			t.Errorf("n=%d: percentile %.2f above the p%.0f cap", n, pct, tailCap)
		}
		if n >= 1000 && pct != tailCap {
			t.Errorf("n=%d: percentile %.2f, want p%.0f", n, pct, tailCap)
		}
	}
	s := []float64{3, 1, 2}
	if v, pct := tail(s); v != 3 || pct != 100 {
		t.Errorf("tail of 3 samples = (%v, %v), want the maximum at 100", v, pct)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3, 9, 8, 7, 6, 10}, 90); p != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9 (nearest rank)", p)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// A wrong answer is counted as a failed operation.
func TestMutatedAnswerIsFailed(t *testing.T) {
	k1 := flow.Key{SrcIP: [4]byte{10, 0, 0, 1}, SrcPort: 1, DstPort: 2, Proto: flow.Proto(6)}
	k2 := flow.Key{SrcIP: [4]byte{10, 0, 0, 2}, SrcPort: 3, DstPort: 4, Proto: flow.Proto(6)}
	hop := func(counts map[string]float64) fleet.HopDiagnosis {
		return fleet.HopDiagnosis{
			HopResult: fleet.HopResult{Counts: counts, Mirrored: true},
			Culprits:  []fleet.Culprit{{Flow: k1, Count: counts[k1.String()]}, {Flow: k2, Count: counts[k2.String()]}},
		}
	}
	want := &fleet.PathDiagnosis{Hops: []fleet.HopDiagnosis{hop(map[string]float64{k1.String(): 5, k2.String(): 2})}}
	same := &fleet.PathDiagnosis{Hops: []fleet.HopDiagnosis{hop(map[string]float64{k1.String(): 5, k2.String(): 2})}}
	mutated := &fleet.PathDiagnosis{Hops: []fleet.HopDiagnosis{hop(map[string]float64{k1.String(): 5, k2.String(): 3})}}
	fellBack := &fleet.PathDiagnosis{Hops: []fleet.HopDiagnosis{hop(map[string]float64{k1.String(): 5, k2.String(): 2})}}
	fellBack.Hops[0].Mirrored = false
	partial := &fleet.PathDiagnosis{Partial: true, Hops: same.Hops}

	r := newResult()
	r.op(checkMirror(same, want, 0, 10))
	if r.failed != 0 {
		t.Fatalf("an identical mirrored answer was counted as failed: %v", r.failures)
	}
	for name, got := range map[string]*fleet.PathDiagnosis{"mutated": mutated, "network fallback": fellBack, "partial": partial} {
		r := newResult()
		r.op(checkMirror(got, want, 0, 10))
		if r.attempted != 1 || r.failed != 1 {
			t.Errorf("%s mirrored answer: attempted %d failed %d, want 1 and 1", name, r.attempted, r.failed)
		}
	}

	ref := diagnosis{}
	ref.direct = append(ref.direct, culprit(k1, 4))
	got := diagnosis{}
	got.direct = append(got.direct, culprit(k1, 4.5))
	v := victim{enq: 1, deq: 2}
	if why := checkReference(0, v, ref, nil, ref); why != "" {
		t.Errorf("reference compared with itself failed: %s", why)
	}
	if why := checkReference(0, v, got, nil, ref); why == "" {
		t.Error("a mutated pipeline answer was not counted as failed")
	}
}

// The same seed yields the same input digest; another seed another one.
func TestSeedDeterminesInputDigest(t *testing.T) {
	digest := func(seed uint64) uint64 {
		w := &uwDPQ{scratch: t.TempDir()}
		defer w.close()
		d, err := w.setup(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b, c := digest(7), digest(7), digest(8)
	if a != b {
		t.Errorf("seed 7 gave digests %016x and %016x", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 gave the same digest %016x", a)
	}
}

// BENCHMARK.json lists exactly the metrics the benchmark prints, with the
// same units.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("workloads: BENCHMARK.json %v, benchmark %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", names, want)
		}
	}
}

func culprit(k flow.Key, n float64) printqueue.Culprit {
	return printqueue.Culprit{Flow: publicFlow(k), Packets: n}
}
