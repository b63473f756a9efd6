package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// median returns the median of xs (the mean of the middle two for an even
// count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailCap is the highest percentile a tail is reported at.
const tailCap = 99.0

// tail returns the highest percentile of xs, capped at p99, that has at
// least ten samples beyond it, and that percentile. With the nearest-rank
// rule the p-th percentile of n sorted samples is the one at rank
// ceil(p/100*n); ten samples lie beyond rank n-10, so the percentile is
// 100*(n-10)/n, capped at tailCap. With ten or fewer samples no percentile
// qualifies and the maximum is returned with percentile 100.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n <= 10 {
		return sorted(xs)[n-1], 100
	}
	pct = math.Min(tailCap, 100*float64(n-10)/float64(n))
	return percentile(xs, pct), pct
}

// percentile returns the p-th percentile of xs by the nearest-rank rule:
// the sample at rank ceil(p/100*n) in ascending order.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// usSince is the microseconds elapsed since t.
func usSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

// heapPeak samples the live heap in the background and reports its peak,
// in MB. The live heap is what the last garbage collection found
// reachable (runtime/metrics /gc/heap/live:bytes): the memory the process
// holds — the benchmark's inputs and the system's state — not the garbage
// awaiting collection, which swings with collection timing. Reading
// runtime/metrics does not stop the world.
type heapPeak struct {
	peak  float64
	stopC chan struct{}
	wg    sync.WaitGroup
}

const heapMetric = "/gc/heap/live:bytes"

func heapBytes() float64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stopC: make(chan struct{}), peak: heapBytes()}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tk := time.NewTicker(2 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-h.stopC:
				return
			case <-tk.C:
				if b := heapBytes(); b > h.peak {
					h.peak = b
				}
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MB.
func (h *heapPeak) stop() float64 {
	close(h.stopC)
	h.wg.Wait()
	if b := heapBytes(); b > h.peak {
		h.peak = b
	}
	return h.peak / (1 << 20)
}

// digest is an FNV-1a accumulator over the generated inputs.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) u64(v uint64) {
	h := uint64(*d)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	*d = digest(h)
}
