package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer. Layer is the name's prefix before
// the first dot. Spans of one diagnosis (or one replay) share req.
type span struct {
	name   string
	start  int64 // ns since the tracer's base
	end    int64
	parent int32 // index of the enclosing span, -1 for a root
	req    uint64
}

// tracer keeps spans in memory (up to a fixed cap; the rest are counted as
// dropped) and writes them out when the run ends. A nil *tracer records
// nothing, so the untraced run pays only a nil check per call site.
type tracer struct {
	base    time.Time
	spans   []span
	max     int
	dropped int
	nextReq uint64
	out     string
}

// epoch is the process-wide time base of span and sample timestamps.
var epoch = time.Now()

// nowNs is the current time in ns since epoch (monotonic).
func nowNs() int64 { return int64(time.Since(epoch)) }

// newTracer keeps up to max spans and writes them to out.
func newTracer(max int, out string) *tracer {
	return &tracer{base: epoch, spans: make([]span, 0, 4096), max: max, out: out}
}

// req returns a fresh request id.
func (t *tracer) req() uint64 {
	if t == nil {
		return 0
	}
	t.nextReq++
	return t.nextReq
}

// begin opens a span and returns its handle (-1 when not recorded).
func (t *tracer) begin(name string, parent int32, req uint64) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) >= t.max {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.base)), parent: parent, req: req})
	return int32(len(t.spans) - 1)
}

// add records a span whose times were taken elsewhere (ns since the
// tracer's base) and returns its handle.
func (t *tracer) add(name string, start, end int64, parent int32, req uint64) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) >= t.max {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: parent, req: req})
	return int32(len(t.spans) - 1)
}

// finish closes a span opened by begin.
func (t *tracer) finish(h int32) {
	if t == nil || h < 0 {
		return
	}
	t.spans[h].end = int64(time.Since(t.base))
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes attributes every span's self time — its duration minus the
// part its child spans cover — to the span's layer, and returns the
// per-layer totals with their sum (which equals the roots' total).
func (t *tracer) selfTimes() (map[string]int64, int64) {
	out := make(map[string]int64)
	if t == nil {
		return out, 0
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var total int64
	for i, s := range t.spans {
		self := s.end - s.start - child[i]
		if self < 0 {
			self = 0
		}
		out[layerOf(s.name)] += self
		total += self
	}
	return out, total
}

// write stores the spans as JSON lines and returns the file's path.
func (t *tracer) write() (string, error) {
	if err := os.MkdirAll(filepath.Dir(t.out), 0o755); err != nil {
		return "", err
	}
	f, err := os.Create(t.out)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type rec struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		Req    uint64 `json:"req"`
	}
	for _, s := range t.spans {
		if err := enc.Encode(rec{s.name, s.start, s.end, s.parent, s.req}); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return t.out, f.Close()
}
