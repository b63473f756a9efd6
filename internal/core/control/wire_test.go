package control

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"
)

// roundTripFrame encodes with enc, then reads the frame back through a
// bufio.Reader the way a peer would.
func roundTripFrame(t *testing.T, frame []byte) (op byte, payload []byte) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(frame))
	op, payload, err := readFrame(br, nil, maxFramePayload)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	return op, payload
}

// wireQueryVectors and wireCountVectors are the codec round-trip vectors,
// shared with the fuzz targets as seeds.
var (
	wireQueryVectors = []BatchQuery{
		{Kind: IntervalQuery, Port: 0, Start: 1000, End: 2000},
		{Kind: IntervalQuery, Port: 7, Start: 0, End: 1},
		{Kind: OriginalQuery, Port: 3, Queue: 2, Start: 1500},
		{Kind: OriginalQuery},
	}
	wireCountVectors = []map[string]float64{
		nil,
		{},
		{"10.0.0.1:80>10.0.0.2:90/tcp": 12.5},
		{"a": 0, "b": 1, "c": 60, "d": 1e9, "e": 0.1, "f": math.MaxFloat64, "g": -3.25},
		{"": 42}, // empty key survives
		{"flow\twith\"specials\\": 7},
	}
)

func TestWireQueryFrameRoundTrip(t *testing.T) {
	for i, q := range wireQueryVectors {
		frame := appendQueryFrame(nil, uint64(i+1), q)
		op, payload := roundTripFrame(t, frame)
		if op != opQuery {
			t.Fatalf("op = %#x, want opQuery", op)
		}
		id, got, err := decodeQueryRequest(payload)
		if err != nil {
			t.Fatalf("decode query %d: %v", i, err)
		}
		if id != uint64(i+1) || got != q {
			t.Fatalf("query %d round-tripped to id=%d %+v, want id=%d %+v", i, id, got, i+1, q)
		}
	}
}

func TestWireCountsRoundTripBitEqual(t *testing.T) {
	for i, counts := range wireCountVectors {
		frame := appendReplyFrame(nil, 9, NetResponse{Counts: counts})
		op, payload := roundTripFrame(t, frame)
		if op != opReply {
			t.Fatalf("op = %#x, want opReply", op)
		}
		id, r, err := decodeReply(payload)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if id != 9 || r.Err != nil {
			t.Fatalf("case %d: id=%d err=%v", i, id, r.Err)
		}
		if len(r.Counts) != len(counts) {
			t.Fatalf("case %d: %d keys, want %d", i, len(r.Counts), len(counts))
		}
		for k, v := range counts {
			got, ok := r.Counts[k]
			if !ok {
				t.Fatalf("case %d: key %q lost", i, k)
			}
			if math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("case %d: key %q: bits %#x, want %#x", i, k, math.Float64bits(got), math.Float64bits(v))
			}
		}
	}
}

func TestWireErrorReplyRoundTrip(t *testing.T) {
	frame := appendReplyFrame(nil, 3, NetResponse{Error: "control: port 9 not activated"})
	_, payload := roundTripFrame(t, frame)
	id, r, err := decodeReply(payload)
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 || r.Err == nil || r.Err.Error() != "control: port 9 not activated" {
		t.Fatalf("got id=%d err=%v", id, r.Err)
	}

	// The overload sentinel survives the wire as the canonical value, so
	// the client's retry logic can match it with errors.Is.
	frame = appendReplyFrame(nil, 4, NetResponse{Error: ErrOverloaded.Error()})
	_, payload = roundTripFrame(t, frame)
	_, r, err = decodeReply(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(r.Err, ErrOverloaded) {
		t.Fatalf("overload reply decoded to %v, want ErrOverloaded", r.Err)
	}
}

func TestWireBatchRoundTrip(t *testing.T) {
	qs := []BatchQuery{
		{Kind: IntervalQuery, Port: 0, Start: 1, End: 2},
		{Kind: OriginalQuery, Port: 1, Queue: 3, Start: 9},
	}
	frame := appendBatchFrame(nil, 77, qs)
	op, payload := roundTripFrame(t, frame)
	if op != opBatch {
		t.Fatalf("op = %#x, want opBatch", op)
	}
	id, got, err := decodeBatchRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if id != 77 || len(got) != 2 || got[0] != qs[0] || got[1] != qs[1] {
		t.Fatalf("batch round-tripped to id=%d %+v", id, got)
	}

	resps := []NetResponse{
		{Counts: map[string]float64{"x": 1.5}},
		{Error: "nope"},
	}
	frame = appendBatchReplyFrame(nil, 77, resps)
	op, payload = roundTripFrame(t, frame)
	if op != opBatchReply {
		t.Fatalf("op = %#x, want opBatchReply", op)
	}
	id, rs, err := decodeBatchReply(payload)
	if err != nil {
		t.Fatal(err)
	}
	if id != 77 || len(rs) != 2 {
		t.Fatalf("id=%d results=%d", id, len(rs))
	}
	if rs[0].Err != nil || rs[0].Counts["x"] != 1.5 {
		t.Fatalf("result 0 = %+v", rs[0])
	}
	if rs[1].Err == nil || rs[1].Err.Error() != "nope" || rs[1].Counts != nil {
		t.Fatalf("result 1 = %+v", rs[1])
	}
}

// TestWireTruncationNeverPanics feeds every proper prefix of valid frames
// through the decoders: each must fail cleanly, never panic or succeed.
func TestWireTruncationNeverPanics(t *testing.T) {
	frames := [][]byte{
		appendQueryFrame(nil, 123456, BatchQuery{Kind: IntervalQuery, Port: 5, Start: 1 << 40, End: 1<<40 + 9}),
		appendBatchFrame(nil, 7, []BatchQuery{{Kind: OriginalQuery, Port: 1, Queue: 1, Start: 3}}),
		appendReplyFrame(nil, 99, NetResponse{Counts: map[string]float64{"k1": 2.5, "k2": 7}}),
		appendReplyFrame(nil, 99, NetResponse{Error: "boom"}),
		appendBatchReplyFrame(nil, 42, []NetResponse{{Counts: map[string]float64{"a": 1}}, {Error: "e"}}),
	}
	for fi, frame := range frames {
		payload := frame[frameHeaderLen:]
		for cut := 0; cut < len(payload); cut++ {
			p := payload[:cut]
			if _, _, err := decodeQueryRequest(p); err == nil && frame[1] == opQuery && cut < len(payload) {
				t.Fatalf("frame %d: truncated query at %d decoded successfully", fi, cut)
			}
			decodeBatchRequest(p)
			decodeReply(p)
			decodeBatchReply(p)
		}
	}
}

// TestWireBadMagic proves a stream that has lost framing is detected
// immediately rather than misparsed.
func TestWireBadMagic(t *testing.T) {
	br := bufio.NewReader(bytes.NewReader([]byte{0x7B, 0x01, 0, 0, 0, 0}))
	if _, _, err := readFrame(br, nil, maxFramePayload); !errors.Is(err, errBadMagic) {
		t.Fatalf("err = %v, want errBadMagic", err)
	}
	// Oversized length field: rejected before allocating.
	big := []byte{frameMagic, opReply, 0xFF, 0xFF, 0xFF, 0xFF}
	br = bufio.NewReader(bytes.NewReader(big))
	if _, _, err := readFrame(br, nil, maxFramePayload); !errors.Is(err, errFrameSize) {
		t.Fatalf("err = %v, want errFrameSize", err)
	}
}

// TestWireJSONAppendParity checks the server's hand-rolled pooled JSON
// encoder against encoding/json: every response form must decode to the
// same value the marshal-based path produced.
func TestWireJSONAppendParity(t *testing.T) {
	resps := []NetResponse{
		{},
		{ID: 1},
		{ID: 2, Counts: map[string]float64{"10.0.0.1:80>10.0.0.2:90/tcp": 12.5}},
		{ID: 3, Counts: map[string]float64{"a": 1e21, "b": 0.30000000000000004}},
		{Error: "bad request: line exceeds 65536 bytes"},
		{ID: 4, Error: "with \"quotes\" and \\slashes\\ and \x01 control"},
	}
	for i, resp := range resps {
		got := appendJSONResponse(nil, resp)
		var back NetResponse
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("resp %d: hand-rolled output %q undecodable: %v", i, got, err)
		}
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		var wantBack NetResponse
		if err := json.Unmarshal(want, &wantBack); err != nil {
			t.Fatal(err)
		}
		if back.ID != wantBack.ID || back.Error != wantBack.Error || len(back.Counts) != len(wantBack.Counts) {
			t.Fatalf("resp %d: %q decodes to %+v, json.Marshal %q to %+v", i, got, back, want, wantBack)
		}
		for k, v := range wantBack.Counts {
			if math.Float64bits(back.Counts[k]) != math.Float64bits(v) {
				t.Fatalf("resp %d key %q: %v != %v (not bit-equal)", i, k, back.Counts[k], v)
			}
		}
	}
}

// TestWireEncodeAllocs pins the zero-allocation property of the pooled
// encode paths: once a buffer has grown, encoding a reply (binary or JSON)
// into it allocates nothing — the satellite requirement that responses
// stop paying json.Marshal + fresh slices.
func TestWireEncodeAllocs(t *testing.T) {
	resp := NetResponse{ID: 42, Counts: map[string]float64{
		"10.0.0.1:80>10.0.0.2:90/tcp": 12.5,
		"10.0.0.3:81>10.0.0.4:91/udp": 60,
	}}
	buf := make([]byte, 0, 1<<12)
	if n := testing.AllocsPerRun(200, func() {
		buf = appendReplyFrame(buf[:0], 42, resp)
	}); n > 0 {
		t.Errorf("appendReplyFrame allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		buf = appendJSONResponse(buf[:0], resp)
	}); n > 0 {
		t.Errorf("appendJSONResponse allocates %.1f/op, want 0", n)
	}
	qs := []BatchQuery{{Kind: IntervalQuery, Port: 1, Start: 5, End: 9}, {Kind: OriginalQuery, Start: 3}}
	if n := testing.AllocsPerRun(200, func() {
		buf = appendBatchFrame(buf[:0], 7, qs)
	}); n > 0 {
		t.Errorf("appendBatchFrame allocates %.1f/op, want 0", n)
	}
}

// TestWireDifferentialJSONBinary drives an identical query stream through
// the v1 JSON protocol (over a raw socket) and the v2 binary client (single
// and batch ops) against one server and requires bit-equal counts and
// matching errors — the acceptance gate that the codecs agree.
func TestWireDifferentialJSONBinary(t *testing.T) {
	srv, ts := netFixture(t)
	bc, err := DialMux(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	runWireDifferential(t, srv.Addr().String(), ts, bc, 0)
}

// jsonAnswer turns a JSON response into the (counts, error) pair the binary
// client returns for the same reply: an error string becomes an error
// (ErrOverloaded for a shed), and omitted counts an empty, non-nil map.
func jsonAnswer(resp NetResponse) (map[string]float64, error) {
	switch {
	case resp.Error == ErrOverloaded.Error():
		return nil, ErrOverloaded
	case resp.Error != "":
		return nil, errors.New(resp.Error)
	case resp.Counts == nil:
		return map[string]float64{}, nil
	}
	return resp.Counts, nil
}

// runWireDifferential drives the shared query stream through the JSON
// protocol on a raw socket to addr and through a binary client, and
// requires bit-equal answers. A non-zero traceID is sent on every JSON
// request, and each reply must carry the server's spans back.
func runWireDifferential(t *testing.T, addr string, ts uint64, bc *MuxClient, traceID uint64) {
	t.Helper()
	stream := []BatchQuery{
		{Kind: IntervalQuery, Port: 0, Start: 1000, End: ts + 1},       // full trace
		{Kind: IntervalQuery, Port: 0, Start: ts + 100, End: ts + 200}, // empty
		{Kind: OriginalQuery, Port: 0, Queue: 0, Start: ts},            // original culprits
		{Kind: IntervalQuery, Port: 9, Start: 0, End: 1},               // unknown port
		{Kind: IntervalQuery, Port: 0, Start: 5, End: 5},               // empty interval error
		{Kind: OriginalQuery, Port: 0, Queue: 0, Start: 10},            // quiet instant
	}
	js := &jsonSession{addr: addr}
	defer js.close()
	jsonQuery := func(q BatchQuery) (map[string]float64, error) {
		t.Helper()
		req := NetRequest{Kind: "interval", Port: q.Port, Start: q.Start, End: q.End, Trace: traceID}
		if q.Kind == OriginalQuery {
			req = NetRequest{Kind: "original", Port: q.Port, Queue: q.Queue, At: q.Start, Trace: traceID}
		}
		resp, err := js.do(req, 5*time.Second)
		if err != nil {
			t.Fatalf("json %+v: %v", req, err)
		}
		if traceID != 0 && len(resp.Spans) == 0 {
			t.Fatalf("json %+v: traced reply carried no server spans", req)
		}
		return jsonAnswer(resp)
	}

	bitEqual := func(i int, jm, bm map[string]float64) {
		t.Helper()
		if len(jm) != len(bm) {
			t.Fatalf("query %d: json %d flows, binary %d flows", i, len(jm), len(bm))
		}
		for k, jv := range jm {
			bv, ok := bm[k]
			if !ok {
				t.Fatalf("query %d: binary lost flow %q", i, k)
			}
			if math.Float64bits(jv) != math.Float64bits(bv) {
				t.Fatalf("query %d flow %q: json bits %#x, binary bits %#x", i, k, math.Float64bits(jv), math.Float64bits(bv))
			}
		}
	}

	var jsonResults []map[string]float64
	var jsonErrs []error
	for i, q := range stream {
		jm, jerr := jsonQuery(q)
		var bm map[string]float64
		var berr error
		if q.Kind == IntervalQuery {
			bm, berr = bc.Interval(q.Port, q.Start, q.End)
		} else {
			bm, berr = bc.Original(q.Port, q.Queue, q.Start)
		}
		jsonResults = append(jsonResults, jm)
		jsonErrs = append(jsonErrs, jerr)
		if (jerr == nil) != (berr == nil) {
			t.Fatalf("query %d: json err %v, binary err %v", i, jerr, berr)
		}
		if jerr != nil {
			if jerr.Error() != berr.Error() {
				t.Fatalf("query %d: json err %q, binary err %q", i, jerr, berr)
			}
			continue
		}
		if (jm == nil) != (bm == nil) {
			t.Fatalf("query %d: nil-ness differs (json %v, binary %v)", i, jm == nil, bm == nil)
		}
		bitEqual(i, jm, bm)
	}

	// The same stream as one batch frame must agree with the per-query
	// JSON answers too.
	batch, err := bc.Batch(stream)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(batch) != len(stream) {
		t.Fatalf("batch returned %d results, want %d", len(batch), len(stream))
	}
	for i, r := range batch {
		if (jsonErrs[i] == nil) != (r.Err == nil) {
			t.Fatalf("batch %d: json err %v, batch err %v", i, jsonErrs[i], r.Err)
		}
		if r.Err != nil {
			if r.Err.Error() != jsonErrs[i].Error() {
				t.Fatalf("batch %d: err %q, want %q", i, r.Err, jsonErrs[i])
			}
			continue
		}
		bitEqual(i, jsonResults[i], r.Counts)
	}
}
