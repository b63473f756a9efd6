package histstore

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"

	"printqueue/internal/core/qmonitor"
	"printqueue/internal/core/timewindow"
	"printqueue/internal/flow"
)

func twConfig() timewindow.Config {
	return timewindow.Config{M0: 3, K: 6, Alpha: 1, T: 3, MinPktTxDelayNs: 10}
}

func qmConfig() qmonitor.Config {
	return qmonitor.Config{MaxDepthCells: 1024, GranuleCells: 4}
}

func testKey(n int) flow.Key {
	return flow.Key{
		SrcIP: [4]byte{10, byte(n >> 8), 0, byte(n)}, DstIP: [4]byte{10, 128, 0, 1},
		SrcPort: uint16(33000 + n), DstPort: 80, Proto: flow.ProtoTCP,
	}
}

// buildRecord drives live register structures with a seeded trace and
// snapshots them, so encoded records look like real checkpoints (mostly
// monotone cycle ids, shared flows, sparse monitors).
func buildRecord(t testing.TB, seed int64, packets int) *Record {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tw, err := timewindow.New(twConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := qmonitor.New(qmConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := uint64(1000)
	depth := 0
	for i := 0; i < packets; i++ {
		ts += uint64(rng.Intn(24) + 1)
		depth += rng.Intn(17) - 8
		if depth < 0 {
			depth = 0
		}
		f := testKey(rng.Intn(40))
		tw.Insert(f, ts)
		qm.Observe(f, depth)
	}
	return &Record{
		Port:       3,
		FreezeTime: ts + 1,
		PrevFreeze: 1000,
		Special:    seed%2 == 0,
		TW:         tw.Snapshot(),
		QM:         []*qmonitor.Snapshot{qm.Snapshot()},
	}
}

// assertRecordsEqual compares two records field by field, down to each raw
// window cell and monitor entry.
func assertRecordsEqual(t *testing.T, want, got *Record) {
	t.Helper()
	if got.Port != want.Port || got.FreezeTime != want.FreezeTime ||
		got.PrevFreeze != want.PrevFreeze || got.Special != want.Special {
		t.Fatalf("header mismatch: got %+v want %+v",
			[4]any{got.Port, got.FreezeTime, got.PrevFreeze, got.Special},
			[4]any{want.Port, want.FreezeTime, want.PrevFreeze, want.Special})
	}
	if got.TW.Config() != want.TW.Config() {
		t.Fatalf("TW config mismatch: got %+v want %+v", got.TW.Config(), want.TW.Config())
	}
	if !reflect.DeepEqual(got.TW.Windows(), want.TW.Windows()) {
		t.Fatal("window cells differ after round trip")
	}
	if len(got.QM) != len(want.QM) {
		t.Fatalf("QM count %d, want %d", len(got.QM), len(want.QM))
	}
	for q := range want.QM {
		if got.QM[q].Config() != want.QM[q].Config() || got.QM[q].Top() != want.QM[q].Top() {
			t.Fatalf("QM[%d] config/top mismatch", q)
		}
		if !reflect.DeepEqual(got.QM[q].Entries(), want.QM[q].Entries()) {
			t.Fatalf("QM[%d] entries differ after round trip", q)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rec := buildRecord(t, seed, 3000)
		enc, err := EncodeRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertRecordsEqual(t, rec, dec)
	}
}

// TestCodecRoundTripQueries proves the stronger property the differential
// tests rely on: a decoded checkpoint answers queries bit-identically to
// the original (filter, index, and accumulate over the same cells).
func TestCodecRoundTripQueries(t *testing.T) {
	rec := buildRecord(t, 7, 5000)
	enc, err := EncodeRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	f1, f2 := rec.TW.Filter(), dec.TW.Filter()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		a := uint64(rng.Intn(40000))
		b := a + uint64(rng.Intn(20000))
		if !reflect.DeepEqual(f1.Query(a, b), f2.Query(a, b)) {
			t.Fatalf("query [%d,%d) differs between original and decoded", a, b)
		}
	}
	c1 := rec.QM[0].OriginalCulprits()
	c2 := dec.QM[0].OriginalCulprits()
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("original culprits differ between original and decoded")
	}
}

// TestCodecEmpty round-trips a checkpoint with untouched registers.
func TestCodecEmpty(t *testing.T) {
	tw, _ := timewindow.New(twConfig(), nil)
	qm, _ := qmonitor.New(qmConfig(), nil)
	rec := &Record{Port: 0, FreezeTime: 10, PrevFreeze: 5,
		TW: tw.Snapshot(), QM: []*qmonitor.Snapshot{qm.Snapshot()}}
	enc, err := EncodeRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	assertRecordsEqual(t, rec, dec)
}

// TestCodecCompression pins the tentpole's size claim: a busy checkpoint
// encodes at least 4x smaller than its in-memory register copy (typical is
// far better; the floor keeps the test robust to layout drift).
func TestCodecCompression(t *testing.T) {
	rec := buildRecord(t, 3, 20000)
	enc, err := EncodeRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	raw := rec.MemBytes()
	ratio := float64(raw) / float64(len(enc))
	t.Logf("in-memory %d bytes, encoded %d bytes: %.1fx", raw, len(enc), ratio)
	if ratio < 4 {
		t.Fatalf("encoded checkpoint only %.1fx smaller than in-memory form, want >= 4x", ratio)
	}
}

// TestCodecDeterministic: same record, same bytes (the differential and
// recovery tests lean on this).
func TestCodecDeterministic(t *testing.T) {
	rec := buildRecord(t, 5, 2000)
	a, err := EncodeRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("encoding is not deterministic")
	}
}

// TestCodecTruncationRejected: every strict prefix of a valid payload must
// fail to decode (error, never panic, never a silently short record).
func TestCodecTruncationRejected(t *testing.T) {
	rec := buildRecord(t, 11, 1500)
	enc, err := EncodeRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		cut := rng.Intn(len(enc))
		if _, err := DecodeRecord(enc[:cut]); err == nil {
			// A cut can only be decodable if it lands exactly at the end;
			// strict prefixes must fail.
			t.Fatalf("truncated payload (%d of %d bytes) decoded without error", cut, len(enc))
		}
	}
}

// TestCodecCorruptionSafe flips bytes across the payload and requires
// decode to either error out or produce a structurally valid record —
// never panic or hang.
func TestCodecCorruptionSafe(t *testing.T) {
	rec := buildRecord(t, 13, 1500)
	enc, err := EncodeRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4242))
	buf := make([]byte, len(enc))
	for i := 0; i < 500; i++ {
		copy(buf, enc)
		buf[rng.Intn(len(buf))] ^= byte(1 + rng.Intn(255))
		dec, err := DecodeRecord(buf)
		if err != nil {
			continue
		}
		// Survived the flip: the record must still be self-consistent.
		if dec.TW == nil {
			t.Fatal("corrupt decode returned nil snapshot without error")
		}
	}
}

// TestCodecRejectsOverflowingCycle: a live register's cycle IDs come from
// 64-bit dequeue times, so cycle<<(k+m0+alpha*i) always fits; the decoder
// rejects larger IDs, whose span starts would wrap and break the cell
// index's order.
func TestCodecRejectsOverflowingCycle(t *testing.T) {
	cfg := twConfig()
	qm, _ := qmonitor.New(qmConfig(), nil)
	for i := 0; i < cfg.T; i++ {
		maxCycle := ^uint64(0) >> (cfg.K + cfg.M0 + cfg.Alpha*uint(i))
		for _, tc := range []struct {
			cycle uint64
			ok    bool
		}{{maxCycle, true}, {maxCycle + 1, false}} {
			windows := make([][]timewindow.Cell, cfg.T)
			for w := range windows {
				windows[w] = make([]timewindow.Cell, cfg.Cells())
			}
			windows[i][5] = timewindow.Cell{Flow: testKey(1), CycleID: tc.cycle, Valid: true}
			tw, err := timewindow.NewSnapshot(cfg, windows)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := EncodeRecord(nil, &Record{FreezeTime: 1, TW: tw, QM: []*qmonitor.Snapshot{qm.Snapshot()}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeRecord(enc); (err == nil) != tc.ok {
				t.Fatalf("window %d cycle %d: decode error %v, want accepted=%v", i, tc.cycle, err, tc.ok)
			}
		}
	}
}

// goldenCodecSHA256 is the SHA-256 of the encodings TestCodecGoldenBytes
// concatenates, as produced by the original two-lookup encoder. Segment
// logs and stream frames written by switches and mirrors running either
// encoder must stay interchangeable, so the bytes may never drift.
const goldenCodecSHA256 = "a26b9917a8bfeacc6cfc9b6d543e20d1c02d45fe36d1c198617245b4d4f69664"

// TestCodecGoldenBytes pins the exact encoded bytes over seeds 0-19 and
// record sizes from empty to far past the register capacity.
func TestCodecGoldenBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("encodes 20 records of 200000 packets")
	}
	h := sha256.New()
	var buf []byte
	for seed := int64(0); seed < 20; seed++ {
		for _, n := range []int{0, 1, 100, 5000, 200000} {
			var err error
			buf, err = EncodeRecord(buf[:0], buildRecord(t, seed, n))
			if err != nil {
				t.Fatal(err)
			}
			h.Write(buf)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenCodecSHA256 {
		t.Fatalf("encoded bytes drifted: sha256 %s, want %s", got, goldenCodecSHA256)
	}
}

// TestEncodeSteadyStateAllocs pins EncodeRecord at zero allocations once
// its output buffer and pooled flow dictionary are warm — the state the
// snapshotter encodes in.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	rec := buildRecord(t, 3, 20000)
	buf, err := EncodeRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		buf, _ = EncodeRecord(buf[:0], rec)
	}); n > 0 {
		t.Fatalf("EncodeRecord allocates %.1f/op into a reused buffer, want 0", n)
	}
}

// fuzzMaxCells caps the registers a fuzzed record may declare: a header of
// a few bytes can otherwise ask for gigabytes of cells.
const fuzzMaxCells = 1 << 16

// FuzzDecodeRecord feeds arbitrary payloads to the decoder, seeded with
// real encodings. It must never panic, and whatever it accepts must
// re-encode to bytes that decode to an equal record.
func FuzzDecodeRecord(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		for _, n := range []int{0, 1, 60, 800} {
			rec := buildRecord(f, seed, n)
			enc, err := EncodeRecord(nil, rec)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(enc)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := decodeRecord(b, fuzzMaxCells)
		if err != nil {
			return
		}
		enc, err := EncodeRecord(nil, rec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		again, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		assertRecordsEqual(t, rec, again)
	})
}

func BenchmarkCheckpointEncode(b *testing.B) {
	rec := buildRecord(b, 3, 20000)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = EncodeRecord(buf[:0], rec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkCheckpointDecode(b *testing.B) {
	rec := buildRecord(b, 3, 20000)
	enc, err := EncodeRecord(nil, rec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRecord(enc); err != nil {
			b.Fatal(err)
		}
	}
}
