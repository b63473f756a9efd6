package control

import (
	"bufio"
	"bytes"
	"math"
	"testing"
)

// The fuzz targets below cover every decoder of bytes a client reads from
// the network: the frame reader, the count maps inside replies, the query
// tuple, and the checkpoint-stream frames. Each must reject malformed
// input with an error, never a panic, and every input it accepts must be
// the canonical encoding of what it decoded: re-encoding reproduces the
// input bytes. Seeds are the round-trip vectors of wire_test.go and
// stream_test.go.

func FuzzReadFrame(f *testing.F) {
	for i, q := range wireQueryVectors {
		f.Add(appendQueryFrame(nil, uint64(i+1), q))
	}
	f.Add(appendBatchFrame(nil, 77, wireQueryVectors))
	for _, counts := range wireCountVectors {
		f.Add(appendReplyFrame(nil, 9, NetResponse{Counts: counts}))
	}
	f.Add(appendCheckpointFrame(nil, 7, 3, 2000, 1500, pushFlagSpecial|pushFlagReplay, []byte("encoded-record-bytes")))
	f.Add([]byte{frameMagic, opQuery, 0, 0, 0, 9, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		// A small payload cap keeps each execution cheap; the size check
		// itself is what is under test, not the cap's value.
		op, payload, err := readFrame(bufio.NewReader(bytes.NewReader(data)), nil, 1<<12)
		if err != nil {
			return
		}
		b, start := beginFrame(nil, op)
		b = endFrame(append(b, payload...), start)
		if !bytes.Equal(b, data[:len(b)]) {
			t.Fatalf("frame %x re-encodes to %x", data[:len(b)], b)
		}
	})
}

func FuzzDecodeCounts(f *testing.F) {
	for _, counts := range wireCountVectors {
		f.Add(appendCounts(nil, counts))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x07}) // 2^31-1 entries, no payload
	f.Fuzz(func(t *testing.T, data []byte) {
		m, rest, err := decodeCounts(data)
		if err != nil {
			return
		}
		consumed := data[:len(data)-len(rest)]
		// Map order is not preserved, so a multi-entry map can re-encode
		// its entries in another order: require the same length and a
		// bit-identical decode, and exact bytes when order cannot differ.
		b := appendCounts(nil, m)
		if len(m) <= 1 && !bytes.Equal(b, consumed) {
			t.Fatalf("counts %x re-encode to %x", consumed, b)
		}
		if len(b) != len(consumed) {
			t.Fatalf("counts %x re-encode to %d bytes, want %d", consumed, len(b), len(consumed))
		}
		back, tail, err := decodeCounts(b)
		if err != nil || len(tail) != 0 || len(back) != len(m) {
			t.Fatalf("re-encoded counts %x decode to %v, %x, %v", b, back, tail, err)
		}
		for k, v := range m {
			if w, ok := back[k]; !ok || math.Float64bits(w) != math.Float64bits(v) {
				t.Fatalf("key %q: %v re-decodes to %v (present %v)", k, v, w, ok)
			}
		}
	})
}

func FuzzDecodeQueryBody(f *testing.F) {
	for _, q := range wireQueryVectors {
		f.Add(appendQueryBody(nil, q))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, rest, err := decodeQueryBody(data)
		if err != nil {
			return
		}
		consumed := data[:len(data)-len(rest)]
		if b := appendQueryBody(nil, q); !bytes.Equal(b, consumed) {
			t.Fatalf("query %x decodes to %+v, which re-encodes to %x", consumed, q, b)
		}
	})
}

func FuzzDecodeCheckpointFrame(f *testing.F) {
	for _, v := range streamFrameVectors {
		f.Add(appendCheckpointFrame(nil, v.Seq, v.Port, v.FreezeTime, v.PrevFreeze, v.flags(), v.Payload)[frameHeaderLen:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := decodeCheckpointFrame(data)
		if err != nil {
			return
		}
		b := appendCheckpointFrame(nil, fr.Seq, fr.Port, fr.FreezeTime, fr.PrevFreeze, fr.flags(), fr.Payload)
		if !bytes.Equal(b[frameHeaderLen:], data) {
			t.Fatalf("checkpoint frame %x decodes to %+v, which re-encodes to %x", data, fr, b[frameHeaderLen:])
		}
	})
}

func FuzzDecodeResync(f *testing.F) {
	for _, n := range []uint64{0, 1, 42, math.MaxUint64} {
		f.Add(appendResyncFrame(nil, n)[frameHeaderLen:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dropped, err := decodeResync(data)
		if err != nil {
			return
		}
		if b := appendResyncFrame(nil, dropped)[frameHeaderLen:]; !bytes.Equal(b, data) {
			t.Fatalf("resync %x decodes to %d, which re-encodes to %x", data, dropped, b)
		}
	})
}

// flags is the push-flag byte that encodes f's Special and Replay bits.
func (f CheckpointFrame) flags() byte {
	var b byte
	if f.Special {
		b |= pushFlagSpecial
	}
	if f.Replay {
		b |= pushFlagReplay
	}
	return b
}
