package histstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"printqueue/internal/core/qmonitor"
	"printqueue/internal/core/timewindow"
	"printqueue/internal/flow"
)

// This file implements the compact binary checkpoint codec: a lossless,
// self-describing encoding of one frozen register read (time windows + queue
// monitors). Two structural facts make the encoding small:
//
//   - cell timestamps are near-monotonic: within one window, the cycle IDs
//     of consecutive valid cells differ by 0 or ±1 (the ring buffer is
//     written in time order), so cycle IDs compress to zigzag varint deltas
//     against the previous cell, almost always one byte;
//   - consecutive checkpoints — and the cells within one — share most of
//     their flows, so flow keys are interned into a per-record dictionary
//     and cells refer to them by small varint index.
//
// Invalid cells are run-length skipped, valid runs are batched, and the
// queue-monitor staircase stores sequence numbers as deltas in level order.
// The result is typically 4-20x smaller than the resident register copy
// (see Record.MemBytes) while round-tripping bit-exactly: a decoded record
// filters, indexes, and accumulates identically to the original.

// codecVersion is the record payload format version.
const codecVersion = 1

// Record is one checkpoint as the store sees it: the port it was frozen on,
// its coverage interval (PrevFreeze, FreezeTime], and the frozen snapshots.
// It is the neutral form exchanged with the control plane, which owns the
// richer Checkpoint type.
type Record struct {
	Port       int
	FreezeTime uint64
	PrevFreeze uint64
	Special    bool

	TW *timewindow.Snapshot
	QM []*qmonitor.Snapshot
}

// MemBytes estimates the in-memory footprint of the record's snapshots —
// the baseline the encoded size is compared against.
func (r *Record) MemBytes() int64 {
	n := int64(64) // record header + slice
	if r.TW != nil {
		n += r.TW.MemBytes()
	}
	for _, qm := range r.QM {
		if qm != nil {
			n += qm.MemBytes()
		}
	}
	return n
}

const recFlagSpecial = 1 << 0

// appendUvarint / appendZigzag are the primitive writers.
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendZigzag(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// reader is a cursor over an encoded payload with sticky error handling, so
// the decode path stays linear instead of error-checking every varint.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("histstore: truncated uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) zigzag() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("histstore: truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("histstore: truncated byte at offset %d", r.off)
		return 0
	}
	b := r.b[r.off]
	r.off++
	return b
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.fail("histstore: truncated %d-byte field at offset %d", n, r.off)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

// flowDict interns flow keys during encode, assigning dense ids in
// first-seen order so cell references stay one varint byte for the common
// case of < 128 distinct flows per checkpoint. The interning pass hashes
// each valid cell and queue-monitor half exactly once: it records the ids
// in refs, in the order the emit passes write them, and the per-window
// valid-cell and per-monitor occupied-entry counts in counts. Dictionaries
// are pooled, so steady-state encoding allocates nothing.
type flowDict struct {
	ids    map[flow.Key]uint32
	flows  []flow.Key
	refs   []uint32
	counts []int
}

var dictPool = sync.Pool{New: func() any {
	return &flowDict{ids: make(map[flow.Key]uint32, 64)}
}}

func putDict(d *flowDict) {
	clear(d.ids)
	d.flows = d.flows[:0]
	d.refs = d.refs[:0]
	d.counts = d.counts[:0]
	dictPool.Put(d)
}

func (d *flowDict) intern(k flow.Key) {
	id, ok := d.ids[k]
	if !ok {
		id = uint32(len(d.flows))
		d.ids[k] = id
		d.flows = append(d.flows, k)
	}
	d.refs = append(d.refs, id)
}

// EncodeRecord appends the compact encoding of rec to dst and returns the
// extended slice. The encoding is deterministic: the same record always
// produces the same bytes.
func EncodeRecord(dst []byte, rec *Record) ([]byte, error) {
	if rec.TW == nil {
		return dst, fmt.Errorf("histstore: record without time-window snapshot")
	}
	dst = append(dst, codecVersion)
	var flags byte
	if rec.Special {
		flags |= recFlagSpecial
	}
	dst = append(dst, flags)
	dst = appendUvarint(dst, uint64(rec.Port))
	dst = appendUvarint(dst, rec.FreezeTime)
	dst = appendUvarint(dst, rec.FreezeTime-rec.PrevFreeze)

	cfg := rec.TW.Config()
	dst = appendUvarint(dst, uint64(cfg.M0))
	dst = appendUvarint(dst, uint64(cfg.K))
	dst = appendUvarint(dst, uint64(cfg.Alpha))
	dst = appendUvarint(dst, uint64(cfg.T))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cfg.MinPktTxDelayNs))

	// Two passes over the windows: intern every flow first so the
	// dictionary precedes the cell streams, then emit the streams from the
	// ids the first pass recorded.
	dict := dictPool.Get().(*flowDict)
	defer putDict(dict)
	windows := rec.TW.Windows()
	for _, w := range windows {
		nValid := 0
		for i := range w {
			if w[i].Valid {
				dict.intern(w[i].Flow)
				nValid++
			}
		}
		dict.counts = append(dict.counts, nValid)
	}
	for _, qm := range rec.QM {
		if qm == nil {
			return dst, fmt.Errorf("histstore: record with nil queue-monitor snapshot")
		}
		nOcc := 0
		entries := qm.Entries()
		for i := range entries {
			e := &entries[i]
			if e.Up.Valid {
				dict.intern(e.Up.Flow)
			}
			if e.Down.Valid {
				dict.intern(e.Down.Flow)
			}
			if e.Up.Valid || e.Down.Valid {
				nOcc++
			}
		}
		dict.counts = append(dict.counts, nOcc)
	}
	dst = appendUvarint(dst, uint64(len(dict.flows)))
	for _, k := range dict.flows {
		dst = k.AppendBinary(dst)
	}

	refs, counts := dict.refs, dict.counts
	for i, w := range windows {
		dst, refs = encodeWindow(dst, w, counts[i], refs)
	}
	counts = counts[len(windows):]

	dst = appendUvarint(dst, uint64(len(rec.QM)))
	for q, qm := range rec.QM {
		dst, refs = encodeMonitor(dst, qm, counts[q], refs)
	}
	return dst, nil
}

// encodeWindow emits one window's cells: the valid-cell count, the base
// cycle, then (skip, run) pairs where each run's cells carry a flow id and a
// zigzag cycle delta against the previous valid cell. The flow ids are
// taken in order from refs; the unconsumed remainder is returned.
func encodeWindow(dst []byte, w []timewindow.Cell, nValid int, refs []uint32) ([]byte, []uint32) {
	dst = appendUvarint(dst, uint64(nValid))
	if nValid == 0 {
		return dst, refs
	}
	first := 0
	for !w[first].Valid {
		first++
	}
	base := w[first].CycleID
	dst = appendUvarint(dst, base)
	pred := base
	i := 0
	for i < len(w) {
		// Skip the invalid gap.
		skip := 0
		for i < len(w) && !w[i].Valid {
			i++
			skip++
		}
		if i >= len(w) {
			break
		}
		run := 0
		for i+run < len(w) && w[i+run].Valid {
			run++
		}
		dst = appendUvarint(dst, uint64(skip))
		dst = appendUvarint(dst, uint64(run))
		for j := i; j < i+run; j++ {
			dst = appendUvarint(dst, uint64(refs[0]))
			refs = refs[1:]
			dst = appendZigzag(dst, int64(w[j].CycleID)-int64(pred))
			pred = w[j].CycleID
		}
		i += run
	}
	return dst, refs
}

// encodeMonitor emits one queue monitor snapshot: config, top pointer, and
// the occupied entries as (skip, halves) pairs with sequence numbers
// delta-encoded in level order (the staircase makes them near-monotonic).
// Like encodeWindow it takes its flow ids from refs and returns the rest.
func encodeMonitor(dst []byte, qm *qmonitor.Snapshot, nOcc int, refs []uint32) ([]byte, []uint32) {
	cfg := qm.Config()
	dst = appendUvarint(dst, uint64(cfg.MaxDepthCells))
	dst = appendUvarint(dst, uint64(cfg.GranuleCells))
	dst = appendUvarint(dst, uint64(qm.Top()))
	entries := qm.Entries()
	dst = appendUvarint(dst, uint64(nOcc))
	var predSeq uint64
	skip := 0
	for i := range entries {
		e := &entries[i]
		if !e.Up.Valid && !e.Down.Valid {
			skip++
			continue
		}
		dst = appendUvarint(dst, uint64(skip))
		skip = 0
		var halves byte
		if e.Up.Valid {
			halves |= 1
		}
		if e.Down.Valid {
			halves |= 2
		}
		dst = append(dst, halves)
		if e.Up.Valid {
			dst = appendUvarint(dst, uint64(refs[0]))
			refs = refs[1:]
			dst = appendZigzag(dst, int64(e.Up.Seq)-int64(predSeq))
			predSeq = e.Up.Seq
		}
		if e.Down.Valid {
			dst = appendUvarint(dst, uint64(refs[0]))
			refs = refs[1:]
			dst = appendZigzag(dst, int64(e.Down.Seq)-int64(predSeq))
			predSeq = e.Down.Seq
		}
	}
	return dst, refs
}

// DecodeRecord decodes a payload produced by EncodeRecord. The returned
// record owns freshly allocated snapshots; the input buffer may be reused.
func DecodeRecord(b []byte) (*Record, error) { return decodeRecord(b, math.MaxInt) }

// decodeRecord is DecodeRecord with a cap on the window cells plus monitor
// entries it may allocate. A header of a few bytes can declare registers of
// gigabytes, so the fuzz target decodes under a small cap.
func decodeRecord(b []byte, maxCells int) (*Record, error) {
	r := &reader{b: b}
	if v := r.byte(); r.err == nil && v != codecVersion {
		return nil, fmt.Errorf("histstore: unknown record version %d", v)
	}
	flags := r.byte()
	rec := &Record{Special: flags&recFlagSpecial != 0}
	rec.Port = int(r.uvarint())
	rec.FreezeTime = r.uvarint()
	rec.PrevFreeze = rec.FreezeTime - r.uvarint()

	var cfg timewindow.Config
	cfg.M0 = uint(r.uvarint())
	cfg.K = uint(r.uvarint())
	cfg.Alpha = uint(r.uvarint())
	cfg.T = int(r.uvarint())
	if raw := r.bytes(8); raw != nil {
		cfg.MinPktTxDelayNs = math.Float64frombits(binary.LittleEndian.Uint64(raw))
	}
	if r.err != nil {
		return nil, r.err
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("histstore: bad window config in record: %w", err)
	}

	nFlows := r.uvarint()
	if r.err == nil && nFlows > uint64(len(b)/flow.KeyWireSize+1) {
		return nil, fmt.Errorf("histstore: flow dictionary of %d entries exceeds payload", nFlows)
	}
	flows := make([]flow.Key, nFlows)
	for i := range flows {
		raw := r.bytes(flow.KeyWireSize)
		if r.err != nil {
			return nil, r.err
		}
		k, _, err := flow.DecodeKey(raw)
		if err != nil {
			return nil, err
		}
		flows[i] = k
	}

	cells := cfg.Cells()
	if cfg.T*cells > maxCells {
		return nil, fmt.Errorf("histstore: %d window cells exceed the decode cap of %d", cfg.T*cells, maxCells)
	}
	maxCells -= cfg.T * cells
	flat := make([]timewindow.Cell, cfg.T*cells)
	windows := make([][]timewindow.Cell, cfg.T)
	for i := range windows {
		w := flat[i*cells : (i+1)*cells : (i+1)*cells]
		// A live register derives cycle IDs from a 64-bit dequeue time, so
		// cycle<<(k+m0+alpha*i) never overflows; rejecting larger IDs keeps
		// every decoded span start exact and therefore ordered as the cell
		// index assumes (timewindow.Filtered.buildIndex).
		maxCycle := ^uint64(0) >> (cfg.K + cfg.M0 + cfg.Alpha*uint(i))
		if err := decodeWindow(r, w, flows, maxCycle); err != nil {
			return nil, err
		}
		windows[i] = w
	}
	tw, err := timewindow.NewSnapshot(cfg, windows)
	if err != nil {
		return nil, err
	}
	rec.TW = tw

	nQueues := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if nQueues > uint64(len(b)) {
		return nil, fmt.Errorf("histstore: %d queue monitors exceeds payload", nQueues)
	}
	rec.QM = make([]*qmonitor.Snapshot, nQueues)
	for q := range rec.QM {
		qm, err := decodeMonitor(r, flows, &maxCells)
		if err != nil {
			return nil, err
		}
		rec.QM[q] = qm
	}
	if r.err != nil {
		return nil, r.err
	}
	return rec, nil
}

func decodeWindow(r *reader, w []timewindow.Cell, flows []flow.Key, maxCycle uint64) error {
	nValid := r.uvarint()
	if r.err != nil {
		return r.err
	}
	if nValid == 0 {
		return nil
	}
	if nValid > uint64(len(w)) {
		return fmt.Errorf("histstore: window claims %d valid cells of %d", nValid, len(w))
	}
	pred := r.uvarint()
	i := 0
	var decoded uint64
	for decoded < nValid {
		skip := r.uvarint()
		run := r.uvarint()
		if r.err != nil {
			return r.err
		}
		if skip > uint64(len(w)-i) || run == 0 || run > uint64(len(w)-i)-skip || decoded+run > nValid {
			return fmt.Errorf("histstore: window run (skip %d, run %d) overflows at cell %d", skip, run, i)
		}
		i += int(skip)
		for j := 0; j < int(run); j++ {
			id := r.uvarint()
			delta := r.zigzag()
			if r.err != nil {
				return r.err
			}
			if id >= uint64(len(flows)) {
				return fmt.Errorf("histstore: cell flow id %d out of dictionary (%d flows)", id, len(flows))
			}
			cycle := uint64(int64(pred) + delta)
			if cycle > maxCycle {
				return fmt.Errorf("histstore: cell cycle %d exceeds the 64-bit timestamp range", cycle)
			}
			w[i] = timewindow.Cell{Flow: flows[id], CycleID: cycle, Valid: true}
			pred = cycle
			i++
		}
		decoded += run
	}
	return nil
}

func decodeMonitor(r *reader, flows []flow.Key, maxCells *int) (*qmonitor.Snapshot, error) {
	var cfg qmonitor.Config
	cfg.MaxDepthCells = int(r.uvarint())
	cfg.GranuleCells = int(r.uvarint())
	top := int(r.uvarint())
	nOcc := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("histstore: bad monitor config in record: %w", err)
	}
	if cfg.Entries() > *maxCells {
		return nil, fmt.Errorf("histstore: %d monitor entries exceed the decode cap", cfg.Entries())
	}
	*maxCells -= cfg.Entries()
	entries := make([]qmonitor.Entry, cfg.Entries())
	if nOcc > uint64(len(entries)) {
		return nil, fmt.Errorf("histstore: monitor claims %d occupied of %d entries", nOcc, len(entries))
	}
	i := 0
	var predSeq uint64
	for n := uint64(0); n < nOcc; n++ {
		skip := r.uvarint()
		halves := r.byte()
		if r.err != nil {
			return nil, r.err
		}
		if skip >= uint64(len(entries)-i) || halves == 0 || halves > 3 {
			return nil, fmt.Errorf("histstore: monitor entry (skip %d, halves %#x) overflows at level %d", skip, halves, i)
		}
		i += int(skip)
		var e qmonitor.Entry
		if halves&1 != 0 {
			h, err := decodeHalf(r, flows, &predSeq)
			if err != nil {
				return nil, err
			}
			e.Up = h
		}
		if halves&2 != 0 {
			h, err := decodeHalf(r, flows, &predSeq)
			if err != nil {
				return nil, err
			}
			e.Down = h
		}
		entries[i] = e
		i++
	}
	return qmonitor.NewSnapshot(cfg, entries, top)
}

func decodeHalf(r *reader, flows []flow.Key, predSeq *uint64) (qmonitor.Half, error) {
	id := r.uvarint()
	delta := r.zigzag()
	if r.err != nil {
		return qmonitor.Half{}, r.err
	}
	if id >= uint64(len(flows)) {
		return qmonitor.Half{}, fmt.Errorf("histstore: monitor flow id %d out of dictionary (%d flows)", id, len(flows))
	}
	seq := uint64(int64(*predSeq) + delta)
	*predSeq = seq
	return qmonitor.Half{Flow: flows[id], Seq: seq, Valid: true}, nil
}
