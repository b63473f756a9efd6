package control

// Checkpoint streaming (wire v2 subscription ops). A subscriber sends one
// opSubscribe frame on a fresh binary connection and the server turns the
// connection into a push stream: every checkpoint the switch retires is
// encoded once (by the histstore append the snapshotter already pays for)
// and framed to the subscriber with its indexed metadata up front, so the
// mirror on the other end replicates the segment log without decoding a
// single record. Frames carry pusher-assigned sequence numbers; a bounded
// per-subscriber queue drops oldest under collector backpressure and the
// pusher emits an explicit resync marker so the mirror knows to re-replay
// the gap from the switch's segment log — the snapshotter itself never
// blocks on a slow collector.
//
// Frame layouts (inside the standard magic|op|len envelope of wire.go):
//
//	opSubscribe      0x21: since uvarint — replay stored records with
//	                       FreezeTime > since, then stream live.
//	opCheckpointPush 0xA1: seq uvarint | port uvarint | freezeTime uvarint |
//	                       freezeTime-prevFreeze uvarint | flags byte |
//	                       encoded record payload (rest of frame).
//	opStreamResync   0xA2: dropped uvarint — records were dropped before
//	                       the frames that follow; resubscribe to heal.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

const (
	opSubscribe      byte = 0x21
	opCheckpointPush byte = 0xA1
	opStreamResync   byte = 0xA2
)

// Checkpoint-push frame flags.
const (
	// pushFlagSpecial marks a special (queue-monitor stack) checkpoint.
	pushFlagSpecial byte = 1 << 0
	// pushFlagReplay marks frames produced by the catch-up replay from the
	// segment log rather than a live retire.
	pushFlagReplay byte = 1 << 1
)

// streamQueueCap bounds each subscriber's pending-frame ring. At the PR 8
// codec's 15-20x compression a full ring is a few MB of encoded
// checkpoints — enough to ride out collector GC pauses, small enough that
// a stalled collector costs the switch bounded memory.
const streamQueueCap = 256

// appendSubscribeFrame encodes an opSubscribe request.
func appendSubscribeFrame(b []byte, since uint64) []byte {
	b, start := beginFrame(b, opSubscribe)
	b = appendUvarint(b, since)
	return endFrame(b, start)
}

func decodeSubscribe(p []byte) (since uint64, err error) {
	since, p, err = uvarint(p)
	if err != nil {
		return 0, err
	}
	if len(p) != 0 {
		return 0, errTruncated
	}
	return since, nil
}

// appendCheckpointFrame encodes one opCheckpointPush frame around an
// already-encoded record payload. The metadata mirrors the histstore
// index entry so the receiver can replicate the log without decoding.
func appendCheckpointFrame(b []byte, seq uint64, port int, freezeTime, prevFreeze uint64, flags byte, payload []byte) []byte {
	b, start := beginFrame(b, opCheckpointPush)
	b = appendUvarint(b, seq)
	b = appendUvarint(b, uint64(port))
	b = appendUvarint(b, freezeTime)
	b = appendUvarint(b, freezeTime-prevFreeze)
	b = append(b, flags)
	b = append(b, payload...)
	return endFrame(b, start)
}

// CheckpointFrame is one decoded push frame. Payload aliases the decode
// input (the stream's scratch buffer): it is valid until the next Next
// call and must be copied to be retained.
type CheckpointFrame struct {
	Seq        uint64
	Port       int
	FreezeTime uint64
	PrevFreeze uint64
	Special    bool
	Replay     bool
	Payload    []byte
}

func decodeCheckpointFrame(p []byte) (f CheckpointFrame, err error) {
	if f.Seq, p, err = uvarint(p); err != nil {
		return f, err
	}
	if f.Port, p, err = uvarintInt(p); err != nil {
		return f, err
	}
	if f.FreezeTime, p, err = uvarint(p); err != nil {
		return f, err
	}
	var dPrev uint64
	if dPrev, p, err = uvarint(p); err != nil {
		return f, err
	}
	if dPrev > f.FreezeTime {
		return f, fmt.Errorf("%w: prev-freeze delta %d past freeze time %d", errTruncated, dPrev, f.FreezeTime)
	}
	f.PrevFreeze = f.FreezeTime - dPrev
	if len(p) < 1 {
		return f, errTruncated
	}
	flags := p[0]
	if flags&^(pushFlagSpecial|pushFlagReplay) != 0 {
		return f, fmt.Errorf("%w: unknown push flags %#x", errTruncated, flags)
	}
	f.Special = flags&pushFlagSpecial != 0
	f.Replay = flags&pushFlagReplay != 0
	f.Payload = p[1:]
	return f, nil
}

// appendResyncFrame encodes an opStreamResync marker.
func appendResyncFrame(b []byte, dropped uint64) []byte {
	b, start := beginFrame(b, opStreamResync)
	b = appendUvarint(b, dropped)
	return endFrame(b, start)
}

func decodeResync(p []byte) (dropped uint64, err error) {
	dropped, p, err = uvarint(p)
	if err != nil {
		return 0, err
	}
	if len(p) != 0 {
		return 0, errTruncated
	}
	return dropped, nil
}

// pushRec is one retired checkpoint queued toward a subscriber: the
// indexed metadata plus the encoded payload, copied into a pooled buffer
// at publish time so the histstore can reuse its encode buffer.
type pushRec struct {
	port       int
	freezeTime uint64
	prevFreeze uint64
	flags      byte
	buf        []byte
}

// streamSub is one subscriber's bounded pending queue: a fixed ring with
// drop-oldest overflow. publish (the snapshotter side) never blocks; the
// pusher goroutine drains and accounts drops into resync markers.
type streamSub struct {
	mu      sync.Mutex
	ring    [streamQueueCap]pushRec
	head    int
	n       int
	dropped uint64
	wake    chan struct{}
}

// push enqueues one record, evicting the oldest when full.
func (ss *streamSub) push(rec pushRec) {
	ss.mu.Lock()
	if ss.n == streamQueueCap {
		old := &ss.ring[ss.head]
		putBuf(old.buf)
		old.buf = nil
		ss.head = (ss.head + 1) % streamQueueCap
		ss.n--
		ss.dropped++
	}
	ss.ring[(ss.head+ss.n)%streamQueueCap] = rec
	ss.n++
	ss.mu.Unlock()
	select {
	case ss.wake <- struct{}{}:
	default:
	}
}

// pop dequeues the oldest pending record, also returning (and resetting)
// the count of records dropped before it so the pusher can emit a resync
// marker first.
func (ss *streamSub) pop() (rec pushRec, dropped uint64, ok bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	dropped = ss.dropped
	ss.dropped = 0
	if ss.n == 0 {
		return pushRec{}, dropped, false
	}
	rec = ss.ring[ss.head]
	ss.ring[ss.head].buf = nil
	ss.head = (ss.head + 1) % streamQueueCap
	ss.n--
	return rec, dropped, true
}

// drain recycles every queued buffer (subscriber teardown).
func (ss *streamSub) drain() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for ss.n > 0 {
		putBuf(ss.ring[ss.head].buf)
		ss.ring[ss.head].buf = nil
		ss.head = (ss.head + 1) % streamQueueCap
		ss.n--
	}
}

// streamHub fans retired checkpoints out to the active subscribers. The
// no-subscriber fast path is one atomic load, so systems that never
// stream pay nothing on the snapshotter path.
type streamHub struct {
	mu   sync.Mutex
	subs map[*streamSub]struct{}
	n    atomic.Int32
}

func (h *streamHub) active() bool { return h.n.Load() > 0 }

func (h *streamHub) subscribe() *streamSub {
	ss := &streamSub{wake: make(chan struct{}, 1)}
	h.mu.Lock()
	if h.subs == nil {
		h.subs = make(map[*streamSub]struct{})
	}
	h.subs[ss] = struct{}{}
	h.n.Store(int32(len(h.subs)))
	h.mu.Unlock()
	return ss
}

func (h *streamHub) unsubscribe(ss *streamSub) {
	h.mu.Lock()
	delete(h.subs, ss)
	h.n.Store(int32(len(h.subs)))
	h.mu.Unlock()
	ss.drain()
}

// publish copies the encoded payload into a pooled buffer per subscriber
// and enqueues it. Called under the histstore append lock via AppendWith;
// it never blocks (bounded ring, drop-oldest), so a stalled collector
// costs the snapshotter one memcpy per retire and nothing more.
func (h *streamHub) publish(port int, freezeTime, prevFreeze uint64, special bool, payload []byte) {
	if !h.active() {
		return
	}
	var flags byte
	if special {
		flags |= pushFlagSpecial
	}
	h.mu.Lock()
	for ss := range h.subs {
		buf := append(getBuf(), payload...)
		ss.push(pushRec{port: port, freezeTime: freezeTime, prevFreeze: prevFreeze, flags: flags, buf: buf})
	}
	h.mu.Unlock()
}

// ErrStreamResync reports that the server dropped checkpoint frames under
// backpressure (or the stream observed a sequence gap): the subscriber's
// view has a hole and it must resubscribe from its last covered freeze
// time to replay the gap from the switch's segment log.
var ErrStreamResync = errors.New("control: checkpoint stream dropped frames; resubscribe to replay the gap")

// CheckpointStream is a subscription to one switch's retired-checkpoint
// feed. It is a dedicated single-purpose connection — the mux client's
// request/response pairing has no slot for server-initiated frames — and
// imposes no read deadline: a healthy stream may be silent for as long as
// the switch goes without retiring a checkpoint.
type CheckpointStream struct {
	conn    net.Conn
	br      *bufio.Reader
	scratch []byte
	lastSeq uint64
	closed  atomic.Bool
}

// DialCheckpoints opens a checkpoint subscription to addr, replaying
// stored records with FreezeTime > since before live frames. since = 0
// replays the switch's whole retained history. Dial and write honor
// opts.Timeout and opts.Dialer; the retry/backoff fields are unused (the
// mirror owns its own reconnect policy).
func DialCheckpoints(addr string, since uint64, opts DialOptions) (*CheckpointStream, error) {
	timeout, _, _, _, _, dialer := opts.resolved()
	conn, err := dialer(addr, timeout)
	if err != nil {
		return nil, err
	}
	buf := appendSubscribeFrame(getBuf(), since)
	conn.SetWriteDeadline(time.Now().Add(timeout))
	_, werr := conn.Write(buf)
	conn.SetWriteDeadline(time.Time{})
	putBuf(buf)
	if werr != nil {
		conn.Close()
		return nil, werr
	}
	// The reader and scratch buffer are deliberately not pooled: Close may
	// race a blocked Next (that is how the mirror's stop path unblocks the
	// streamer), so recycling them could hand a buffer to another
	// connection while a read still references it.
	return &CheckpointStream{
		conn:    conn,
		br:      bufio.NewReaderSize(conn, 64<<10),
		scratch: make([]byte, 0, 4096),
	}, nil
}

// Next blocks for the next pushed checkpoint frame. It returns
// ErrStreamResync when the server signals dropped frames or a sequence
// discontinuity is observed; the caller should Close and redial with
// since set to its last covered freeze time. The returned frame's Payload
// is valid only until the next call.
func (st *CheckpointStream) Next() (CheckpointFrame, error) {
	op, payload, err := readFrame(st.br, st.scratch, maxFramePayload)
	st.scratch = payload[:0]
	if err != nil {
		if st.closed.Load() {
			return CheckpointFrame{}, net.ErrClosed
		}
		return CheckpointFrame{}, err
	}
	switch op {
	case opCheckpointPush:
		f, err := decodeCheckpointFrame(payload)
		if err != nil {
			return CheckpointFrame{}, err
		}
		if st.lastSeq != 0 && f.Seq != st.lastSeq+1 {
			st.lastSeq = f.Seq
			return CheckpointFrame{}, ErrStreamResync
		}
		st.lastSeq = f.Seq
		return f, nil
	case opStreamResync:
		if _, err := decodeResync(payload); err != nil {
			return CheckpointFrame{}, err
		}
		st.lastSeq = 0
		return CheckpointFrame{}, ErrStreamResync
	default:
		return CheckpointFrame{}, fmt.Errorf("%w: unexpected op 0x%02x on checkpoint stream", errBadMagic, op)
	}
}

// Close tears the subscription down. Safe to call concurrently with a
// blocked Next, which then returns net.ErrClosed.
func (st *CheckpointStream) Close() error {
	st.closed.Store(true)
	return st.conn.Close()
}
