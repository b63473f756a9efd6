package control

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"printqueue/internal/faultnet"
	"printqueue/internal/telemetry"
)

// chaosSeed returns the deterministic seed for the fault-injection tests.
// CI pins it via PRINTQUEUE_CHAOS_SEED; the default keeps local runs
// reproducible too.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	if v := os.Getenv("PRINTQUEUE_CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("PRINTQUEUE_CHAOS_SEED=%q: %v", v, err)
		}
		return n
	}
	return 1
}

// chaosFixture builds a populated system served through a fault-injecting
// listener. The trace is the netFixture one: ~60 packets dequeued on port 0
// between t=1010 and t=ts, so Interval(0, 1000, ts+1) totals ~60 and any
// interval after ts is empty.
func chaosFixture(t *testing.T, fcfg faultnet.Config, opts ServeOptions) (*NetServer, uint64) {
	t.Helper()
	cfg := testConfig(0)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ts uint64 = 1000
	for i := 0; i < 60; i++ {
		ts += 10
		s.OnDequeue(deq(fkey(byte(i%3)), 0, ts-40, ts, 8))
	}
	s.Finalize(ts + 1)
	qs := NewQueryServer(s)
	qs.Start(2)
	t.Cleanup(qs.Stop)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeQueriesListener(faultnet.Wrap(ln, fcfg), qs, opts)
	t.Cleanup(func() { srv.Close() })
	return srv, ts
}

// jsonRoundTrip speaks the v1 JSON line protocol over a raw socket, the
// way a netcat user does: encode one request line, read one response line,
// and trust it. With req.ID zero it is exactly the pre-id client whose
// desync bug TestChaosDesyncLegacyClient reproduces.
func jsonRoundTrip(conn net.Conn, br *bufio.Reader, req NetRequest, deadline time.Duration) (NetResponse, error) {
	if err := conn.SetDeadline(time.Now().Add(deadline)); err != nil {
		return NetResponse{}, err
	}
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		return NetResponse{}, err
	}
	line, err := br.ReadBytes('\n')
	if err != nil {
		return NetResponse{}, err
	}
	var resp NetResponse
	err = json.Unmarshal(line, &resp)
	return resp, err
}

// errIDMismatch reports a JSON response whose id is not the request's: the
// server answered some other query.
var errIDMismatch = errors.New("response id does not match request id")

// jsonSession is a raw-socket JSON user that reconnects: every request
// carries a fresh id, and any failure drops the connection so the next
// request dials a new one. Retrying is left to the caller.
type jsonSession struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	id   uint64
}

// do sends req (its ID is assigned here) and returns the matching response.
func (js *jsonSession) do(req NetRequest, deadline time.Duration) (NetResponse, error) {
	if js.conn == nil {
		conn, err := net.DialTimeout("tcp", js.addr, deadline)
		if err != nil {
			return NetResponse{}, err
		}
		js.conn, js.br = conn, bufio.NewReader(conn)
	}
	js.id++
	req.ID = js.id
	resp, err := jsonRoundTrip(js.conn, js.br, req, deadline)
	if err == nil && resp.ID != req.ID {
		err = fmt.Errorf("%w: got %d, sent %d", errIDMismatch, resp.ID, req.ID)
	}
	if err != nil {
		js.close()
	}
	return resp, err
}

// retry runs do up to attempts times, stopping at the first response.
func (js *jsonSession) retry(req NetRequest, deadline time.Duration, attempts int) (NetResponse, error) {
	var resp NetResponse
	var err error
	for i := 0; i < attempts; i++ {
		if resp, err = js.do(req, deadline); err == nil || errors.Is(err, errIDMismatch) {
			break
		}
	}
	return resp, err
}

func (js *jsonSession) close() {
	if js.conn != nil {
		js.conn.Close()
		js.conn = nil
	}
}

// jsonTotal sums a JSON response's counts.
func jsonTotal(resp NetResponse) float64 {
	var total float64
	for _, n := range resp.Counts {
		total += n
	}
	return total
}

// TestChaosDesyncLegacyClient reproduces the framing-desync bug the id
// protocol fixes: the server's first response is delayed past the client's
// read deadline, the old-style client times out but keeps the connection,
// and the next query then reads the previous query's counts as its own.
func TestChaosDesyncLegacyClient(t *testing.T) {
	srv, ts := chaosFixture(t, faultnet.Config{
		Seed: chaosSeed(t), WriteLatency: 300 * time.Millisecond, SlowWrites: 1,
	}, ServeOptions{})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	// Query A covers the whole trace (~60 packets); its response write is
	// delayed 300ms, so the 50ms read deadline expires first.
	_, err = jsonRoundTrip(conn, br, NetRequest{Kind: "interval", Port: 0, Start: 1000, End: ts + 1}, 50*time.Millisecond)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("query A error %v, want an I/O timeout", err)
	}

	// Query B covers an interval after the trace: the true answer is zero
	// flows. The legacy client instead receives query A's stale response.
	resp, err := jsonRoundTrip(conn, br, NetRequest{Kind: "interval", Port: 0, Start: ts + 100, End: ts + 200}, 2*time.Second)
	if err != nil {
		t.Fatalf("query B: %v", err)
	}
	if total := jsonTotal(resp); total < 50 {
		// If this starts failing, the stale-response hazard is gone at the
		// transport level and the legacy reproduction can be retired.
		t.Fatalf("legacy client read %v packets for the empty interval; expected the stale ~60-packet response (bug reproduction)", total)
	}
}

// TestChaosDesyncFixedClient is the same mid-read-timeout injection against
// the id-matching client: the timed-out connection is poisoned, the retry
// redials, and the second query returns its own (empty) result — never
// query A's.
func TestChaosDesyncFixedClient(t *testing.T) {
	srv, ts := chaosFixture(t, faultnet.Config{
		Seed: chaosSeed(t), WriteLatency: 300 * time.Millisecond, SlowWrites: 1,
	}, ServeOptions{})

	reg := telemetry.NewRegistry()
	c, err := DialMuxOpts(srv.Addr().String(), DialOptions{
		Timeout:     50 * time.Millisecond,
		MaxRetries:  4,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		Timeouts:    reg.Counter("printqueue_query_client_timeouts_total", "t"),
		Retries:     reg.Counter("printqueue_query_client_retries_total", "r"),
		Reconnects:  reg.Counter("printqueue_query_client_reconnects_total", "c"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Query A: first attempt times out mid-read (the response lands 300ms
	// late); the retry runs on a fresh connection and must return A's own
	// counts.
	counts, err := c.Interval(0, 1000, ts+1)
	if err != nil {
		t.Fatalf("query A after retries: %v", err)
	}
	var total float64
	for _, n := range counts {
		total += n
	}
	if total < 50 || total > 70 {
		t.Fatalf("query A total %v, want ~60", total)
	}

	// Query B: empty interval. The fixed client must never surface A's
	// stale response: the result is an empty, non-nil map.
	empty, err := c.Interval(0, ts+100, ts+200)
	if err != nil {
		t.Fatalf("query B: %v", err)
	}
	if empty == nil {
		t.Fatal("empty result is nil; want a non-nil empty map")
	}
	if len(empty) != 0 {
		t.Fatalf("query B returned %d flows, want 0 (stale response leaked)", len(empty))
	}

	if c.Timeouts() == 0 || c.Retries() == 0 || c.Reconnects() == 0 {
		t.Fatalf("resilience counters: timeouts=%d retries=%d reconnects=%d, want all > 0",
			c.Timeouts(), c.Retries(), c.Reconnects())
	}
	for name, got := range map[string]int64{
		"printqueue_query_client_timeouts_total":   c.Timeouts(),
		"printqueue_query_client_retries_total":    c.Retries(),
		"printqueue_query_client_reconnects_total": c.Reconnects(),
	} {
		if reg.Counter(name, "").Load() != got {
			t.Errorf("wired counter %s = %d, want %d", name, reg.Counter(name, "").Load(), got)
		}
	}
}

// TestChaosReconnectAfterIdleClose covers the server's idle deadline on a
// JSON connection: the server reclaims the idle connection, the next
// request on it fails, and a fresh connection is served normally.
func TestChaosReconnectAfterIdleClose(t *testing.T) {
	srv, ts := chaosFixture(t, faultnet.Config{}, ServeOptions{IdleTimeout: 50 * time.Millisecond})
	js := &jsonSession{addr: srv.Addr().String()}
	defer js.close()
	full := NetRequest{Kind: "interval", Port: 0, Start: 1000, End: ts + 1}

	if _, err := js.do(full, time.Second); err != nil {
		t.Fatalf("first query: %v", err)
	}
	time.Sleep(300 * time.Millisecond) // server idle deadline reclaims the conn
	if _, err := js.do(full, time.Second); err == nil {
		t.Fatal("query on a connection idle past the server's deadline succeeded")
	}
	resp, err := js.do(full, time.Second) // redials
	if err != nil {
		t.Fatalf("query on a fresh connection: %v", err)
	}
	if total := jsonTotal(resp); total < 50 || total > 70 {
		t.Fatalf("post-reconnect total %v, want ~60", total)
	}
	if got := srv.connections.Load(); got != 2 {
		t.Errorf("connections = %d, want 2 (the original and the redial)", got)
	}
}

// TestChaosAcceptRetry injects transient accept failures (the EMFILE
// scenario that used to kill the listener forever) and checks the accept
// loop retries through them and keeps serving.
func TestChaosAcceptRetry(t *testing.T) {
	srv, ts := chaosFixture(t, faultnet.Config{AcceptFailures: 3}, ServeOptions{})
	js := &jsonSession{addr: srv.Addr().String()}
	defer js.close()
	if _, err := js.do(NetRequest{Kind: "interval", Port: 0, Start: 1000, End: ts + 1}, 5*time.Second); err != nil {
		t.Fatalf("query through a listener that survived accept failures: %v", err)
	}
	if got := srv.acceptRetries.Load(); got != 3 {
		t.Errorf("accept retries = %d, want 3", got)
	}
}

// TestChaosShedOverload drives the load-shedding bound on the JSON
// protocol: with the backlog artificially saturated the server answers
// {"id":N,"error":"overloaded"} immediately, and the same connection is
// served normally once capacity frees up, since an overload reply leaves
// the line framing intact.
func TestChaosShedOverload(t *testing.T) {
	srv, ts := chaosFixture(t, faultnet.Config{}, ServeOptions{ShedLimit: 1})
	js := &jsonSession{addr: srv.Addr().String()}
	defer js.close()
	full := NetRequest{Kind: "interval", Port: 0, Start: 1000, End: ts + 1}

	srv.inflight.Add(1) // saturate the backlog
	resp, err := js.do(full, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != ErrOverloaded.Error() || resp.Counts != nil {
		t.Fatalf("saturated server replied %+v, want an overloaded error", resp)
	}
	if got := srv.shed.Load(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}

	srv.inflight.Add(-1)
	resp, err = js.do(full, time.Second)
	if err != nil {
		t.Fatalf("query after the backlog drained: %v", err)
	}
	if resp.Error != "" || jsonTotal(resp) < 50 {
		t.Fatalf("query after the backlog drained: %+v, want ~60 packets", resp)
	}
	if got := srv.connections.Load(); got != 1 {
		t.Errorf("overload reply cost a connection: %d accepted, want 1", got)
	}
}

// TestChaosFaultMatrix runs a reconnecting JSON user against each fault
// family with a fixed seed. Chaos may cost round trips (errors after the
// attempt budget), but a response must NEVER carry another request's id
// or another query's data.
func TestChaosFaultMatrix(t *testing.T) {
	seed := chaosSeed(t)
	cases := []struct {
		name string
		fcfg faultnet.Config
	}{
		{"drops", faultnet.Config{Seed: seed, DropWrite: 0.3}},
		{"resets", faultnet.Config{Seed: seed, Reset: 0.08}},
		{"partial-writes", faultnet.Config{Seed: seed, PartialWrite: 0.3}},
		{"latency", faultnet.Config{Seed: seed, ReadLatency: 2 * time.Millisecond, WriteLatency: 2 * time.Millisecond}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := chaosFixture(t, tc.fcfg, ServeOptions{})
			js := &jsonSession{addr: srv.Addr().String()}
			defer js.close()

			successes := 0
			for i := 0; i < 20; i++ {
				// Alternate a full-trace query with an empty-interval one so
				// a stale response would be caught as a wrong total.
				wantFull := i%2 == 0
				req := NetRequest{Kind: "interval", Port: 0, Start: ts + 100, End: ts + 200}
				if wantFull {
					req.Start, req.End = 1000, ts+1
				}
				resp, err := js.retry(req, 100*time.Millisecond, 9)
				if errors.Is(err, errIDMismatch) {
					t.Fatalf("query %d: %v", i, err)
				}
				if err != nil {
					continue // chaos may exhaust the budget; wrong data may not
				}
				successes++
				total := jsonTotal(resp)
				if wantFull && (total < 50 || total > 70) {
					t.Fatalf("query %d: total %v, want ~60 (mismatched response?)", i, total)
				}
				if !wantFull && total != 0 {
					t.Fatalf("query %d: empty interval returned %v packets (stale response)", i, total)
				}
			}
			if successes < 15 {
				t.Fatalf("only %d/20 queries succeeded under %s with a 9-attempt budget", successes, tc.name)
			}
			t.Logf("%s: %d/20 ok, connections=%d", tc.name, successes, srv.connections.Load())
		})
	}
}

// TestChaosConcurrentClientsUnderFaults hammers the JSON server from
// several goroutines while writes drop, under -race: every answer must be
// the right one for the interval asked.
func TestChaosConcurrentClientsUnderFaults(t *testing.T) {
	srv, ts := chaosFixture(t, faultnet.Config{Seed: chaosSeed(t), DropWrite: 0.15}, ServeOptions{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			js := &jsonSession{addr: srv.Addr().String()}
			defer js.close()
			for i := 0; i < 10; i++ {
				full := (g+i)%2 == 0
				req := NetRequest{Kind: "interval", Port: 0, Start: ts + 100, End: ts + 200}
				if full {
					req.Start, req.End = 1000, ts+1
				}
				resp, err := js.retry(req, 100*time.Millisecond, 9)
				if errors.Is(err, errIDMismatch) {
					t.Errorf("client %d query %d: %v", g, i, err)
					return
				}
				if err != nil {
					continue
				}
				total := jsonTotal(resp)
				if full && (total < 50 || total > 70) {
					t.Errorf("client %d query %d: total %v, want ~60", g, i, total)
				}
				if !full && total != 0 {
					t.Errorf("client %d query %d: stale response (%v packets for empty interval)", g, i, total)
				}
			}
		}(g)
	}
	wg.Wait()
}
