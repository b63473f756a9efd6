package control

import (
	"bufio"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// netFixture builds a populated system with a running query + net server.
func netFixture(t *testing.T) (*NetServer, uint64) {
	t.Helper()
	cfg := testConfig(0)
	s, _ := New(cfg)
	var ts uint64 = 1000
	for i := 0; i < 60; i++ {
		ts += 10
		s.OnDequeue(deq(fkey(byte(i%3)), 0, ts-40, ts, 8))
	}
	s.Finalize(ts + 1)
	qs := NewQueryServer(s)
	qs.Start(2)
	t.Cleanup(qs.Stop)
	srv, err := ServeQueries("127.0.0.1:0", qs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, ts
}

// TestNetServerRoundTrip speaks the JSON line protocol over a raw socket:
// answers echo the request id, an empty interval omits "counts", and
// query errors come back as {"error":...} on a connection that keeps
// serving.
func TestNetServerRoundTrip(t *testing.T) {
	srv, ts := netFixture(t)
	js := &jsonSession{addr: srv.Addr().String()}
	defer js.close()
	do := func(req NetRequest) NetResponse {
		t.Helper()
		resp, err := js.do(req, 5*time.Second)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		return resp
	}

	full := do(NetRequest{Kind: "interval", Port: 0, Start: 1000, End: ts + 1})
	if total := jsonTotal(full); full.Error != "" || total < 50 || total > 70 {
		t.Fatalf("remote interval %+v, want ~60 packets", full)
	}
	if orig := do(NetRequest{Kind: "original", Port: 0, At: ts}); orig.Error != "" || len(orig.Counts) == 0 {
		t.Fatalf("remote original query returned %+v", orig)
	}
	if empty := do(NetRequest{Kind: "interval", Port: 0, Start: ts + 100, End: ts + 200}); empty.Error != "" || empty.Counts != nil {
		t.Fatalf("empty-interval query returned %+v, want no counts and no error", empty)
	}

	// Errors travel back as errors.
	if resp := do(NetRequest{Kind: "interval", Port: 9, Start: 0, End: 1}); resp.Error == "" {
		t.Fatal("remote unknown-port query succeeded")
	}
	if resp := do(NetRequest{Kind: "interval", Port: 0, Start: 5, End: 5}); resp.Error == "" {
		t.Fatal("remote empty interval succeeded")
	}
	if got := srv.connections.Load(); got != 1 {
		t.Errorf("connections = %d, want 1: error replies must not drop the connection", got)
	}
}

// TestNetServerJSONWireBytes pins the exact bytes the JSON adapter writes
// for each reply shape a netcat user can provoke: an answer, an original
// query, query errors, an overload, and an over-long line.
func TestNetServerJSONWireBytes(t *testing.T) {
	cfg := testConfig(0)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ts uint64 = 1000
	for i := 0; i < 20; i++ { // one flow, so "counts" has a single key
		ts += 10
		s.OnDequeue(deq(fkey(1), 0, ts-40, ts, 8))
	}
	s.Finalize(ts + 1)
	qs := NewQueryServer(s)
	qs.Start(1)
	t.Cleanup(qs.Stop)
	srv, err := ServeQueriesOpts("127.0.0.1:0", qs, ServeOptions{ShedLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	exchange := func(line string) string {
		t.Helper()
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		reply, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}
	end := strconv.FormatUint(ts+1, 10)
	flowKey := fkey(1).String()
	cases := []struct{ req, want string }{
		{`{"id":1,"kind":"interval","port":0,"start":1000,"end":` + end + `}`,
			`{"id":1,"counts":{"` + flowKey + `":20}}`},
		{`{"id":2,"kind":"interval","port":0,"start":` + end + `,"end":` + strconv.FormatUint(ts+100, 10) + `}`,
			`{"id":2}`},
		{`{"id":3,"kind":"interval","port":9,"start":0,"end":1}`,
			`{"id":3,"error":"control: port 9 not activated"}`},
		{`{"id":4,"kind":"interval","port":0,"start":5,"end":5}`,
			`{"id":4,"error":"control: empty query interval [5, 5)"}`},
		{`{"id":5,"kind":"bogus","port":0}`,
			`{"id":5,"error":"unknown kind \"bogus\""}`},
		{strings.Repeat("x", maxLine+1),
			`{"error":"bad request: line exceeds 65536 bytes"}`},
	}
	for _, c := range cases {
		if got := exchange(c.req); got != c.want+"\n" {
			t.Errorf("request %.60q: reply %q, want %q", c.req, got, c.want+"\n")
		}
	}
	srv.inflight.Add(1) // saturate the shed limit
	if got, want := exchange(`{"id":6,"kind":"original","port":0,"at":1500}`), `{"id":6,"error":"overloaded"}`+"\n"; got != want {
		t.Errorf("overloaded reply %q, want %q", got, want)
	}
	srv.inflight.Add(-1)
}

// TestNetServerOverlongLine sends a request line beyond the 64 KiB cap: the
// server must answer with a bad-request error, count it, and keep the
// connection serving (the old bufio.Scanner path dropped it silently).
func TestNetServerOverlongLine(t *testing.T) {
	srv, ts := netFixture(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	big := make([]byte, 80*1024)
	for i := range big {
		big[i] = 'x'
	}
	big[len(big)-1] = '\n'
	if _, err := conn.Write(big); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("no reply to the over-long line: %v", err)
	}
	if !strings.Contains(resp, "bad request") {
		t.Fatalf("over-long line got %q, want a bad-request error", resp)
	}
	if got := srv.badRequests.Load(); got != 1 {
		t.Errorf("badRequests = %d after over-long line, want 1", got)
	}

	// The connection survives: a well-formed request still gets answered.
	if _, err := conn.Write([]byte(`{"kind":"interval","port":0,"start":1000,"end":` + strconv.FormatUint(ts+1, 10) + "}\n")); err != nil {
		t.Fatal(err)
	}
	resp, err = br.ReadString('\n')
	if err != nil {
		t.Fatalf("request after over-long line got no reply: %v", err)
	}
	if !strings.Contains(resp, "counts") {
		t.Fatalf("request after over-long line got %q, want counts", resp)
	}
}

func TestNetServerMalformedInput(t *testing.T) {
	srv, _ := netFixture(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for _, line := range []string{"not json", `{"kind":"bogus"}`, ""} {
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		if line == "" {
			continue // blank lines are skipped, no response
		}
		resp, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(resp, "error") {
			t.Fatalf("malformed input got %q, want an error response", resp)
		}
	}
}

func TestNetServerConcurrentClients(t *testing.T) {
	srv, ts := netFixture(t)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			js := &jsonSession{addr: srv.Addr().String()}
			defer js.close()
			for i := 0; i < 50; i++ {
				resp, err := js.do(NetRequest{Kind: "interval", Port: 0, Start: 1000, End: ts + 1}, 5*time.Second)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Error != "" {
					t.Error(resp.Error)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestNetServerClose(t *testing.T) {
	srv, _ := netFixture(t)
	addr := srv.Addr().String()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := net.Dial("tcp", addr); err == nil {
		// A new listener may have grabbed the port; tolerate connection
		// but expect no response server-side. Just ensure no panic.
		t.Log("port rebound by another listener; skipping strict check")
	}
}
