package control

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"printqueue/internal/core/histstore"
)

// newTieredSystem builds a system with a tiny hot tier backed by the
// segment log and returns it with the feed horizon and the hot tier's
// coverage start (the hot/cold partition point).
func newTieredSystem(t *testing.T) (s *System, horizon, hotStart uint64) {
	t.Helper()
	cfg := testConfig(0)
	cfg.PollPeriodNs = 256
	cfg.MaxCheckpoints = 3 // nearly everything is evicted to the cold tier
	cfg.History = &histstore.Options{Dir: t.TempDir()}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	horizon = feedIdentical(t, []*System{s}, 8000)
	cps := s.Checkpoints(0)
	if len(cps) == 0 {
		t.Fatal("no hot checkpoints after feed")
	}
	hotStart = cps[0].PrevFreeze
	if hotStart < 2000 {
		t.Fatalf("hot tier starts at %d; history never evicted to the cold tier", hotStart)
	}
	return s, horizon, hotStart
}

// TestQueryPathBoundaryDifferential pins the indexed path against the
// reference scan across the hot/cold partition: any interval reaching
// below the oldest hot checkpoint must pick up the cold contribution
// exactly once, bit-identically.
func TestQueryPathBoundaryDifferential(t *testing.T) {
	s, horizon, hotStart := newTieredSystem(t)
	cases := []struct {
		name   string
		lo, hi uint64
	}{
		{"full-history", 0, horizon + 1000},
		{"cold-only", 0, hotStart / 2},
		{"straddle", hotStart - 300, hotStart + 300},
		{"ends-at-boundary", hotStart - 500, hotStart},
		{"starts-at-boundary", hotStart, hotStart + 500},
		{"hot-only", horizon - 50, horizon + 1},
		{"beyond-horizon", horizon + 100, horizon + 200},
	}
	check := func(name string, lo, hi uint64) {
		t.Helper()
		want, err := scanInterval(s, 0, lo, hi)
		if err != nil {
			t.Fatalf("%s: scan query [%d,%d): %v", name, lo, hi, err)
		}
		got, err := s.QueryInterval(0, lo, hi)
		if err != nil {
			t.Fatalf("%s: indexed query [%d,%d): %v", name, lo, hi, err)
		}
		if got == nil {
			t.Fatalf("%s: nil counts; empty results must be non-nil", name)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: interval [%d,%d): indexed %v != scan %v", name, lo, hi, got, want)
		}
	}
	for _, c := range cases {
		check(c.name, c.lo, c.hi)
	}
	rng := rand.New(rand.NewPCG(5, 13))
	for q := 0; q < 120; q++ {
		lo := rng.Uint64N(horizon)
		check("random", lo, lo+1+rng.Uint64N(horizon/2))
	}
}

// TestQueryPathDegenerateIntervals: reversed (start > end) and empty
// (start == end) intervals must fail on the indexed path with the same
// error as the reference scan — no partial answer — whether they sit in
// the hot tier, the cold tier, or exactly on the partition boundary.
func TestQueryPathDegenerateIntervals(t *testing.T) {
	s, horizon, hotStart := newTieredSystem(t)
	cases := [][2]uint64{
		{10, 10},                       // empty, cold
		{hotStart, hotStart},           // empty, on the boundary
		{horizon, horizon},             // empty, hot
		{0, 0},                         // empty at origin
		{500, 100},                     // reversed, cold
		{hotStart + 10, hotStart - 10}, // reversed across the boundary
		{horizon + 5, horizon},         // reversed, hot
		{^uint64(0), 0},                // reversed, extreme
	}
	for _, c := range cases {
		ci, errI := s.QueryInterval(0, c[0], c[1])
		_, errS := scanInterval(s, 0, c[0], c[1])
		if errI == nil || errS == nil {
			t.Fatalf("degenerate interval [%d,%d) accepted: indexed err=%v scan err=%v", c[0], c[1], errI, errS)
		}
		if errI.Error() != errS.Error() {
			t.Fatalf("interval [%d,%d): divergent errors: indexed %q, scan %q", c[0], c[1], errI, errS)
		}
		if ci != nil {
			t.Fatalf("interval [%d,%d): counts returned alongside error", c[0], c[1])
		}
	}
}
