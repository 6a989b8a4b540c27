package serve

import (
	"context"
	"errors"
	"sync"
	"testing"

	"icebergcube/internal/agg"
	"icebergcube/internal/lattice"
	"icebergcube/internal/results"
)

// TestQueryCtxCancelledAtEntry: a context cancelled before the call never
// reaches the cache or the aggregation kernel and is counted.
func TestQueryCtxCancelledAtEntry(t *testing.T) {
	leaf, cards := buildLeaf([]int{4, 3, 5}, 200, 1)
	s := NewServer(leaf, cards, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.QueryCtx(ctx, lattice.Mask(0b011)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	m := s.Stats()
	if m.Canceled != 1 {
		t.Fatalf("Canceled = %d, want 1", m.Canceled)
	}
	if m.Queries != 0 || m.Computes != 0 {
		t.Fatalf("cancelled query did work: %+v", m)
	}
	// The same query with a live context still answers correctly.
	cub, _, err := s.QueryCtx(context.Background(), lattice.Mask(0b011))
	if err != nil {
		t.Fatal(err)
	}
	checkCuboid(t, leaf, lattice.Mask(0b011), cub)
}

// TestQueryCtxWaiterAbandonsFlight: a coalesced waiter whose context is
// cancelled returns immediately; the flight it was waiting on completes
// and serves later queries from the cache.
func TestQueryCtxWaiterAbandonsFlight(t *testing.T) {
	leaf, cards := buildLeaf([]int{6, 5, 4}, 400, 2)
	s := NewServer(leaf, cards, 0)
	q := lattice.Mask(0b101)

	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	s.testBeforeAdmit = func() {
		once.Do(func() { close(entered) })
		<-release
	}

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := s.Query(q)
		leaderDone <- err
	}()
	<-entered // the leader is mid-computation, holding the flight open

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := s.QueryCtx(ctx, q)
		waiterDone <- err
	}()
	// Cancel the waiter while the leader is still blocked. The waiter must
	// return without waiting for the flight.
	cancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader err = %v", err)
	}
	s.testBeforeAdmit = nil

	// The flight completed despite the abandoned waiter: the cuboid is
	// resident now.
	_, qs, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !qs.CacheHit {
		t.Fatalf("expected cache hit after completed flight, got %+v", qs)
	}
	if got := s.Stats().Canceled; got != 1 {
		t.Fatalf("Canceled = %d, want 1", got)
	}
}

// memColdSource streams a fixed row set in small chunks and counts the
// chunks yielded, so tests can observe a scan aborting early.
type memColdSource struct {
	width   int
	keys    [][]uint32 // row-major
	meas    []float64
	chunk   int
	onChunk func(n int) // called after the nth chunk is yielded (1-based)
	fail    error       // when set, returned in place of yielding a chunk

	mu      sync.Mutex
	yielded int
}

func (m *memColdSource) Width() int { return m.width }
func (m *memColdSource) Rows() int  { return len(m.meas) }

func (m *memColdSource) Scan(dims []int, yield func(cols [][]uint32, meas []float64) error) error {
	for lo := 0; lo < len(m.meas); lo += m.chunk {
		hi := lo + m.chunk
		if hi > len(m.meas) {
			hi = len(m.meas)
		}
		cols := make([][]uint32, len(dims))
		for i, d := range dims {
			col := make([]uint32, 0, hi-lo)
			for r := lo; r < hi; r++ {
				col = append(col, m.keys[r][d])
			}
			cols[i] = col
		}
		m.mu.Lock()
		m.yielded++
		n := m.yielded
		m.mu.Unlock()
		if m.onChunk != nil {
			m.onChunk(n)
		}
		if m.fail != nil {
			return m.fail
		}
		if err := yield(cols, m.meas[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

func (m *memColdSource) chunksYielded() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.yielded
}

// TestColdQueryCtxAbortsScan: cancelling mid-scan stops the cold source
// stream well before the table end, surfaces the context error, and does
// not poison later queries.
func TestColdQueryCtxAbortsScan(t *testing.T) {
	const rows = 1000
	src := &memColdSource{width: 3, chunk: 10}
	for r := 0; r < rows; r++ {
		src.keys = append(src.keys, []uint32{uint32(r % 7), uint32(r % 5), uint32(r % 3)})
		src.meas = append(src.meas, float64(r))
	}
	s, err := NewSourceServer(src, []int{7, 5, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel from inside the scan after the third chunk, so the abort is
	// deterministic: chunk 4's context check must fail.
	ctx, cancel := context.WithCancel(context.Background())
	src.onChunk = func(n int) {
		if n == 3 {
			cancel()
		}
	}
	_, _, err = s.QueryCtx(ctx, lattice.Mask(0b001))
	src.onChunk = nil
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	aborted := src.chunksYielded()
	if aborted >= rows/src.chunk {
		t.Fatalf("scan ran to completion (%d chunks) despite cancellation", aborted)
	}
	if got := s.Stats().Canceled; got == 0 {
		t.Fatal("Canceled counter not incremented")
	}

	// A fresh query recovers: full scan, correct metrics.
	cub, qs, err := s.Query(lattice.Mask(0b001))
	if err != nil {
		t.Fatal(err)
	}
	if !qs.ColdScan || qs.RowsScanned != rows {
		t.Fatalf("recovery query stats %+v, want full cold scan of %d rows", qs, rows)
	}
	if cub.Rows() != 7 {
		t.Fatalf("cuboid has %d cells, want 7", cub.Rows())
	}
}

// newMemSource fills a memColdSource with rows over three dimensions of
// cardinality 7, 5 and 3, and returns it with the equivalent in-memory
// leaf cuboid.
func newMemSource(rows, chunk int) (*memColdSource, *Cuboid, []int) {
	src := &memColdSource{width: 3, chunk: chunk}
	set := results.NewSet()
	for r := 0; r < rows; r++ {
		key := []uint32{uint32(r % 7), uint32(r % 5), uint32(r % 3)}
		src.keys = append(src.keys, key)
		src.meas = append(src.meas, float64(r))
		st := agg.NewState()
		st.Add(float64(r))
		set.WriteCell(0b111, key, st)
	}
	keys, states := set.CuboidColumns(0b111)
	return src, &Cuboid{Mask: 0b111, Width: 3, Keys: keys, States: states}, []int{7, 5, 3}
}

type answer struct {
	cub *Cuboid
	qs  QueryStats
	err error
}

// joinWaiter starts QueryCtx(ctx, q) and returns once the query is
// waiting on the flight already in progress for q.
func joinWaiter(ctx context.Context, s *Server, q lattice.Mask) <-chan answer {
	joined := make(chan struct{})
	s.testOnWait = func() { close(joined) }
	out := make(chan answer, 1)
	go func() {
		cub, qs, err := s.QueryCtx(ctx, q)
		out <- answer{cub, qs, err}
	}()
	<-joined
	s.testOnWait = nil
	return out
}

// parkLeader starts a query for q that parks between its derivation and
// its cache admission, holding the flight open; the returned function
// lets it finish and waits for its answer.
func parkLeader(t *testing.T, s *Server, q lattice.Mask) (release func()) {
	t.Helper()
	parked, resume := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s.testBeforeAdmit = func() {
		once.Do(func() {
			close(parked)
			<-resume
		})
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := s.Query(q)
		done <- err
	}()
	<-parked
	return func() {
		close(resume)
		if err := <-done; err != nil {
			t.Fatalf("leader for %b: %v", q, err)
		}
		s.testBeforeAdmit = nil
	}
}

// TestSourceWaiterSurvivesLeaderCancel: a query coalesced onto a scan
// whose leader's client hangs up mid-scan must not inherit that
// cancellation — its own context is live, so it re-enters the query and
// gets the right cuboid.
func TestSourceWaiterSurvivesLeaderCancel(t *testing.T) {
	src, leaf, cards := newMemSource(1000, 10)
	s, err := NewSourceServer(src, cards, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := lattice.Mask(0b011)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	var waiter <-chan answer
	src.onChunk = func(n int) {
		if n == 3 {
			waiter = joinWaiter(context.Background(), s, q)
			cancelLeader()
		}
	}
	if _, _, err := s.QueryCtx(leaderCtx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	got := <-waiter
	src.onChunk = nil
	if got.err != nil {
		t.Fatalf("waiter err = %v, want its own answer", got.err)
	}
	checkCuboid(t, leaf, q, got.cub)
	if !got.qs.ColdScan || got.qs.Coalesced || got.qs.RowsScanned != 1000 {
		t.Fatalf("waiter stats %+v, want its own full scan", got.qs)
	}
	m := s.Stats()
	if m.Queries != 2 || m.Canceled != 1 || m.ColdScans != 1 || m.Coalesced != 0 {
		t.Fatalf("metrics %+v, want 2 queries = 1 canceled + 1 cold scan", m)
	}
}

// TestServingCounterIdentity: every query that passes the entry check
// lands in exactly one of hits, coalesced, leaf / ancestor / cold-scan
// computes and canceled — on a pinned-leaf server and on a source-backed
// one, over a sequence with a coalesced wait, an abandoned wait and (on
// the source) a mid-scan cancel with a re-entering waiter.
func TestServingCounterIdentity(t *testing.T) {
	src, leaf, cards := newMemSource(600, 20)
	cold, err := NewSourceServer(src, cards, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		s    *Server
	}{
		{"pinned-leaf", NewServer(leaf, cards, 0)},
		{"source", cold},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			identity := func(step string) {
				t.Helper()
				m := s.Stats()
				if m.Queries != m.CacheHits+m.Coalesced+m.Computes+m.Canceled {
					t.Fatalf("after %s: Queries %d != hits %d + coalesced %d + computes %d + canceled %d",
						step, m.Queries, m.CacheHits, m.Coalesced, m.Computes, m.Canceled)
				}
				if m.Computes != m.LeafAggregations+m.AncestorAggregations+m.ColdScans {
					t.Fatalf("after %s: Computes %d is not the sum of its sources: %+v", step, m.Computes, m)
				}
			}
			query := func(q lattice.Mask) {
				t.Helper()
				cub, _, err := s.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				checkCuboid(t, leaf, q, cub)
			}

			for _, q := range []lattice.Mask{0b011, 0b001, 0b001, 0b111, 0b111} {
				query(q) // leaf or cold miss, ancestor, hit, leaf or cold
			}
			identity("misses and hits")

			release := parkLeader(t, s, 0b110)
			coalesced := joinWaiter(context.Background(), s, 0b110)
			release()
			if got := <-coalesced; got.err != nil || !got.qs.Coalesced {
				t.Fatalf("coalesced waiter: %+v", got)
			}
			identity("coalesced wait")

			release = parkLeader(t, s, 0b100)
			ctx, cancel := context.WithCancel(context.Background())
			abandoned := joinWaiter(ctx, s, 0b100)
			cancel()
			if got := <-abandoned; !errors.Is(got.err, context.Canceled) {
				t.Fatalf("abandoned waiter err = %v", got.err)
			}
			release()
			identity("abandoned wait")

			if s.src != nil {
				s.Reset() // no resident ancestor: the next miss scans
				leaderCtx, cancelLeader := context.WithCancel(context.Background())
				defer cancelLeader()
				var waiter <-chan answer
				src.onChunk = func(n int) {
					if waiter == nil {
						waiter = joinWaiter(context.Background(), s, 0b101)
						cancelLeader()
					}
				}
				if _, _, err := s.QueryCtx(leaderCtx, 0b101); !errors.Is(err, context.Canceled) {
					t.Fatalf("leader err = %v", err)
				}
				got := <-waiter
				src.onChunk = nil
				if got.err != nil {
					t.Fatal(got.err)
				}
				checkCuboid(t, leaf, 0b101, got.cub)
				identity("mid-scan cancel and re-entering waiter")

				// A read error is not a cancellation: the coalesced waiter
				// inherits it instead of re-entering.
				errRead := errors.New("read error")
				src.fail = errRead
				waiter = nil
				src.onChunk = func(int) {
					if waiter == nil {
						waiter = joinWaiter(context.Background(), s, 0b010)
					}
				}
				if _, _, err := s.Query(0b010); !errors.Is(err, errRead) {
					t.Fatalf("leader err = %v, want the read error", err)
				}
				if got := <-waiter; !errors.Is(got.err, errRead) {
					t.Fatalf("waiter err = %v, want the read error", got.err)
				}
				src.fail, src.onChunk = nil, nil
				identity("failed scan")
			}

			m := s.Stats()
			if m.CacheHits == 0 || m.Coalesced == 0 || m.Canceled == 0 || m.AncestorAggregations == 0 {
				t.Fatalf("sequence missed a category: %+v", m)
			}
			if (s.src != nil) != (m.ColdScans > 0) || (s.src == nil) != (m.LeafAggregations > 0) {
				t.Fatalf("leaf/cold split wrong for %s: %+v", tc.name, m)
			}
		})
	}
}
