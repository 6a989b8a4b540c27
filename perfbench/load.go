package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"icebergcube/internal/httpserve"
)

// opResult is the outcome of one operation.
type opResult struct {
	kind opKind
	ok   bool
	lat  time.Duration
	err  string // set when !ok
}

// windowLen is the length of the windows a closed loop's throughput and
// median latency are taken over; the run reports the median window, so a
// burst of interference from outside the benchmark moves it less than it
// moves a whole-run average. The host's speed drifts over seconds, so
// short windows let the median pass over its slow spells; one second still
// holds a few dozen of cold-scan's rare heavy queries (the few percent
// that stream segments).
const windowLen = time.Second

// loopStats accumulates a closed loop's outcomes. Only successful
// operations contribute latency samples; failures count against
// attempted.
type loopStats struct {
	attempted, failed int
	queryMS, mutateMS []float64
	elapsed           time.Duration
	firstErr          string
	// winRate and winP50 hold each window's completed operations per
	// second and median latency (ms). A loop shorter than a window is one
	// window.
	winRate, winP50 []float64
	// done and doneMS are each successful operation's completion time
	// (since the loop started) and latency; closedLoop turns them into
	// windows.
	done   []time.Duration
	doneMS []float64
}

func (s *loopStats) add(r opResult) {
	s.attempted++
	if !r.ok {
		s.failed++
		if s.firstErr == "" {
			s.firstErr = r.err
		}
		return
	}
	ms := float64(r.lat) / 1e6
	s.doneMS = append(s.doneMS, ms)
	if r.kind == opMutate {
		s.mutateMS = append(s.mutateMS, ms)
	} else {
		s.queryMS = append(s.queryMS, ms)
	}
}

func (s *loopStats) merge(o loopStats) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.queryMS = append(s.queryMS, o.queryMS...)
	s.mutateMS = append(s.mutateMS, o.mutateMS...)
	s.elapsed += o.elapsed
	s.winRate = append(s.winRate, o.winRate...)
	s.winP50 = append(s.winP50, o.winP50...)
	s.done = append(s.done, o.done...)
	s.doneMS = append(s.doneMS, o.doneMS...)
	if s.firstErr == "" {
		s.firstErr = o.firstErr
	}
}

// closedLoop runs `clients` goroutines, each sending its next operation
// only after the previous one completed, until d has passed or maxOps
// operations (> 0) have started. Operations are numbered from start in
// the order clients take them. A failed operation is counted and the loop
// goes on.
func closedLoop(clients int, d time.Duration, start, maxOps int, do func(i int) opResult) loopStats {
	var next atomic.Int64
	next.Store(int64(start))
	limit := int64(-1)
	if maxOps > 0 {
		limit = int64(start + maxOps)
	}
	t0 := time.Now()
	deadline := t0.Add(d)
	per := make([]loopStats, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(st *loopStats) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if limit >= 0 && i >= limit {
					return
				}
				r := do(int(i))
				st.add(r)
				if r.ok {
					st.done = append(st.done, time.Since(t0))
				}
			}
		}(&per[c])
	}
	wg.Wait()
	var out loopStats
	for _, p := range per {
		out.merge(p)
	}
	out.elapsed = time.Since(t0)
	out.windows()
	return out
}

// windows buckets the loop's completions into full windows of windowLen
// (the partial last one is dropped) and clears the completion records.
func (s *loopStats) windows() {
	n := int(s.elapsed / windowLen)
	span := windowLen
	if n == 0 {
		n, span = 1, s.elapsed
	}
	lat := make([][]float64, n)
	for i, t := range s.done {
		if w := int(t / windowLen); w < n {
			lat[w] = append(lat[w], s.doneMS[i])
		}
	}
	for _, l := range lat {
		s.winRate = append(s.winRate, float64(len(l))/span.Seconds())
		s.winP50 = append(s.winP50, median(l))
	}
	s.done, s.doneMS = nil, nil
}

// server serves one handler on a loopback listener.
type server struct {
	hs   *http.Server
	base string
	done chan struct{}
}

func startServer(handler http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{hs: &http.Server{Handler: handler}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.done
}

// clientPool is the closed loop's HTTP client: one keep-alive
// connection per client goroutine.
type clientPool struct {
	c  *http.Client
	tr *http.Transport
}

func newClientPool(clients int) *clientPool {
	tr := &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}
	return &clientPool{c: &http.Client{Timeout: 60 * time.Second, Transport: tr}, tr: tr}
}

func (p *clientPool) close() { p.tr.CloseIdleConnections() }

// mutPool hands mutates rows to delete: rows that earlier mutates appended
// and whose commit the server acknowledged, oldest first.
type mutPool struct {
	mu   sync.Mutex
	rows []httpserve.MutateRow
}

func (p *mutPool) take(n int) []httpserve.MutateRow {
	p.mu.Lock()
	defer p.mu.Unlock()
	n = min(n, len(p.rows))
	out := append([]httpserve.MutateRow(nil), p.rows[:n]...)
	p.rows = p.rows[n:]
	return out
}

func (p *mutPool) put(rows []httpserve.MutateRow) {
	p.mu.Lock()
	p.rows = append(p.rows, rows...)
	p.mu.Unlock()
}

// sampled is one kept response body, checked after the timed phase.
type sampled struct {
	op   op
	body []byte
}

// sampler keeps every `every`-th query body up to a byte budget.
type sampler struct {
	every  int
	budget int

	mu      sync.Mutex
	kept    []sampled
	bytes   int
	skipped int
}

func (s *sampler) want(i int) bool { return s != nil && i%s.every == 0 }

func (s *sampler) keep(o op, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bytes+len(body) > s.budget {
		s.skipped++
		return
	}
	body = bytes.Clone(body) // exact capacity, so heldMB is what the heap holds
	s.bytes += len(body)
	s.kept = append(s.kept, sampled{op: o, body: body})
}

// heldMB is the MiB the kept bodies occupy; heap metrics subtract it so
// that they describe the program, not the benchmark's samples.
func (s *sampler) heldMB() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.bytes) / (1 << 20)
}

// loader sends a workload's operations over HTTP.
type loader struct {
	base   string
	client *http.Client
	ops    []op
	tr     *tracer // nil: untraced
	sample *sampler
	pool   *mutPool
	sent   atomic.Int64 // query requests sent
	bytes  atomic.Int64 // query response bytes received
}

func (d *loader) do(i int) opResult {
	o := d.ops[i%len(d.ops)]
	var req *http.Request
	var deletes []httpserve.MutateRow
	if o.kind == opMutate {
		deletes = d.pool.take(o.deletes)
		body, err := json.Marshal(&httpserve.MutateRequest{Appends: o.appends, Deletes: deletes, Commit: true})
		if err != nil {
			return opResult{kind: o.kind, err: err.Error()}
		}
		req, err = http.NewRequest(http.MethodPost, d.base+"/v1/mutate", bytes.NewReader(body))
		if err != nil {
			return opResult{kind: o.kind, err: err.Error()}
		}
		req.Header.Set("Content-Type", "application/json")
	} else {
		var err error
		req, err = http.NewRequest(http.MethodGet, d.base+o.url, nil)
		if err != nil {
			return opResult{kind: o.kind, err: err.Error()}
		}
	}
	var id, start int64
	if d.tr != nil {
		id, start = int64(d.tr.newID()), d.tr.now()
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10)+"/"+strconv.FormatInt(id, 10))
	}
	if o.kind == opQuery {
		d.sent.Add(1)
	}
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return opResult{kind: o.kind, err: err.Error()}
	}
	keep := o.kind == opMutate || d.sample.want(i)
	var body []byte
	var n int64
	if keep {
		body, err = io.ReadAll(resp.Body)
		n = int64(len(body))
	} else {
		n, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	lat := time.Since(t0)
	if d.tr != nil {
		name := "client.query"
		if o.kind == opMutate {
			name = "client.mutate"
		}
		d.tr.add(Span{Name: name, ID: uint64(id), Req: uint64(id), Start: start, End: d.tr.now()})
	}
	if o.kind == opQuery {
		d.bytes.Add(n)
	}
	if err != nil {
		return opResult{kind: o.kind, err: "reading body: " + err.Error()}
	}
	if resp.StatusCode != http.StatusOK {
		return opResult{kind: o.kind, err: fmt.Sprintf("status %d: %.200s", resp.StatusCode, body)}
	}
	if o.kind == opMutate {
		var mr httpserve.MutateResponse
		if err := json.Unmarshal(body, &mr); err != nil {
			return opResult{kind: o.kind, err: "undecodable mutate response: " + err.Error()}
		}
		if mr.Appended != len(o.appends) || mr.Deleted != len(deletes) {
			return opResult{kind: o.kind, err: fmt.Sprintf("mutate applied %d+%d rows, sent %d+%d", mr.Appended, mr.Deleted, len(o.appends), len(deletes))}
		}
		d.pool.put(o.appends)
	} else if keep {
		d.sample.keep(o, body)
	}
	return opResult{kind: o.kind, ok: true, lat: lat}
}
