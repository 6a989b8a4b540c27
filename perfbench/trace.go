package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	icebergcube "icebergcube"
	"icebergcube/internal/httpserve"
)

// Span is one timed interval at a layer boundary the benchmark owns.
// Spans of one request share Req; Parent is the span that caused this
// one (0 for a root). Times are nanoseconds since the tracer started.
//
// An aggregated span stands for many short calls inside its interval
// (backend.yield, one per cell): Calls counts them and Busy is the time
// spent inside them, which is less than End-Start.
type Span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
	Busy   int64  `json:"busy_ns,omitempty"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// answerRec is what one backend.answer span learned from the serving
// layer's per-request stats.
type answerRec struct {
	deriveNS             int64 // AnswerEach entry to the first yield
	emitNS               int64 // after the first yield, outside yield
	encodeNS             int64 // inside yield
	cells                int64
	hit, coalesced, cold bool
	cellsScanned         int64
}

// maxSpans bounds the tracer's memory; spans past it are counted, not
// kept.
const maxSpans = 2_000_000

// tracer keeps spans and per-layer records in memory until the run ends.
type tracer struct {
	t0   time.Time
	next atomic.Uint64

	mu      sync.Mutex
	spans   []Span
	answers []answerRec
	commits []icebergcube.Snapshot
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// heldMB is the MiB the kept spans and records occupy; heap metrics
// subtract it so that they describe the program. A nil tracer holds
// nothing.
func (t *tracer) heldMB() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uintptr(cap(t.spans))*unsafe.Sizeof(Span{}) +
		uintptr(cap(t.answers))*unsafe.Sizeof(answerRec{}) +
		uintptr(cap(t.commits))*unsafe.Sizeof(icebergcube.Snapshot{})
	return float64(n) / (1 << 20)
}

func (t *tracer) now() int64    { return int64(time.Since(t.t0)) }
func (t *tracer) newID() uint64 { return t.next.Add(1) }
func (t *tracer) add(s Span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// time records fn as a root span of the given name.
func (t *tracer) time(name string, fn func() error) error {
	id, start := t.newID(), t.now()
	err := fn()
	t.add(Span{Name: name, ID: id, Start: start, End: t.now()})
	return err
}

// byName returns the spans of one name.
func (t *tracer) byName(name string) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// dump writes every span as one JSON object per line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children count once;
// children are clipped to the parent's interval. An aggregated child
// contributes its Busy time instead of its interval.
func selfTimes(spans []Span) map[uint64]int64 {
	kids := map[uint64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		var busy int64
		var iv [][2]int64
		for _, c := range kids[s.ID] {
			if c.Calls > 0 {
				busy += c.Busy
				continue
			}
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		for i, x := range iv {
			if i == 0 || x[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = x[0], x[1]
			} else if x[1] > curHi {
				curHi = x[1]
			}
		}
		covered += curHi - curLo
		out[s.ID] = s.dur() - covered - busy
	}
	return out
}

// spanHeader carries "req/parent" from the benchmark's client to the edge
// wrapper so both sides' spans join into one request.
const spanHeader = "X-Perfbench-Span"

type ctxKey struct{}

type spanRef struct{ req, id uint64 }

func spanFrom(ctx context.Context) spanRef {
	r, _ := ctx.Value(ctxKey{}).(spanRef)
	return r
}

// edge wraps the HTTP front-end and records edge.handle around it.
type edge struct {
	tr   *tracer
	next http.Handler
}

func (e edge) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var req, parent uint64
	if h := r.Header.Get(spanHeader); h != "" {
		a, b, _ := strings.Cut(h, "/")
		req, _ = strconv.ParseUint(a, 10, 64)
		parent, _ = strconv.ParseUint(b, 10, 64)
	}
	id, start := e.tr.newID(), e.tr.now()
	e.next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKey{}, spanRef{req, id})))
	e.tr.add(Span{Name: "edge.handle", ID: id, Parent: parent, Req: req, Start: start, End: e.tr.now()})
}

// tracedBackend is the benchmark's httpserve.Backend and Mutator over
// either serving tier. It answers through the same public calls
// httpserve.Warm and httpserve.Cold make, and records backend.answer,
// backend.yield, backend.append, backend.delete and backend.commit.
type tracedBackend struct {
	tr   *tracer
	warm *icebergcube.Materialized
	cold *icebergcube.ColdCube
}

func (b *tracedBackend) Attrs() []string {
	if b.warm != nil {
		return b.warm.Attrs()
	}
	return b.cold.Attrs()
}

func (b *tracedBackend) Version() uint64 {
	if b.warm != nil {
		return b.warm.Version()
	}
	return 0
}

func (b *tracedBackend) Derivations() int64 {
	if b.warm != nil {
		cm := b.warm.CacheMetrics()
		return cm.LeafAggregations + cm.AncestorAggregations
	}
	m := b.cold.Metrics()
	return m.ColdScans + m.AncestorAggregations
}

func (b *tracedBackend) ResetCache() {
	if b.warm != nil {
		b.warm.ResetCache()
		return
	}
	b.cold.ResetCache()
}

func (b *tracedBackend) AnswerEach(ctx context.Context, groupBy []string, minSupport int64, yield func(icebergcube.Cell) error) (uint64, error) {
	parent := spanFrom(ctx)
	tr := b.tr
	id, start := tr.newID(), tr.now()
	first, last := int64(-1), int64(0)
	var inside, cells int64
	counted := func(c icebergcube.Cell) error {
		t0 := tr.now()
		if first < 0 {
			first = t0
		}
		err := yield(c)
		last = tr.now()
		inside += last - t0
		cells++
		return err
	}
	var rec answerRec
	var version uint64
	var err error
	if b.warm != nil {
		var st icebergcube.ServeStats
		st, err = b.warm.AnswerEach(ctx, groupBy, minSupport, counted)
		version = st.Version
		rec.hit, rec.coalesced = st.CacheHit, st.Coalesced
		rec.cellsScanned = int64(st.CellsScanned)
	} else {
		var st icebergcube.ColdServeStats
		st, err = b.cold.AnswerEach(ctx, groupBy, minSupport, counted)
		rec.hit, rec.coalesced, rec.cold = st.CacheHit, st.Coalesced, st.ColdScan
		rec.cellsScanned = int64(st.CellsScanned)
	}
	end := tr.now()
	rec.cells = cells
	if first < 0 {
		rec.deriveNS = end - start
	} else {
		rec.deriveNS = first - start
		rec.encodeNS = inside
		rec.emitNS = end - first - inside
		tr.add(Span{Name: "backend.yield", ID: tr.newID(), Parent: id, Req: parent.req, Start: first, End: last, Calls: cells, Busy: inside})
	}
	tr.add(Span{Name: "backend.answer", ID: id, Parent: parent.id, Req: parent.req, Start: start, End: end})
	if err == nil {
		tr.mu.Lock()
		tr.answers = append(tr.answers, rec)
		tr.mu.Unlock()
	}
	return version, err
}

func (b *tracedBackend) Append(rows [][]string, measures []float64) error {
	return b.tr.time("backend.append", func() error { return b.warm.Append(rows, measures) })
}

func (b *tracedBackend) Delete(rows [][]string, measures []float64) error {
	return b.tr.time("backend.delete", func() error { return b.warm.Delete(rows, measures) })
}

func (b *tracedBackend) Commit() (icebergcube.Snapshot, error) {
	var s icebergcube.Snapshot
	err := b.tr.time("backend.commit", func() error {
		var err error
		s, err = b.warm.Commit()
		return err
	})
	if err == nil {
		b.tr.mu.Lock()
		b.tr.commits = append(b.tr.commits, s)
		b.tr.mu.Unlock()
	}
	return s, err
}

var (
	_ httpserve.Backend = (*tracedBackend)(nil)
	_ httpserve.Mutator = (*tracedBackend)(nil)
)
