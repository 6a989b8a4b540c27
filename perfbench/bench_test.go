package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		pct  float64
		isOK bool
	}{
		{1000, 99, true}, // rank 990, 10 beyond
		{999, 95, true},  // p99 would leave 9 beyond
		{200, 95, true},
		{199, 90, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	} {
		pct, ok := tailPct(tc.n)
		if pct != tc.pct || ok != tc.isOK {
			t.Errorf("tailPct(%d) = %v, %v; want %v, %v", tc.n, pct, ok, tc.pct, tc.isOK)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[999-i] = float64(i + 1) // unsorted input
	}
	d := summarize(xs)
	if d.N != 1000 || d.P50 != 500 || d.TailPct != 99 || d.Tail != 990 {
		t.Errorf("summarize(1..1000) = %+v", d)
	}
	if d := summarize([]float64{3, 1, 2}); d.TailPct != 100 || d.Tail != 3 || d.N != 3 {
		t.Errorf("too few samples: %+v, want the maximum flagged as pct 100", d)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "client.query", ID: 1, Start: 0, End: 100},
		{Name: "edge.handle", ID: 2, Parent: 1, Start: 10, End: 90},
		// Overlapping children of the edge span: [20,50) and [40,70)
		// cover 50ns once, not 60.
		{Name: "backend.answer", ID: 3, Parent: 2, Start: 20, End: 50},
		{Name: "backend.answer", ID: 4, Parent: 2, Start: 40, End: 70},
		// A child sticking out of its parent is clipped: it covers
		// [80,90) of the edge span only.
		{Name: "backend.answer", ID: 5, Parent: 2, Start: 80, End: 120},
		// An aggregated child subtracts its busy time, not its interval.
		{Name: "backend.yield", ID: 6, Parent: 3, Start: 25, End: 45, Calls: 4, Busy: 8},
	}
	got := selfTimes(spans)
	want := map[uint64]int64{1: 20, 2: 80 - 50 - 10, 3: 30 - 8, 4: 30, 5: 40, 6: 20}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSameSeedSameOps(t *testing.T) {
	mix := func(seed int64) mixSpec {
		return mixSpec{attrs: servingDims, mutateEvery: mutateEvery, gen: newRowGen(servingDims, mutSeed(seed))}
	}
	a := makeOps(7, 5000, mix(7))
	b := makeOps(7, 5000, mix(7))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different operation sequences")
	}
	if reflect.DeepEqual(a, makeOps(8, 5000, mix(8))) {
		t.Fatal("different seeds gave the same operation sequence")
	}
	var mutates, all, wide, queries int
	for i, o := range a {
		switch {
		case o.kind == opMutate:
			mutates++
			if i%mutateEvery != mutateEvery-1 || len(o.appends) != mutateAppends || o.deletes != mutateDeletes {
				t.Fatalf("op %d: misplaced or malformed mutate %+v", i, o)
			}
		case len(o.groupBy) == 0:
			all++
		case len(o.groupBy) > 3:
			wide++
		}
	}
	if mutates != 5000/mutateEvery {
		t.Errorf("%d mutates in 5000 ops, want one in %d", mutates, mutateEvery)
	}
	// The shares data.go states for six attributes: 13.7% ALL, 7.6% four
	// attributes up to the leaf.
	queries = 5000 - mutates
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"ALL", float64(all), 0.137}, {"wide", float64(wide), 0.076}} {
		if share := c.got / float64(queries); share < c.want*0.8 || share > c.want*1.2 {
			t.Errorf("%s share %.3f of %d queries, want about %.3f", c.name, share, queries, c.want)
		}
	}
	rowsA, measA := newRowGen(servingDims, 3).rows(100)
	rowsB, measB := newRowGen(servingDims, 3).rows(100)
	if !reflect.DeepEqual(rowsA, rowsB) || !reflect.DeepEqual(measA, measB) {
		t.Error("the same seed gave different rows")
	}
}

func TestTailFixedPerWorkload(t *testing.T) {
	b := newBench(config{workload: "cube-compute"}, t.TempDir())
	if b.tailPct != 75 {
		t.Fatalf("cube-compute tail at p%g, want p75", b.tailPct)
	}
	for _, n := range []int{20, 40, 1000} {
		b.warnings = nil
		var ls loopStats
		for i := 1; i <= n; i++ {
			ls.queryMS = append(ls.queryMS, float64(i))
		}
		b.setOpMetrics(ls)
		if got, want := b.e2e["op_tail_ms"], float64(n*3/4); got != want {
			t.Errorf("n=%d: op_tail_ms %v, want p75 = %v", n, got, want)
		}
		if flagged := len(b.warnings) > 0; flagged != (n < 40) {
			t.Errorf("n=%d: flagged %v (%v); want a flag only below 40 samples", n, flagged, b.warnings)
		}
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !metricName.MatchString(d.name) {
				t.Errorf("metric name %q does not match %s", d.name, metricName)
			}
			if seen[d.name] {
				t.Errorf("metric %q defined twice", d.name)
			}
			seen[d.name] = true
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("metric %q: better = %q", d.name, d.better)
			}
		}
	}
	// BENCHMARK.json registers exactly these metrics, and only workloads
	// the benchmark has.
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct {
		defs []metricDef
		reg  []struct{ Name, Unit, Better string }
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		if len(pair.defs) != len(pair.reg) {
			t.Errorf("BENCHMARK.json registers %d metrics, the benchmark prints %d", len(pair.reg), len(pair.defs))
			continue
		}
		for i, d := range pair.defs {
			if r := pair.reg[i]; r.Name != d.name || r.Unit != d.unit || r.Better != d.better {
				t.Errorf("BENCHMARK.json metric %d = %+v, benchmark prints %+v", i, r, d)
			}
		}
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
}

func TestFailureAccounting(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%3 == 0 {
			http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"version":1,"group_by":[],"min_support":1,"cells":[]}`))
	}))
	defer ts.Close()
	ops := makeOps(1, 64, mixSpec{attrs: servingDims})
	pool := newClientPool(2)
	defer pool.close()

	d := &loader{base: ts.URL, client: pool.c, ops: ops}
	ls := closedLoop(2, time.Minute, 0, 30, d.do)
	if ls.attempted != 30 || ls.failed != 10 || len(ls.queryMS) != 20 {
		t.Errorf("non-200 answers: attempted %d failed %d samples %d; want 30, 10, 20", ls.attempted, ls.failed, len(ls.queryMS))
	}
	if ls.firstErr == "" {
		t.Error("no first error recorded")
	}

	// A transport error (nothing listening) fails every operation and the
	// loop still runs to its end.
	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL
	dead.Close()
	d = &loader{base: url, client: pool.c, ops: ops}
	ls = closedLoop(2, time.Minute, 0, 12, d.do)
	if ls.attempted != 12 || ls.failed != 12 || len(ls.queryMS) != 0 {
		t.Errorf("transport errors: attempted %d failed %d samples %d; want 12, 12, 0", ls.attempted, ls.failed, len(ls.queryMS))
	}
}

func TestParseArgs(t *testing.T) {
	cfg, err := parseArgs([]string{"--workload", "cold-scan", "--seed", "9", "--seconds", "3", "--trace", "1"}, os.Stderr)
	if err != nil || cfg.workload != "cold-scan" || cfg.seed != 9 || cfg.seconds != 3 || !cfg.trace {
		t.Errorf("parseArgs = %+v, %v", cfg, err)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "cold-scan", "--trace", "2"},
		{"--workload", "cold-scan", "--seconds", "0"},
	} {
		if _, err := parseArgs(bad, io.Discard); err == nil {
			t.Errorf("parseArgs(%v) accepted", bad)
		}
	}
}
