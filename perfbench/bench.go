package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	icebergcube "icebergcube"
	"icebergcube/internal/httpserve"
)

// check is one correctness check's outcome.
type check struct {
	name, detail string
	ok           bool
}

// reportVal is one named metric of the human-readable report.
type reportVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Pct   float64 `json:"pct,omitempty"`
}

// callCost is the measured cost of one Materialize or Compute call.
type callCost struct {
	sec, allocMB float64
	gcs          float64
}

// bench accumulates one invocation's results.
type bench struct {
	cfg     config
	work    string // scratch directory, removed when the run ends
	clients int
	tailPct float64 // percentile op_tail_ms is taken at
	tr      *tracer // nil unless traced

	settings          map[string]any
	report            map[string]any
	overhead          map[string]any
	checks            []check
	warnings          []string
	attempted, failed int
	e2e, layer        map[string]float64
	precompute        []callCost
}

// maxClients caps the closed loop's connections: at most nproc, and no
// more than 2, so that the load does not change with the host's size.
const maxClients = 2

func newBench(cfg config, work string) *bench {
	b := &bench{
		cfg:      cfg,
		work:     work,
		clients:  max(1, min(maxClients, runtime.NumCPU())),
		tailPct:  workloads[cfg.workload].tailPct,
		settings: map[string]any{},
		report:   map[string]any{},
		overhead: map[string]any{},
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
	}
	if cfg.trace {
		b.tr = newTracer()
	}
	return b
}

func (b *bench) check(name string, ok bool, format string, args ...any) {
	b.checks = append(b.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// count folds a closed loop's operations into attempted and failed.
func (b *bench) count(name string, ls loopStats) {
	b.attempted += ls.attempted
	b.failed += ls.failed
	if ls.failed > 0 {
		b.check(name, false, "%d of %d operations failed; first: %s", ls.failed, ls.attempted, ls.firstErr)
	}
}

// measure runs fn and returns its wall time, allocation and GC count.
func measure(fn func() error) (callCost, error) {
	var a, z runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	err := fn()
	sec := time.Since(t0).Seconds()
	runtime.ReadMemStats(&z)
	return callCost{sec: sec, allocMB: float64(z.TotalAlloc-a.TotalAlloc) / (1 << 20), gcs: float64(z.NumGC - a.NumGC)}, err
}

// traced runs fn as a root span when the run is traced.
func (b *bench) traced(name string, fn func() error) error {
	if b.tr == nil {
		return fn()
	}
	return b.tr.time(name, fn)
}

// materialize calls mk (a Materialize or MaterializeDurable call) as a
// "materialize" span and records its cost for the core metrics.
func (b *bench) materialize(mk func() (*icebergcube.Materialized, error)) (*icebergcube.Materialized, error) {
	var m *icebergcube.Materialized
	cost, err := measure(func() error {
		return b.traced("materialize", func() error {
			var err error
			m, err = mk()
			return err
		})
	})
	if err != nil {
		return nil, fmt.Errorf("materialize: %w", err)
	}
	b.precompute = append(b.precompute, cost)
	b.layer["core.cells_written"] = float64(m.NumCells())
	b.layer["core.makespan_virtual_s"] = m.PrecomputeSeconds
	return m, nil
}

// coreFromPrecompute fills the core metrics of a serving workload from
// its Materialize calls.
func (b *bench) coreFromPrecompute() {
	var sec, alloc, gcs []float64
	for _, c := range b.precompute {
		sec, alloc, gcs = append(sec, c.sec), append(alloc, c.allocMB), append(gcs, c.gcs)
	}
	b.layer["core.precompute_s"] = median(sec)
	b.layer["core.cells_per_s"] = ratio(b.layer["core.cells_written"], median(sec))
	b.layer["core.alloc_mb_per_compute"] = median(alloc)
	b.layer["core.gc_per_compute"] = median(gcs)
}

// retainedMB runs build and returns the MiB of heap it left live. Heap
// metrics subtract what the benchmark's own data (its rows and operation
// sequence) holds, so that they describe the program.
func retainedMB(build func()) float64 {
	before := heapMB()
	build()
	return heapMB() - before
}

// heapMB forces a collection and returns the live Go heap in MiB. The
// second collection empties the sync.Pool victim caches the first one
// only demoted.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// opMetrics turns a closed loop's outcome into the op end-to-end metrics:
// the median window's throughput and median latency, and the tail over
// every sample at the workload's fixed percentile.
func (b *bench) opMetrics(ls loopStats) map[string]float64 {
	all := append(append([]float64(nil), ls.queryMS...), ls.mutateMS...)
	return map[string]float64{
		"op_p50_ms":  median(ls.winP50),
		"op_tail_ms": at(all, b.tailPct),
		"ops_per_s":  median(ls.winRate),
	}
}

// setOpMetrics records the untraced loop's op metrics as the run's
// end-to-end figures. The tail percentile is fixed per workload, so runs
// with different sample counts compare the same point; a run that has
// fewer than ten samples beyond it is flagged.
func (b *bench) setOpMetrics(ls loopStats) {
	b.e2e = b.opMetrics(ls)
	n := len(ls.queryMS) + len(ls.mutateMS)
	b.report["op_tail_ms"] = reportVal{Value: b.e2e["op_tail_ms"], Unit: "ms", N: n, Pct: b.tailPct}
	if beyond := n - rankOf(b.tailPct, n); beyond < 10 {
		b.warnings = append(b.warnings, fmt.Sprintf("op_tail_ms is p%g of %d samples, %d beyond it: fewer than 10", b.tailPct, n, beyond))
	}
}

// tracingOverhead records, in a traced run, the op metrics of the
// untraced and the traced slices side by side.
func (b *bench) tracingOverhead(plain, traced loopStats) {
	if b.tr == nil {
		return
	}
	u, t := b.opMetrics(plain), b.opMetrics(traced)
	b.overhead["untraced"] = u
	b.overhead["traced"] = t
	b.overhead["op_p50_traced_over_untraced"] = ratio(t["op_p50_ms"], u["op_p50_ms"])
}

// cellsEqual compares a decoded wire response with the library's answer.
func cellsEqual(got []httpserve.WireCell, want []icebergcube.Cell) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d cells on the wire, %d expected", len(got), len(want))
	}
	for i, c := range want {
		g := got[i]
		same := len(g.Values) == len(c.Values) && g.Count == c.Count && g.Sum == c.Sum &&
			g.Min == c.Min && g.Max == c.Max && g.Avg == c.Avg
		for j := 0; same && j < len(g.Values); j++ {
			same = g.Values[j] == c.Values[j]
		}
		if !same {
			return fmt.Errorf("cell %d: wire %+v, expected %+v", i, g, c)
		}
	}
	return nil
}

// verifySamples decodes every kept body and compares it cell for cell
// with answer(version, groupBy, minSupport). It returns how many bodies
// it checked and how many mismatched, with the first mismatch.
func verifySamples(s *sampler, attrs []string, answer func(version uint64, gb []string, ms int64) ([]icebergcube.Cell, error)) (checked, bad int, first error) {
	for _, k := range s.kept {
		var resp httpserve.QueryResponse
		err := json.Unmarshal(k.body, &resp)
		if err == nil {
			var canon []string
			canon, err = httpserve.CanonicalGroupBy(attrs, k.op.groupBy)
			if err == nil && (fmt.Sprint(canon) != fmt.Sprint(resp.GroupBy) || resp.MinSupport != k.op.minSup) {
				err = fmt.Errorf("response for %v/%d, asked %v/%d", resp.GroupBy, resp.MinSupport, canon, k.op.minSup)
			}
		}
		if err == nil {
			var want []icebergcube.Cell
			want, err = answer(resp.Version, resp.GroupBy, resp.MinSupport)
			if err == nil {
				err = cellsEqual(resp.Cells, want)
			}
		}
		checked++
		if err != nil {
			bad++
			if first == nil {
				first = fmt.Errorf("%v min_support=%d: %w", k.op.groupBy, k.op.minSup, err)
			}
		}
	}
	return checked, bad, first
}

// adapterCheck runs the same queries through ref (httpserve.Warm or
// httpserve.Cold) and through the benchmark's traced adapter, each from a
// reset cache, and requires byte-identical EncodeQuery bodies and the same
// Derivations delta.
func adapterCheck(ref, traced httpserve.Backend, probes []op) error {
	run := func(be httpserve.Backend) ([][]byte, int64, error) {
		be.ResetCache()
		d0 := be.Derivations()
		var bodies [][]byte
		for _, p := range probes {
			body, err := httpserve.EncodeQuery(context.Background(), be, p.groupBy, p.minSup)
			if err != nil {
				return nil, 0, err
			}
			bodies = append(bodies, body)
		}
		return bodies, be.Derivations() - d0, nil
	}
	want, wantD, err := run(ref)
	if err != nil {
		return err
	}
	got, gotD, err := run(traced)
	if err != nil {
		return err
	}
	for i := range want {
		if string(want[i]) != string(got[i]) {
			return fmt.Errorf("probe %d (%v): adapter body differs", i, probes[i].groupBy)
		}
	}
	if wantD != gotD {
		return fmt.Errorf("derivations: %d through httpserve, %d through the adapter", wantD, gotD)
	}
	return nil
}

// probes picks the first n distinct query ops of the sequence.
func probes(ops []op, n int) []op {
	seen := map[string]bool{}
	var out []op
	for _, o := range ops {
		key := fmt.Sprint(o.groupBy, o.minSup)
		if o.kind != opQuery || seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, o)
		if len(out) == n {
			break
		}
	}
	return out
}

func removeAll(path string) {
	if err := os.RemoveAll(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cleanup:", err)
	}
}
