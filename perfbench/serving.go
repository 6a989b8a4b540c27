package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	icebergcube "icebergcube"
	"icebergcube/internal/httpserve"
)

// Serving workloads' shape.
const (
	servingRows = 100_000 // cold-scan
	setupReps   = 5       // set-ups per run; setup_s is their median
	opsLen      = 1 << 13 // generated operations; a run wraps around past them
	warmupTime  = 1500 * time.Millisecond
	warmupOps   = 4000
	sampleEvery = 16       // keep every 16th query body for checking
	sampleBytes = 48 << 20 // at most this many kept body bytes
	probeCount  = 12       // queries the adapter check replays
)

// servingDims are the six weather dimensions the serving workloads
// materialize: the low-cardinality end of the paper's spread, so that the
// whole lattice fits the serving cache's 64 MiB default.
var servingDims = []string{"temperature", "cloudmid", "cloudlow", "windchill", "precip", "season"}

// Derived seeds keep the rows and the operations of one seed independent.
func opsSeed(seed int64) int64 { return seed*1_000_003 + 17 }
func mutSeed(seed int64) int64 { return seed*1_000_003 + 29 }

// counters are the serving layer's cumulative counters, for either tier.
type counters struct {
	queries, hits, coalesced, canceled int64
	leaf, ancestor, coldScans          int64
	evictions, residentBytes           int64
	io                                 icebergcube.SegmentIOStats
}

func warmCounters(m *icebergcube.Materialized) counters {
	c := m.CacheMetrics()
	return counters{queries: c.Queries, hits: c.CacheHits, coalesced: c.Coalesced, canceled: c.Canceled,
		leaf: c.LeafAggregations, ancestor: c.AncestorAggregations, evictions: c.Evictions, residentBytes: c.ResidentBytes}
}

func coldCounters(cc *icebergcube.ColdCube) counters {
	c := cc.Metrics()
	return counters{queries: c.Queries, hits: c.CacheHits, coalesced: c.Coalesced, canceled: c.Canceled,
		ancestor: c.AncestorAggregations, coldScans: c.ColdScans, residentBytes: c.ResidentBytes, io: c.IO}
}

// add accumulates the traffic from `from` to `to`; residentBytes keeps
// the later gauge.
func (a *counters) add(from, to counters) {
	a.queries += to.queries - from.queries
	a.hits += to.hits - from.hits
	a.coalesced += to.coalesced - from.coalesced
	a.canceled += to.canceled - from.canceled
	a.leaf += to.leaf - from.leaf
	a.ancestor += to.ancestor - from.ancestor
	a.coldScans += to.coldScans - from.coldScans
	a.evictions += to.evictions - from.evictions
	a.residentBytes = to.residentBytes
	a.io.BlocksScanned += to.io.BlocksScanned - from.io.BlocksScanned
	a.io.BlocksSkipped += to.io.BlocksSkipped - from.io.BlocksSkipped
	a.io.BytesRead += to.io.BytesRead - from.io.BytesRead
	a.io.ReadSeconds += to.io.ReadSeconds - from.io.ReadSeconds
	a.io.RowsScanned += to.io.RowsScanned - from.io.RowsScanned
}

// unaccounted is the serving identity's residual: every query is a hit, a
// coalesced wait, a derivation (leaf, ancestor or cold scan) or canceled.
func (a counters) unaccounted() int64 {
	return a.queries - (a.hits + a.coalesced + a.leaf + a.ancestor + a.coldScans + a.canceled)
}

// frontEnd is one httpserve front-end on loopback and the loader that
// loads it.
type frontEnd struct {
	hs  *httpserve.Server
	srv *server
	drv *loader
}

// newFrontEnd serves be with a zero-value Config (plus AllowMutations
// when asked). A traced front-end is wrapped in the edge tracer and its
// loader records client spans.
func (b *bench) newFrontEnd(be httpserve.Backend, tr *tracer, mutations bool, ops []op, client *clientPool, samples *sampler, pool *mutPool) (*frontEnd, error) {
	hs := httpserve.New(httpserve.Config{Backend: be, AllowMutations: mutations})
	var h http.Handler = hs
	if tr != nil {
		h = edge{tr: tr, next: hs}
	}
	srv, err := startServer(h)
	if err != nil {
		return nil, err
	}
	return &frontEnd{hs: hs, srv: srv, drv: &loader{base: srv.base, client: client.c, ops: ops, tr: tr, sample: samples, pool: pool}}, nil
}

// httpUnaccounted is the front-end identity's residual: every query sent
// was admitted, shed, or abandoned while queued.
func (f *frontEnd) httpUnaccounted() (sent, shed, unaccounted int64) {
	a := f.hs.Metrics().Admission
	sent = f.drv.sent.Load()
	shed = a.ShedTenantRate + a.ShedQueueFull
	return sent, shed, sent - (a.Admitted + shed + a.AbandonedWait)
}

// servingRun is what a serving workload's timed phase produced.
type servingRun struct {
	plain, traced loopStats
	tracedDelta   counters
	final         counters
	http          [3]int64 // sent, shed, unaccounted across front-ends
	tracedSent    int64
	tracedShed    int64
	tracedBytes   int64
}

// runColdScan serves the rows from FlushSegments + OpenCold with a
// quarter of the lattice's bytes as cache budget.
func runColdScan(b *bench) error {
	names := servingDims
	rows, meas := newRowGen(names, b.cfg.seed).rows(servingRows)
	var cc *icebergcube.ColdCube
	var setups []float64
	var budget, lattice int64
	var segDir string
	for k := 0; k < setupReps; k++ {
		cc = nil     // the previous set-up is garbage from here
		runtime.GC() // each set-up starts from a collected heap
		t0 := time.Now()
		ds, err := icebergcube.FromRows(names, rows, meas)
		if err != nil {
			return fmt.Errorf("FromRows: %w", err)
		}
		m, err := b.materialize(func() (*icebergcube.Materialized, error) { return icebergcube.Materialize(ds, names, 0) })
		if err != nil {
			return err
		}
		if segDir != "" {
			removeAll(segDir)
		}
		segDir = filepath.Join(b.work, fmt.Sprintf("seg-%d", k))
		if err := m.FlushSegments(segDir); err != nil {
			return fmt.Errorf("FlushSegments: %w", err)
		}
		el := time.Since(t0)
		if k == 0 {
			// Sizing pass, outside the set-up time.
			if lattice, err = latticeBytes(m, names); err != nil {
				return err
			}
			budget = lattice / 4
		}
		t1 := time.Now()
		cc, err = icebergcube.OpenCold(segDir, budget)
		if err != nil {
			return fmt.Errorf("OpenCold: %w", err)
		}
		setups = append(setups, (el + time.Since(t1)).Seconds())
		// m is dropped here: a cold server holds only the segment table.
	}
	rows, meas = nil, nil
	setupHeap := heapMB()

	plainBE, snap := httpserve.Cold(cc), func() counters { return coldCounters(cc) }
	b.settings["rows"] = servingRows
	b.settings["dims"] = names
	b.settings["lattice_bytes"] = lattice
	b.settings["cache_budget_bytes"] = budget
	b.settings["clients"] = b.clients
	b.settings["closed_loop"] = true
	b.settings["query_mix"] = queryMix

	var ops []op
	opsMB := retainedMB(func() { ops = makeOps(opsSeed(b.cfg.seed), opsLen, mixSpec{attrs: names}) })
	client := newClientPool(b.clients)
	defer client.close()
	samples := &sampler{every: sampleEvery, budget: sampleBytes}
	plain, err := b.newFrontEnd(plainBE, nil, false, ops, client, samples, nil)
	if err != nil {
		return err
	}
	fronts := []*frontEnd{plain}
	var traced *frontEnd
	if b.tr != nil {
		traced, err = b.newFrontEnd(&tracedBackend{tr: b.tr, cold: cc}, b.tr, false, ops, client, samples, nil)
		if err != nil {
			plain.srv.stop()
			return err
		}
		fronts = append(fronts, traced)
	}
	res := b.loadPhases(plain, traced, snap)
	// The LRU cache's resident bytes swing by the size of the cuboids it
	// admits and evicts. Before the end reading one client asks for every
	// group-by once, widest first, so that the cache ends holding the
	// narrow cuboids and as many wide ones as fit: nearly its budget, in
	// every run and for every seed.
	plain.drv.ops = settleOps(names)
	settle := closedLoop(1, time.Minute, 0, len(plain.drv.ops), plain.drv.do)
	b.count("settle-ops", settle)
	res.final = snap()
	endHeap := heapMB() - samples.heldMB() - opsMB - b.tr.heldMB()
	for _, f := range fronts {
		sent, shed, un := f.httpUnaccounted()
		res.http[0] += sent
		res.http[1] += shed
		res.http[2] += un
		f.srv.stop()
	}
	if traced != nil {
		res.tracedSent, res.tracedShed, _ = traced.httpUnaccounted()
		res.tracedBytes = traced.drv.bytes.Load()
	}

	b.setOpMetrics(res.plain)
	b.e2e["setup_s"] = median(setups)
	b.e2e["setup_heap_mb"] = setupHeap
	b.e2e["end_heap_mb"] = endHeap
	b.reportCommon(setups, setupHeap, endHeap, res)

	// Differential check of the sampled bodies against an in-memory
	// Materialize of the same rows.
	oracle, err := b.coldOracle(names)
	if err != nil {
		return err
	}
	b.verify(samples, names, func(v uint64, gb []string, ms int64) ([]icebergcube.Cell, error) {
		if v != 0 {
			return nil, fmt.Errorf("cold response declares version %d", v)
		}
		return oracle.Answer(gb, ms)
	})

	check := &tracedBackend{tr: newTracer(), cold: cc}
	err = adapterCheck(plainBE, check, probes(ops, probeCount))
	b.check("adapter-identical", err == nil, "traced adapter vs httpserve.Cold over %d probes: %v", probeCount, errOrOK(err))
	b.conservation(res)
	if b.tr != nil {
		b.queryLayers(res.tracedDelta, int64(len(res.traced.queryMS)), res.tracedBytes, res.tracedSent, res.tracedShed)
		b.coreFromPrecompute()
	}
	return nil
}

// settleOps queries every group-by of attrs once, widest first, at the
// mix's highest min_support.
func settleOps(attrs []string) []op {
	gbs := lattice(attrs)
	ms := minSupports[len(minSupports)-1]
	out := make([]op, len(gbs))
	for i, gb := range gbs {
		out[len(gbs)-1-i] = op{kind: opQuery, groupBy: gb, minSup: ms, url: queryPath(gb, ms)}
	}
	return out
}

// loadPhases warms the plain front-end up, then runs the timed closed
// loop: all of it untraced, or in a traced run four alternating
// untraced/traced slices so that both see the same conditions.
func (b *bench) loadPhases(plain, traced *frontEnd, snap func() counters) servingRun {
	var res servingRun
	warm := closedLoop(b.clients, warmupTime, 0, warmupOps, plain.drv.do)
	b.count("warm-up-ops", warm)
	idx := warm.attempted
	plan := []bool{false}
	if traced != nil {
		plan = []bool{false, true, false, true}
	}
	per := time.Duration(b.cfg.seconds) * time.Second / time.Duration(len(plan))
	for _, t := range plan {
		if !t {
			ls := closedLoop(b.clients, per, idx, 0, plain.drv.do)
			idx += ls.attempted
			res.plain.merge(ls)
			continue
		}
		before := snap()
		ls := closedLoop(b.clients, per, idx, 0, traced.drv.do)
		res.tracedDelta.add(before, snap())
		idx += ls.attempted
		res.traced.merge(ls)
	}
	b.count("timed-ops", res.plain)
	b.count("traced-ops", res.traced)
	return res
}

// reportCommon records the named end-to-end metrics of a serving run and,
// in a traced run, the tracing overhead.
func (b *bench) reportCommon(setups []float64, setupHeap, endHeap float64, res servingRun) {
	b.report["setup_s"] = reportVal{Value: median(setups), Unit: "s", N: len(setups), Pct: 50}
	b.report["setup_heap_mb"] = reportVal{Value: setupHeap, Unit: "MiB"}
	b.report["end_heap_mb"] = reportVal{Value: endHeap, Unit: "MiB"}
	q := summarize(res.plain.queryMS)
	b.report["query_p50_ms"] = reportVal{Value: q.P50, Unit: "ms", N: q.N, Pct: 50}
	b.report["query_p99_ms"] = reportVal{Value: q.Tail, Unit: "ms", N: q.N, Pct: q.TailPct}
	b.report["queries_per_s"] = reportVal{Value: ratio(float64(q.N), res.plain.elapsed.Seconds()), Unit: "1/s", N: q.N}
	b.tracingOverhead(res.plain, res.traced)
}

// verify runs the differential check over the kept bodies; each mismatch
// counts as a failed operation.
func (b *bench) verify(samples *sampler, attrs []string, answer func(uint64, []string, int64) ([]icebergcube.Cell, error)) {
	checked, bad, first := verifySamples(samples, attrs, answer)
	b.failed += bad
	b.check("differential", bad == 0 && checked > 0, "%d of %d sampled responses mismatched (%d not kept, over the byte budget): %v",
		bad, checked, samples.skipped, errOrOK(first))
	samples.kept = nil
}

// conservation cross-checks the client's counts against the server's
// counters. A residual is reported, not failed.
func (b *bench) conservation(res servingRun) {
	b.layer["httpserve.unaccounted"] = float64(res.http[2])
	b.layer["serve.unaccounted"] = float64(res.final.unaccounted())
	b.report["httpserve.unaccounted"] = reportVal{Value: float64(res.http[2]), Unit: "count", N: int(res.http[0])}
	b.report["serve.unaccounted"] = reportVal{Value: float64(res.final.unaccounted()), Unit: "count", N: int(res.final.queries)}
	b.check("conservation", true, "http: %d queries sent = admitted + %d shed + abandoned %+d; serve: %d queries = hits+coalesced+derives+canceled %+d",
		res.http[0], res.http[1], res.http[2], res.final.queries, res.final.unaccounted())
}

// coldOracle regenerates the run's rows and materializes them in memory:
// the reference cold answers must equal.
func (b *bench) coldOracle(names []string) (*icebergcube.Materialized, error) {
	rows, meas := newRowGen(names, b.cfg.seed).rows(servingRows)
	ds, err := icebergcube.FromRows(names, rows, meas)
	if err != nil {
		return nil, err
	}
	return icebergcube.Materialize(ds, names, 0)
}

// latticeBytes answers every group-by of m with an unbounded cache and
// returns the bytes the whole lattice (leaf excluded) occupies.
func latticeBytes(m *icebergcube.Materialized, attrs []string) (int64, error) {
	m.SetCacheBudget(1 << 40)
	defer m.SetCacheBudget(0)
	for mask := 1; mask < 1<<len(attrs); mask++ {
		var gb []string
		for d := range attrs {
			if mask&(1<<d) != 0 {
				gb = append(gb, attrs[d])
			}
		}
		if _, err := m.Answer(gb, 1); err != nil {
			return 0, err
		}
	}
	return m.CacheMetrics().ResidentBytes, nil
}

func errOrOK(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}
