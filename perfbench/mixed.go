package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	icebergcube "icebergcube"
	"icebergcube/internal/httpserve"
	"icebergcube/internal/wal"
)

// mixed-durable's shape. The server runs as shipped, without
// RetainSnapshots, so every committed version stays resident: an epoch
// (fresh MaterializeDurable, epochOps operations, Close,
// RecoverMaterialized) bounds that growth, and a run repeats epochs until
// its time is up.
const (
	mixedRows      = 20_000
	mutateEvery    = 8   // one operation in eight commits a mutate
	epochWarmupOps = 64  // untimed operations opening each epoch
	epochOps       = 512 // timed operations per epoch: 64 commits
	minEpochs      = 2   // a traced run needs an untraced and a traced epoch
	walProbeOps    = 64  // AppendSync calls of the WAL side pass
)

// epoch is what one mixed-durable epoch measured.
type epoch struct {
	traced             bool
	setup, recover     float64
	heapSetup, heapEnd float64
	commits            int
	walBytes           int64
	load               loopStats
}

func runMixedDurable(b *bench) error {
	names := servingDims
	var rows [][]string
	var meas []float64
	var ops []op
	held := retainedMB(func() {
		rows, meas = newRowGen(names, b.cfg.seed).rows(mixedRows)
		ops = makeOps(opsSeed(b.cfg.seed), opsLen, mixSpec{attrs: names, mutateEvery: mutateEvery, gen: newRowGen(names, mutSeed(b.cfg.seed))})
	})
	client := newClientPool(b.clients)
	defer client.close()
	b.settings["rows"] = mixedRows
	b.settings["dims"] = names
	b.settings["cache_budget_bytes"] = "64 MiB default"
	b.settings["clients"] = b.clients
	b.settings["closed_loop"] = true
	b.settings["epoch_ops"] = epochOps
	b.settings["query_mix"] = queryMix
	b.settings["mutate_every"] = mutateEvery
	b.settings["mutate_appends"] = mutateAppends
	b.settings["mutate_deletes"] = mutateDeletes

	var epochs []epoch
	var final counters
	var http [3]int64
	var tracedDelta counters
	var tracedSent, tracedShed, tracedBytes int64
	idx := 0
	deadline := time.Now().Add(time.Duration(b.cfg.seconds) * time.Second)
	for n := 0; n < minEpochs || time.Now().Before(deadline); n++ {
		traced := b.tr != nil && n%2 == 1
		ep, err := b.mixedEpoch(n, traced, held, names, rows, meas, ops, &idx, client, func(f *frontEnd, from, to counters) {
			sent, shed, un := f.httpUnaccounted()
			http[0] += sent
			http[1] += shed
			http[2] += un
			final.add(from, to)
			if traced {
				tracedDelta.add(from, to)
				tracedSent += sent
				tracedShed += shed
				tracedBytes += f.drv.bytes.Load()
			}
		})
		if err != nil {
			return err
		}
		epochs = append(epochs, ep)
	}

	var plain, tracedLS loopStats
	var setups, heapSetup, heapEnd, recovers []float64
	commits := 0
	for _, ep := range epochs {
		if ep.traced {
			tracedLS.merge(ep.load)
			continue
		}
		plain.merge(ep.load)
		setups = append(setups, ep.setup)
		heapSetup = append(heapSetup, ep.heapSetup)
		heapEnd = append(heapEnd, ep.heapEnd)
		recovers = append(recovers, ep.recover)
		commits += ep.commits
	}
	b.settings["epochs"] = len(epochs)
	b.count("timed-ops", plain)
	b.count("traced-ops", tracedLS)
	b.setOpMetrics(plain)
	b.e2e["setup_s"] = median(setups)
	b.e2e["setup_heap_mb"] = median(heapSetup)
	b.e2e["end_heap_mb"] = median(heapEnd)
	b.reportCommon(setups, median(heapSetup), median(heapEnd), servingRun{plain: plain, traced: tracedLS})
	c := summarize(plain.mutateMS)
	b.report["commit_p50_ms"] = reportVal{Value: c.P50, Unit: "ms", N: c.N, Pct: 50}
	b.report["commit_p90_ms"] = reportVal{Value: at(plain.mutateMS, 90), Unit: "ms", N: c.N, Pct: 90}
	b.report["recover_s"] = reportVal{Value: median(recovers), Unit: "s", N: len(recovers), Pct: 50}
	b.report["commits_per_epoch"] = reportVal{Value: float64(commits) / float64(max(1, len(setups))), Unit: "count", N: len(setups)}
	b.conservation(servingRun{http: http, final: final})

	if b.tr != nil {
		b.queryLayers(tracedDelta, int64(len(tracedLS.queryMS)), tracedBytes, tracedSent, tracedShed)
		b.ingestLayers(epochs)
		if err := b.walProbe(len(names)); err != nil {
			return err
		}
		b.coreFromPrecompute()
	}
	return nil
}

// mixedEpoch runs one epoch: set-up, warm-up, the timed operations, the
// differential check against time travel, Close and recovery. held is the
// MiB the benchmark's rows and operations occupy, which the heap readings
// leave out, as they do the kept bodies and the spans.
func (b *bench) mixedEpoch(n int, traced bool, held float64, names []string, rows [][]string, meas []float64, ops []op, idx *int,
	client *clientPool, account func(f *frontEnd, from, to counters)) (epoch, error) {
	ep := epoch{traced: traced}
	dir := filepath.Join(b.work, fmt.Sprintf("wal-%d", n))
	defer removeAll(dir)
	runtime.GC() // each set-up starts from a collected heap
	t0 := time.Now()
	ds, err := icebergcube.FromRows(names, rows, meas)
	if err != nil {
		return ep, fmt.Errorf("FromRows: %w", err)
	}
	m, err := b.materialize(func() (*icebergcube.Materialized, error) {
		return icebergcube.MaterializeDurable(ds, names, 0, dir)
	})
	if err != nil {
		return ep, err
	}
	ep.setup = time.Since(t0).Seconds()
	ep.heapSetup = heapMB() - held - b.tr.heldMB()
	wal0 := dirBytes(dir)

	var be httpserve.Backend = httpserve.Warm(m)
	var tr *tracer
	if traced {
		tr = b.tr
		be = &tracedBackend{tr: tr, warm: m}
	}
	samples := &sampler{every: sampleEvery, budget: sampleBytes}
	pool := &mutPool{}
	f, err := b.newFrontEnd(be, tr, true, ops, client, samples, pool)
	if err != nil {
		m.Close()
		return ep, err
	}
	before := warmCounters(m)
	warm := closedLoop(b.clients, time.Minute, *idx, epochWarmupOps, f.drv.do)
	*idx += warm.attempted
	b.count("warm-up-ops", warm)
	ep.load = closedLoop(b.clients, time.Minute, *idx, epochOps, f.drv.do)
	*idx += ep.load.attempted
	ep.commits = len(ep.load.mutateMS)
	ep.heapEnd = heapMB() - held - b.tr.heldMB() - samples.heldMB()
	ep.walBytes = dirBytes(dir) - wal0
	account(f, before, warmCounters(m))
	f.srv.stop()

	b.verify(samples, names, func(v uint64, gb []string, ms int64) ([]icebergcube.Cell, error) {
		cells, _, err := m.AnswerStatsAt(v, gb, ms)
		return cells, err
	})
	if n == 0 {
		err := adapterCheck(httpserve.Warm(m), &tracedBackend{tr: newTracer(), warm: m}, probes(ops, probeCount))
		b.check("adapter-identical", err == nil, "traced adapter vs httpserve.Warm over %d probes: %v", probeCount, errOrOK(err))
	}

	// Recovery: sampled answers at the last version must survive Close +
	// RecoverMaterialized unchanged.
	last := m.Version()
	pr := probes(ops, probeCount)
	want := make([][]icebergcube.Cell, len(pr))
	for i, p := range pr {
		if want[i], _, err = m.AnswerStatsAt(last, p.groupBy, p.minSup); err != nil {
			return ep, err
		}
	}
	if err := m.Close(); err != nil {
		return ep, fmt.Errorf("Close: %w", err)
	}
	m = nil
	var rm *icebergcube.Materialized
	t1 := time.Now()
	err = b.traced("recover", func() error {
		var err error
		rm, err = icebergcube.RecoverMaterialized(ds, names, dir)
		return err
	})
	ep.recover = time.Since(t1).Seconds()
	if err != nil {
		return ep, fmt.Errorf("RecoverMaterialized: %w", err)
	}
	defer rm.Close()
	bad := 0
	var first error
	if rm.Version() != last {
		bad, first = len(pr), fmt.Errorf("recovered version %d, closed at %d", rm.Version(), last)
	}
	for i := 0; bad == 0 && i < len(pr); i++ {
		got, _, err := rm.AnswerStatsAt(last, pr[i].groupBy, pr[i].minSup)
		if err == nil {
			err = sameCells(got, want[i])
		}
		if err != nil {
			bad++
			if first == nil {
				first = fmt.Errorf("%v min_support=%d: %w", pr[i].groupBy, pr[i].minSup, err)
			}
		}
	}
	if bad > 0 || n == 0 {
		b.check(fmt.Sprintf("recovery-epoch-%d", n), bad == 0, "%d of %d answers at version %d changed across Close + RecoverMaterialized: %v", bad, len(pr), last, errOrOK(first))
	}
	return ep, nil
}

// sameCells compares two answers cell for cell.
func sameCells(got, want []icebergcube.Cell) error {
	wire := make([]httpserve.WireCell, len(got))
	for i, c := range got {
		wire[i] = httpserve.WireCell{Values: c.Values, Count: c.Count, Sum: c.Sum, Min: c.Min, Max: c.Max, Avg: c.Avg}
	}
	return cellsEqual(wire, want)
}

// ingestLayers fills the ingest and wal metrics from the traced epochs.
func (b *bench) ingestLayers(epochs []epoch) {
	var appendUS, commitMS []float64
	for _, s := range b.tr.byName("backend.append") {
		appendUS = append(appendUS, float64(s.dur())/1e3)
	}
	for _, s := range b.tr.byName("backend.commit") {
		commitMS = append(commitMS, float64(s.dur())/1e6)
	}
	var folded, dirty, recomputed float64
	b.tr.mu.Lock()
	for _, s := range b.tr.commits {
		folded += float64(s.FoldedCuboids)
		dirty += float64(s.DirtyCuboids)
		recomputed += float64(s.RecomputedCells)
	}
	nCommits := float64(len(b.tr.commits))
	b.tr.mu.Unlock()
	var retained, walBytes, recoverPer []float64
	for _, ep := range epochs {
		if !ep.traced || ep.commits == 0 {
			continue
		}
		c := float64(ep.commits)
		retained = append(retained, (ep.heapEnd-ep.heapSetup)/c)
		walBytes = append(walBytes, float64(ep.walBytes)/c)
		recoverPer = append(recoverPer, ep.recover/c)
	}
	L := b.layer
	L["ingest.append_p50_us"] = median(appendUS)
	L["ingest.commit_p50_ms"] = median(commitMS)
	L["ingest.folded_per_commit"] = ratio(folded, nCommits)
	L["ingest.dirty_per_commit"] = ratio(dirty, nCommits)
	L["ingest.recomputed_cells_per_commit"] = ratio(recomputed, nCommits)
	L["ingest.retained_mb_per_commit"] = median(retained)
	L["wal.bytes_per_commit"] = median(walBytes)
	L["wal.recover_s_per_commit"] = median(recoverPer)
}

// walProbe times wal.Log.AppendSync of commit-sized append records on the
// filesystem the epochs' logs live on.
func (b *bench) walProbe(width int) error {
	dir := filepath.Join(b.work, "wal-probe")
	defer removeAll(dir)
	lg, err := wal.Create(wal.DirFS{}, dir, wal.Options{})
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	rec := &wal.Record{Type: wal.TypeAppend, Keys: make([]uint32, mutateAppends*width), Meas: make([]float64, mutateAppends)}
	var us []float64
	for i := 0; i < walProbeOps; i++ {
		t0 := time.Now()
		if err := lg.AppendSync(rec); err != nil {
			lg.Close()
			return fmt.Errorf("wal probe: %w", err)
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	b.layer["wal.sync_p50_us"] = median(us)
	return lg.Close()
}
