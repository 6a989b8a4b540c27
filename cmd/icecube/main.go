// Command icecube computes an iceberg cube over a CSV data set with any of
// the paper's parallel algorithms and prints qualifying cells.
//
// Usage:
//
//	icecube -input sales.csv -minsup 2 -algo PT -workers 8
//	icecube -input sales.csv -dims Model,Year -cuboid Model
//	icecube -synthetic 50000 -minsup 4 -algo ASL -stats
//	icecube -input sales.csv -dims Model,Year -waldir /var/lib/icecube/wal -cuboid Model
//
// With -waldir the materialized serving engine runs instead of a one-shot
// computation: the leaf cuboid is precomputed and written to a write-ahead
// log in that directory (or, if the directory already holds a log,
// recovered from it — skipping the precomputation and restoring every
// committed snapshot), and -cuboid queries are answered from the serving
// cache.
//
// With -segdir the columnar segment tier is used instead:
//
//	icecube -input sales.csv -segdir /var/lib/icecube/cube            # flush
//	icecube -segdir /var/lib/icecube/cube -cuboid Model -stats       # serve cold
//	icecube -segdir /var/lib/icecube/cube -memlimit 1048576 -algo BPP # out-of-core
//
// A fresh directory plus input data flushes the cube as dictionary-encoded
// segments. An existing table serves queries cold (cache → resident
// ancestor → columnar scan of just the queried dimensions), or, with
// -memlimit, recomputes the cube out-of-core under that resident-byte
// budget, spilling heavy partitions back to disk.
//
// The CSV needs a header; every column but the last is a dimension, the
// last column is the numeric measure. With -synthetic N the paper's
// weather-like workload is generated instead (20 dimensions, N tuples).
//
// With -http the process stays up as the network serving front-end over
// whichever tier the other flags select (warm in-memory, durable with
// -waldir, cold with an existing -segdir), with admission control and
// identical-query batching from internal/httpserve:
//
//	icecube -input sales.csv -http :8080
//	icecube -input sales.csv -waldir /var/lib/icecube/wal -http :8080 -batch-window 2ms
//	icecube -segdir /var/lib/icecube/cube -http :8080
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	icebergcube "icebergcube"
	"icebergcube/internal/httpserve"
)

// options mirrors the flag set so validation is a pure, testable
// function of the parsed values.
type options struct {
	input, dims, algo, cuboid     string
	waldir, policy, segdir, httpA string
	synthetic, workers, cores     int
	limit                         int
	seed, minsup, memlimit        int64
	parallel, stats               bool
	batchWindow                   time.Duration
}

// validateFlags rejects flag combinations that would otherwise be
// silently ignored or pick a surprising mode, before any data is loaded
// or any directory touched. The returned error is the usage message.
func validateFlags(o options) error {
	if o.memlimit > 0 && o.segdir == "" {
		return fmt.Errorf("-memlimit only applies to the out-of-core computation over a segment table: add -segdir DIR")
	}
	if o.policy != "" && o.policy != string(icebergcube.CacheLRU) && o.waldir == "" && o.httpA == "" {
		return fmt.Errorf("-policy %s needs a serving mode: add -waldir DIR or -http ADDR", o.policy)
	}
	if o.waldir != "" && o.segdir != "" {
		return fmt.Errorf("-waldir and -segdir select different storage tiers: pass one")
	}
	if o.batchWindow != 0 && o.httpA == "" {
		return fmt.Errorf("-batch-window only applies to the HTTP front-end: add -http ADDR")
	}
	if o.batchWindow < 0 {
		return fmt.Errorf("-batch-window must be >= 0, got %v", o.batchWindow)
	}
	if o.httpA != "" && o.memlimit > 0 {
		return fmt.Errorf("-http serves queries; the out-of-core computation (-memlimit) is a batch run — drop one")
	}
	if o.algo != "" && (o.waldir != "" || o.httpA != "") {
		return fmt.Errorf("-algo selects a one-shot computation algorithm; the serving modes (-waldir, -http) always serve from the materialized leaf")
	}
	if o.parallel && (o.waldir != "" || o.segdir != "" || o.httpA != "") {
		return fmt.Errorf("-parallel only applies to the one-shot cluster computation")
	}
	if o.input != "" && o.synthetic > 0 {
		return fmt.Errorf("pass -input FILE or -synthetic N, not both")
	}
	if o.minsup < 1 {
		return fmt.Errorf("-minsup must be >= 1, got %d", o.minsup)
	}
	return nil
}

func main() {
	var (
		input       = flag.String("input", "", "CSV file (header; last column = measure)")
		synthetic   = flag.Int("synthetic", 0, "generate the weather-like workload with this many tuples instead of reading CSV")
		seed        = flag.Int64("seed", 2001, "synthetic-data seed")
		dims        = flag.String("dims", "", "comma-separated cube dimensions (default: all)")
		minsup      = flag.Int64("minsup", 1, "iceberg threshold: HAVING COUNT(*) >= minsup")
		algo        = flag.String("algo", "", "algorithm: RP, BPP, ASL, PT, AHT (default: recipe recommendation)")
		workers     = flag.Int("workers", 8, "number of simulated cluster nodes")
		parallel    = flag.Bool("parallel", false, "run workers on real goroutines")
		cores       = flag.Int("cores", 1, "intra-worker execution-pool width (wall clock only; results identical)")
		cuboid      = flag.String("cuboid", "", "print this group-by's cells (comma-separated attributes; empty = summary only)")
		limit       = flag.Int("limit", 20, "max cells to print")
		stats       = flag.Bool("stats", false, "print per-worker simulated loads; with -waldir, dump cache metrics and the per-cuboid stats table after the serve run")
		waldir      = flag.String("waldir", "", "serve durably: write-ahead log directory (created, or recovered from if it already holds a log)")
		policy      = flag.String("policy", "lru", "serving-cache admission policy with -waldir or -http: lru or adaptive")
		segdir      = flag.String("segdir", "", "columnar segment directory: flush the cube there (with -input/-synthetic), or serve/compute from an existing table")
		memlimit    = flag.Int64("memlimit", 0, "with -segdir: compute the cube out-of-core under this resident-byte budget instead of serving")
		httpAddr    = flag.String("http", "", "serve the HTTP front-end on this address (e.g. :8080) instead of a one-shot run")
		batchWindow = flag.Duration("batch-window", 0, "with -http: identical-query batching window (0 = off)")
	)
	flag.Parse()

	opts := options{
		input: *input, dims: *dims, algo: *algo, cuboid: *cuboid,
		waldir: *waldir, policy: *policy, segdir: *segdir, httpA: *httpAddr,
		synthetic: *synthetic, workers: *workers, cores: *cores, limit: *limit,
		seed: *seed, minsup: *minsup, memlimit: *memlimit,
		parallel: *parallel, stats: *stats, batchWindow: *batchWindow,
	}
	if err := validateFlags(opts); err != nil {
		fmt.Fprintln(os.Stderr, "icecube:", err)
		fmt.Fprintln(os.Stderr, "run icecube -h for the full flag reference")
		os.Exit(2)
	}

	if *httpAddr != "" {
		serveHTTP(opts)
		return
	}

	if *segdir != "" && hasManifest(*segdir) {
		// An existing table needs no input data: either compute the cube
		// out-of-core under the byte budget, or serve queries cold.
		if *memlimit > 0 {
			computeOutOfCore(*segdir, *algo, *minsup, *memlimit, *cuboid, *limit, *stats)
		} else {
			serveCold(*segdir, *minsup, *cuboid, *limit, *stats)
		}
		return
	}

	ds, err := load(*input, *synthetic, *seed)
	if err != nil {
		fatal(err)
	}

	var dimList []string
	if *dims != "" {
		dimList = strings.Split(*dims, ",")
	} else if *synthetic > 0 {
		// The full 20-dimension cube is enormous; default to the paper's
		// 9-dimension baseline subset.
		dimList = ds.PickDimsByCardinalityProduct(9, 13)
	}

	if *segdir != "" {
		flushSegments(ds, dimList, *segdir, *workers, *minsup, *cuboid, *limit)
		return
	}

	if *waldir != "" {
		serveDurable(ds, dimList, *waldir, *workers, *minsup, *cuboid, *limit, *policy, *stats)
		return
	}

	algorithm := icebergcube.Algorithm(*algo)
	if algorithm == "" {
		profile, err := icebergcube.ProfileOf(ds, dimList)
		if err != nil {
			fatal(err)
		}
		rec := icebergcube.Recommend(profile)
		algorithm = rec.Algorithm
		fmt.Printf("recipe: %s — %s\n", rec.Algorithm, rec.Reason)
	}

	res, err := icebergcube.Compute(ds, icebergcube.Query{
		Dims:       dimList,
		MinSupport: *minsup,
		Algorithm:  algorithm,
		Workers:    *workers,
		Parallel:   *parallel,
		Cores:      *cores,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s over %d tuples: %d cells in %d cuboids, %.1f MB output, simulated makespan %.2fs on %d workers\n",
		res.Algorithm, ds.Len(), res.NumCells(), res.NumCuboids(),
		float64(res.BytesWritten)/1e6, res.Makespan, *workers)
	if *stats {
		for i, l := range res.WorkerLoads {
			fmt.Printf("  worker %d: %.3fs\n", i, l)
		}
	}
	if *cuboid != "" {
		attrs := strings.Split(*cuboid, ",")
		cells, err := res.Cuboid(attrs...)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("cuboid (%s): %d cells\n", *cuboid, len(cells))
		for i, c := range cells {
			if i >= *limit {
				fmt.Printf("  ... %d more\n", len(cells)-*limit)
				break
			}
			fmt.Printf("  %s\n", c)
		}
	}
}

// serveHTTP runs the network front-end over whichever tier the flags
// select: an existing -segdir serves cold (read-only), -waldir serves
// the durable warm engine with mutations enabled, and plain input data
// serves an in-memory materialization (read-only — nothing would
// survive a restart).
func serveHTTP(o options) {
	var backend httpserve.Backend
	allowMut := false
	switch {
	case o.segdir != "" && hasManifest(o.segdir):
		cold, err := icebergcube.OpenCold(o.segdir, 0)
		if err != nil {
			fatal(err)
		}
		backend = httpserve.Cold(cold)
		fmt.Printf("serving cold table %s: %d rows, dims %s\n",
			o.segdir, cold.Rows(), strings.Join(cold.Attrs(), ","))
	default:
		ds, err := load(o.input, o.synthetic, o.seed)
		if err != nil {
			fatal(err)
		}
		var dimList []string
		if o.dims != "" {
			dimList = strings.Split(o.dims, ",")
		} else if o.synthetic > 0 {
			dimList = ds.PickDimsByCardinalityProduct(9, 13)
		}
		var m *icebergcube.Materialized
		if o.waldir != "" {
			var recovered bool
			m, recovered, err = icebergcube.OpenDurable(ds, dimList, o.workers, o.waldir)
			if err != nil {
				fatal(err)
			}
			defer m.Close()
			allowMut = true
			verb := "materialized"
			if recovered {
				verb = "recovered"
			}
			fmt.Printf("%s durable cube in %s (v%d, %d leaf cells), mutations enabled\n",
				verb, o.waldir, m.Version(), m.NumCells())
		} else {
			m, err = icebergcube.Materialize(ds, dimList, o.workers)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("materialized in-memory cube (v%d, %d leaf cells), read-only\n",
				m.Version(), m.NumCells())
		}
		if o.policy != "" && o.policy != string(icebergcube.CacheLRU) {
			if err := m.SetCachePolicy(icebergcube.CachePolicyConfig{Policy: icebergcube.CachePolicy(o.policy)}); err != nil {
				fatal(err)
			}
		}
		backend = httpserve.Warm(m)
	}

	srv := httpserve.New(httpserve.Config{
		Backend:        backend,
		BatchWindow:    o.batchWindow,
		AllowMutations: allowMut,
	})
	fmt.Printf("listening on %s (batch window %v; GET /v1/query, /v1/dims, /v1/metrics, /healthz)\n",
		o.httpA, o.batchWindow)
	if err := http.ListenAndServe(o.httpA, srv); err != nil {
		fatal(err)
	}
}

// serveDurable runs the durable serving path: materialize into (or
// recover from) the write-ahead log in waldir, report the committed
// history, and answer the requested cuboid from the serving cache.
func serveDurable(ds *icebergcube.Dataset, dimList []string, waldir string, workers int, minsup int64, cuboid string, limit int, policy string, stats bool) {
	m, recovered, err := icebergcube.OpenDurable(ds, dimList, workers, waldir)
	if err != nil {
		fatal(err)
	}
	defer m.Close()
	if policy != "" && policy != string(icebergcube.CacheLRU) {
		if err := m.SetCachePolicy(icebergcube.CachePolicyConfig{Policy: icebergcube.CachePolicy(policy)}); err != nil {
			fatal(err)
		}
	}
	if recovered {
		snaps := m.Snapshots()
		fmt.Printf("recovered %d committed snapshot(s) from %s (head v%d, %d rows, %d leaf cells)\n",
			len(snaps), waldir, m.Version(), snaps[len(snaps)-1].Rows, m.NumCells())
	} else {
		fmt.Printf("materialized %d leaf cells into %s (v%d, simulated precompute %.2fs on %d workers)\n",
			m.NumCells(), waldir, m.Version(), m.PrecomputeSeconds, workers)
	}
	if cuboid != "" {
		attrs := strings.Split(cuboid, ",")
		cells, err := m.Answer(attrs, minsup)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("cuboid (%s) at v%d: %d cells\n", cuboid, m.Version(), len(cells))
		for i, c := range cells {
			if i >= limit {
				fmt.Printf("  ... %d more\n", len(cells)-limit)
				break
			}
			fmt.Printf("  %s\n", c)
		}
	}
	if stats {
		dumpServeStats(m)
	}
}

// dumpServeStats prints the cache counters and the per-cuboid stats
// table: how each observed group-by shape was served and where it stands
// with the admission policy.
func dumpServeStats(m *icebergcube.Materialized) {
	m.WaitBackground()
	cm := m.CacheMetrics()
	fmt.Printf("cache [%s]: %d queries, %d hits, %d coalesced, %d leaf aggs, %d ancestor aggs\n",
		cm.Policy, cm.Queries, cm.CacheHits, cm.Coalesced, cm.LeafAggregations, cm.AncestorAggregations)
	fmt.Printf("cache: %d/%d budget bytes in %d cuboids, %d evictions, %d replans, %d background fills (%d admitted)\n",
		cm.ResidentBytes, cm.BudgetBytes, cm.ResidentCuboids, cm.Evictions, cm.Replans, cm.BackgroundFills, cm.BackgroundAdmitted)
	for _, cs := range m.CuboidStats() {
		attrs := strings.Join(cs.Attrs, ",")
		if attrs == "" {
			attrs = "ALL"
		}
		flags := ""
		if cs.Resident {
			flags += " resident"
		}
		if cs.Planned {
			flags += " planned"
		}
		fmt.Printf("  cuboid (%s): %d hits, %d misses, %d bg fills, %d cells, %d bytes, derive scans %d%s\n",
			attrs, cs.Hits, cs.Misses, cs.BackgroundFills, cs.Cells, cs.Bytes, cs.DeriveCells, flags)
	}
}

// hasManifest reports whether dir already holds a segment table.
func hasManifest(dir string) bool {
	_, err := os.Stat(dir + string(os.PathSeparator) + "MANIFEST")
	return err == nil
}

// flushSegments materializes the cube and flushes it to a fresh segment
// directory, answering an optional query from the warm leaf on the way.
func flushSegments(ds *icebergcube.Dataset, dimList []string, dir string, workers int, minsup int64, cuboid string, limit int) {
	m, err := icebergcube.Materialize(ds, dimList, workers)
	if err != nil {
		fatal(err)
	}
	if err := m.FlushSegments(dir); err != nil {
		fatal(err)
	}
	fmt.Printf("flushed %d rows (%d leaf cells) to %s\n", ds.Len(), m.NumCells(), dir)
	if cuboid != "" {
		attrs := strings.Split(cuboid, ",")
		cells, err := m.Answer(attrs, minsup)
		if err != nil {
			fatal(err)
		}
		printCells(cuboid, cells, limit)
	}
}

// serveCold answers queries over an existing segment table without
// loading the leaf: cache → resident ancestor → cold columnar scan.
func serveCold(dir string, minsup int64, cuboid string, limit int, stats bool) {
	cold, err := icebergcube.OpenCold(dir, 0)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("cold table %s: %d rows, dims %s\n", dir, cold.Rows(), strings.Join(cold.Attrs(), ","))
	if cuboid != "" {
		attrs := strings.Split(cuboid, ",")
		cells, st, err := cold.AnswerStats(attrs, minsup)
		if err != nil {
			fatal(err)
		}
		printCells(cuboid, cells, limit)
		switch {
		case st.ColdScan:
			fmt.Printf("served by cold scan: %d rows streamed\n", st.RowsScanned)
		case st.CacheHit:
			fmt.Println("served from cache")
		default:
			fmt.Printf("served from resident ancestor (%s): %d cells aggregated\n",
				strings.Join(st.ServedFrom, ","), st.CellsScanned)
		}
	}
	if stats {
		cm := cold.Metrics()
		fmt.Printf("cold cache: %d queries, %d hits, %d ancestor aggs, %d cold scans, %d/%d budget bytes in %d cuboids, %d evictions\n",
			cm.Queries, cm.CacheHits, cm.AncestorAggregations, cm.ColdScans,
			cm.ResidentBytes, cm.BudgetBytes, cm.ResidentCuboids, cm.Evictions)
		fmt.Printf("cold io: %d blocks read, %d skipped by zone maps, %d read calls, %.1f KB, %.3fs\n",
			cm.IO.BlocksScanned, cm.IO.BlocksSkipped, cm.IO.ReadCalls, float64(cm.IO.BytesRead)/1024, cm.IO.ReadSeconds)
	}
}

// computeOutOfCore runs the budgeted cube computation over an existing
// segment table.
func computeOutOfCore(dir, algo string, minsup, memlimit int64, cuboid string, limit int, stats bool) {
	res, st, err := icebergcube.ComputeOutOfCore(dir, icebergcube.Query{
		Algorithm:  icebergcube.Algorithm(algo),
		MinSupport: minsup,
	}, memlimit)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s out-of-core: %d cells in %d cuboids under a %d-byte budget (peak %d)\n",
		res.Algorithm, res.NumCells(), res.NumCuboids(), memlimit, st.PeakBytes)
	if stats {
		fmt.Printf("spill: %d partitions loaded, %d heavy values spilled (depth %d, %.1f KB), %d values pruned\n",
			st.LoadedPartitions, st.SpilledValues, st.MaxSpillDepth, float64(st.BytesSpilled)/1024, st.PrunedValues)
		fmt.Printf("io: %d blocks read, %d skipped by zone maps, %d read calls, %.1f KB, %.3fs\n",
			st.IO.BlocksScanned, st.IO.BlocksSkipped, st.IO.ReadCalls, float64(st.IO.BytesRead)/1024, st.IO.ReadSeconds)
	}
	if cuboid != "" {
		attrs := strings.Split(cuboid, ",")
		cells, err := res.Cuboid(attrs...)
		if err != nil {
			fatal(err)
		}
		printCells(cuboid, cells, limit)
	}
}

// printCells prints up to limit cells of one cuboid.
func printCells(cuboid string, cells []icebergcube.Cell, limit int) {
	fmt.Printf("cuboid (%s): %d cells\n", cuboid, len(cells))
	for i, c := range cells {
		if i >= limit {
			fmt.Printf("  ... %d more\n", len(cells)-limit)
			break
		}
		fmt.Printf("  %s\n", c)
	}
}

func load(input string, synthetic int, seed int64) (*icebergcube.Dataset, error) {
	if synthetic > 0 {
		return icebergcube.SyntheticWeather(synthetic, seed), nil
	}
	if input == "" {
		return nil, fmt.Errorf("need -input FILE or -synthetic N")
	}
	f, err := os.Open(input)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return icebergcube.LoadCSV(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "icecube:", err)
	os.Exit(1)
}
