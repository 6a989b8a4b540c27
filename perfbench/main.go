// Command perfbench is the repository's benchmark. It drives the serving
// stack as shipped (httpserve.New with a zero-value Config over
// Materialize, MaterializeDurable and OpenCold) with a closed loop of at
// most two HTTP clients on loopback, and the paper's iceberg-cube
// computation through Compute. It generates weather-like rows from -seed
// and hands them to the program only through FromRows. It checks answers
// on every run and prints, as its last line, one JSON object with the
// end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
//
//	bash perfbench/run.sh --workload cold-scan --seed 1 --seconds 30 --trace 0
//
// Workloads, and why each was chosen:
//
//   - cold-scan: Materialize, FlushSegments and OpenCold with a cuboid
//     cache of a quarter of the lattice's bytes, so the data is larger than
//     the cache. Misses aggregate from a resident ancestor or stream the
//     segment store: serve and segment work heavily, httpserve and answer
//     serve the hits, ingest and wal stay idle.
//   - mixed-durable: MaterializeDurable with its log on the local
//     filesystem. One operation in eight is a POST /v1/mutate that appends
//     one row, deletes one row appended earlier (a MIN/MAX retraction) and
//     commits. Reads compete with the ingest fold, the wal and serve's
//     re-derivation after commits. Each epoch ends with Close and
//     RecoverMaterialized.
//   - cube-compute: Compute of the iceberg cube over 9 weather dimensions
//     (cardinality product ≈10^13), minsup 2, PT on 8 simulated workers
//     with Parallel set, the mode whose wall clock a user waits for. The
//     only workload that runs core, relation and cluster; no HTTP.
//
// The serving workloads share one query mix: cubewarp's Zipf law
// (s = 1.4, v = 4) over the lattice ranked by width, and min_support from
// the paper's minimum-support sweep (see data.go).
//
// Left out: warm-hot, the in-memory tier with the whole lattice cached.
// On a 2-core host its figures spread the most, and the time budget for
// the benchmark's repeated runs fits three 30-second workloads. The
// layers it would load most, httpserve and the answer path, serve the
// cache hits of cold-scan and the queries of mixed-durable.
//
// Defects the workloads show, not hide: httpserve and icecube never call
// RetainSnapshots, so every committed version stays resident; the
// mixed-durable epochs bound that growth and report it as end_heap_mb and
// ingest.retained_mb_per_commit. The server's batching window defaults to
// 0, which is what runs here; cubewarp sets 2 ms, which on a lightly
// loaded 2-core host raises the median query from about 0.2 ms to 2.6 ms.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
)

// metricDef is one metric of the catalog BENCHMARK.json registers.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees. An "op" is the
// workload's unit of work: an HTTP query or mutate on the serving
// workloads, one Compute call on cube-compute.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"setup_heap_mb", "MiB", "lower"},
	{"end_heap_mb", "MiB", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
}

// perLayer are the traced run's metrics, named after the layer (package)
// they measure. A layer a workload leaves idle reports 0.
var perLayer = []metricDef{
	{"client.residual_p50_us", "us", "lower"},
	{"httpserve.self_p50_us", "us", "lower"},
	{"httpserve.self_p99_us", "us", "lower"},
	{"httpserve.resp_kb_per_query", "KiB", "lower"},
	{"httpserve.backend_calls_per_query", "count", "lower"},
	{"httpserve.shed_frac", "ratio", "lower"},
	{"httpserve.unaccounted", "count", "lower"},
	{"answer.derive_p50_us", "us", "lower"},
	{"answer.derive_p99_us", "us", "lower"},
	{"answer.emit_ns_per_cell", "ns/cell", "lower"},
	{"answer.encode_ns_per_cell", "ns/cell", "lower"},
	{"answer.cells_per_query", "count", "lower"},
	{"serve.hit_frac", "ratio", "higher"},
	{"serve.coalesced_frac", "ratio", "higher"},
	{"serve.derives_per_query", "count", "lower"},
	{"serve.ancestor_frac", "ratio", "higher"},
	{"serve.cells_scanned_per_derive", "count", "lower"},
	{"serve.evictions_per_query", "count", "lower"},
	{"serve.resident_mb", "MiB", "lower"},
	{"serve.unaccounted", "count", "lower"},
	{"segment.scans_per_query", "count", "lower"},
	{"segment.scan_p50_ms", "ms", "lower"},
	{"segment.rows_per_scan", "count", "lower"},
	{"segment.bytes_read_per_row", "B/row", "lower"},
	{"segment.read_s_frac", "ratio", "lower"},
	{"segment.blocks_skipped_frac", "ratio", "higher"},
	{"ingest.append_p50_us", "us", "lower"},
	{"ingest.commit_p50_ms", "ms", "lower"},
	{"ingest.folded_per_commit", "count", "higher"},
	{"ingest.dirty_per_commit", "count", "lower"},
	{"ingest.recomputed_cells_per_commit", "count", "lower"},
	{"ingest.retained_mb_per_commit", "MiB", "lower"},
	{"wal.bytes_per_commit", "B", "lower"},
	{"wal.sync_p50_us", "us", "lower"},
	{"wal.recover_s_per_commit", "s", "lower"},
	{"core.precompute_s", "s", "lower"},
	{"core.cells_per_s", "1/s", "higher"},
	{"core.cells_written", "count", "lower"},
	{"core.makespan_virtual_s", "s", "lower"},
	{"core.load_imbalance", "ratio", "lower"},
	{"core.alloc_mb_per_compute", "MiB", "lower"},
	{"core.gc_per_compute", "count", "lower"},
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

func parseArgs(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the rows and operations are drawn from")
	fs.IntVar(&cfg.seconds, "seconds", 10, "seconds of measurement")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for the run's scratch files and span dumps")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("-seconds must be at least 1, got %d", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	return cfg, nil
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// metricOut is one metric of the final line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine is the last line of standard output.
type finalLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func catalogOut(defs []metricDef, vals map[string]float64) map[string]metricOut {
	out := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		out[d.name] = metricOut{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	cfg, err := parseArgs(args, stderr)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	b := newBench(cfg, scratch)
	if err := workloads[cfg.workload].run(b); err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if b.tr != nil {
		dir := cfg.workdir + "/traces"
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := dir + "/" + cfg.workload + ".jsonl"
		if err := b.tr.dump(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stdout, "# spans: %d kept, %d dropped, written to %s\n", len(b.tr.spans), b.tr.dropped, path)
	}
	return b.print(stdout)
}

// print writes the human-readable report lines and the final JSON line.
func (b *bench) print(w io.Writer) error {
	fp := fingerprint(b.cfg)
	for k, v := range b.settings {
		fp[k] = v
	}
	fp["operations"] = b.attempted
	line := func(tag string, v any) error {
		raw, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "# %s %s\n", tag, raw)
		return err
	}
	if err := line("fingerprint", fp); err != nil {
		return err
	}
	for _, c := range b.checks {
		state := "ok"
		if !c.ok {
			state = "FAIL"
		}
		fmt.Fprintf(w, "# check %-28s %-4s %s\n", c.name, state, c.detail)
	}
	for _, msg := range b.warnings {
		fmt.Fprintf(w, "# warning %s\n", msg)
	}
	b.report["ops_failed_frac"] = reportVal{Value: ratio(float64(b.failed), float64(b.attempted)), Unit: "ratio", N: b.attempted}
	if err := line("report", b.report); err != nil {
		return err
	}
	if b.cfg.trace {
		if err := line("tracing-overhead", b.overhead); err != nil {
			return err
		}
	}
	correct := b.failed == 0
	for _, c := range b.checks {
		correct = correct && c.ok
	}
	out := finalLine{Correct: correct, Attempted: b.attempted, Failed: b.failed}
	if b.cfg.trace {
		out.Metrics = catalogOut(perLayer, b.layer)
	} else {
		out.Metrics = catalogOut(endToEnd, b.e2e)
	}
	raw, err := json.Marshal(&out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// fingerprint records the host and settings a result was measured with.
func fingerprint(cfg config) map[string]any {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go":         runtime.Version(),
		"gogc":       gogc,
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// workload is one workload's run and the percentile its op_tail_ms is
// taken at: p99 where a run collects thousands of operations, p75 on
// cube-compute, whose 30-second run makes about a hundred Compute calls:
// the highest percentile that keeps ten calls beyond it down to 40 calls.
type workload struct {
	run     func(*bench) error
	tailPct float64
}

// workloads maps each workload name to its run.
var workloads = map[string]workload{
	"cold-scan":     {runColdScan, 99},
	"mixed-durable": {runMixedDurable, 99},
	"cube-compute":  {runCubeCompute, 75},
}
