package main

import (
	"fmt"
	"runtime"
	"time"

	icebergcube "icebergcube"
)

// cube-compute's shape: the paper's iceberg cube over 9 of the 20
// weather dimensions, cardinality product ≈10^13 (the paper's baseline
// selection), minsup 2, PT on 8 simulated workers executed on goroutines.
const (
	computeRows    = 12_000
	computeDims    = 9
	computeLog10   = 13
	computeMinSup  = 2
	computeWorkers = 8
	// Set-up is one FromRows of about 25 ms, so setup_s takes the median
	// of many to stay steady.
	computeSetupReps = 25
)

func runCubeCompute(b *bench) error {
	names := weatherNames()
	rows, meas := newRowGen(names, b.cfg.seed).rows(computeRows)
	var ds *icebergcube.Dataset
	var setups []float64
	for k := 0; k < computeSetupReps; k++ {
		ds = nil
		runtime.GC() // each set-up starts from a collected heap
		t0 := time.Now()
		var err error
		if ds, err = icebergcube.FromRows(names, rows, meas); err != nil {
			return fmt.Errorf("FromRows: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rows, meas = nil, nil
	setupHeap := heapMB()

	dims := ds.PickDimsByCardinalityProduct(computeDims, computeLog10)
	q := icebergcube.Query{Dims: dims, MinSupport: computeMinSup, Workers: computeWorkers, Parallel: true}
	serial := q
	serial.Parallel = false
	b.settings["rows"] = computeRows
	b.settings["dims"] = dims
	b.settings["min_support"] = computeMinSup
	b.settings["algorithm"] = "PT"
	b.settings["workers"] = computeWorkers
	b.settings["parallel"] = true
	b.settings["clients"] = 1

	// The serial runner's virtual time is deterministic: its makespan and
	// worker loads are the algorithm's, and two calls must agree.
	ref, err := icebergcube.Compute(ds, serial)
	if err != nil {
		return fmt.Errorf("Compute: %w", err)
	}

	var calls, callsTraced loopStats
	var alloc, gcs []float64
	deadline := time.Now().Add(time.Duration(b.cfg.seconds) * time.Second)
	for n := 0; time.Now().Before(deadline); n++ {
		traced := b.tr != nil && n%2 == 1
		var r *icebergcube.Result
		cost, err := measure(func() error {
			call := func() error {
				var err error
				r, err = icebergcube.Compute(ds, q)
				return err
			}
			if traced {
				return b.tr.time("compute", call)
			}
			return call()
		})
		res := opResult{kind: opQuery, ok: err == nil, lat: time.Duration(cost.sec * 1e9)}
		switch {
		case err != nil:
			res.err = err.Error()
		case r.NumCells() != ref.NumCells() || r.CellsWritten != ref.CellsWritten:
			res.ok, res.err = false, fmt.Sprintf("call %d: %d cells (%d written), first call %d (%d)", n, r.NumCells(), r.CellsWritten, ref.NumCells(), ref.CellsWritten)
		}
		r = nil
		// Each call is its own window: ops_per_s is the median call's rate.
		into := &calls
		if traced {
			into = &callsTraced
			alloc, gcs = append(alloc, cost.allocMB), append(gcs, cost.gcs)
		}
		into.add(res)
		into.elapsed += time.Duration(cost.sec * 1e9)
		if res.ok {
			into.winRate = append(into.winRate, 1/cost.sec)
			into.winP50 = append(into.winP50, cost.sec*1e3)
		}
	}
	endHeap := heapMB() - b.tr.heldMB()
	b.count("compute-calls", calls)
	b.count("traced-compute-calls", callsTraced)

	again, err := icebergcube.Compute(ds, serial)
	if err != nil {
		return fmt.Errorf("Compute: %w", err)
	}
	b.check("virtual-time-deterministic", again.Makespan == ref.Makespan && again.NumCells() == ref.NumCells(),
		"serial PT makespan %.9g s then %.9g s, cells %d then %d", ref.Makespan, again.Makespan, ref.NumCells(), again.NumCells())
	again = nil
	bpp := serial
	bpp.Algorithm = icebergcube.BPP
	other, err := icebergcube.Compute(ds, bpp)
	if err != nil {
		return fmt.Errorf("Compute BPP: %w", err)
	}
	err = sameCube(ref, other, dims)
	b.check("bpp-same-cells", err == nil, "BPP vs PT over %d cuboids, %d cells: %v", 1<<len(dims), ref.NumCells(), errOrOK(err))

	b.setOpMetrics(calls)
	b.e2e["setup_s"] = median(setups)
	b.e2e["setup_heap_mb"] = setupHeap
	b.e2e["end_heap_mb"] = endHeap
	b.report["setup_s"] = reportVal{Value: median(setups), Unit: "s", N: len(setups), Pct: 50}
	b.report["setup_heap_mb"] = reportVal{Value: setupHeap, Unit: "MiB"}
	b.report["end_heap_mb"] = reportVal{Value: endHeap, Unit: "MiB"}
	b.report["compute_s"] = reportVal{Value: median(calls.queryMS) / 1e3, Unit: "s", N: len(calls.queryMS), Pct: 50}
	b.tracingOverhead(calls, callsTraced)
	if b.tr != nil {
		L := b.layer
		sec := median(callsTraced.queryMS) / 1e3
		L["core.cells_per_s"] = ratio(float64(ref.CellsWritten), sec)
		L["core.cells_written"] = float64(ref.CellsWritten)
		L["core.makespan_virtual_s"] = ref.Makespan
		L["core.load_imbalance"] = imbalance(ref.WorkerLoads)
		L["core.alloc_mb_per_compute"] = median(alloc)
		L["core.gc_per_compute"] = median(gcs)
	}
	return nil
}

// imbalance is max ÷ mean of the workers' loads.
func imbalance(loads []float64) float64 {
	var sum, hi float64
	for _, l := range loads {
		sum += l
		hi = max(hi, l)
	}
	return ratio(hi, sum/float64(len(loads)))
}

// sameCube compares two computed cubes cuboid by cuboid, cell by cell.
func sameCube(a, b *icebergcube.Result, dims []string) error {
	if a.NumCells() != b.NumCells() {
		return fmt.Errorf("%d cells vs %d", a.NumCells(), b.NumCells())
	}
	for mask := 0; mask < 1<<len(dims); mask++ {
		var gb []string
		for d := range dims {
			if mask&(1<<d) != 0 {
				gb = append(gb, dims[d])
			}
		}
		ca, err := a.Cuboid(gb...)
		if err != nil {
			return err
		}
		cb, err := b.Cuboid(gb...)
		if err != nil {
			return err
		}
		if err := sameCells(cb, ca); err != nil {
			return fmt.Errorf("cuboid %v: %w", gb, err)
		}
	}
	return nil
}
