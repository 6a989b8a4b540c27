package httpserve

import (
	"context"

	icebergcube "icebergcube"
)

// Backend is the slice of the serving stack the HTTP front-end needs:
// dimension names for request validation, a streaming answer path, and
// enough observability to report batching effectiveness. Both the warm
// (Materialized) and cold (ColdCube) tiers satisfy it through thin
// adapters, so one front-end serves either.
type Backend interface {
	// Attrs returns the cube's dimension names in canonical order.
	Attrs() []string
	// Version returns the currently served snapshot version (0 for
	// immutable backends).
	Version() uint64
	// AnswerEach streams every qualifying cell of the group-by to yield in
	// ascending value-tuple order and returns the snapshot version the
	// answer was served at. Cancelling ctx abandons the answer.
	AnswerEach(ctx context.Context, groupBy []string, minSupport int64, yield func(icebergcube.Cell) error) (uint64, error)
	// Derivations returns the cumulative count of cuboid computations the
	// backend has performed (cache hits and coalesced waits excluded).
	// cubewarp uses the delta across a sweep to measure derivations/query.
	Derivations() int64
	// ResetCache drops every cached cuboid except the pinned leaf, so
	// cold-phase sweeps start from a known state.
	ResetCache()
}

// Mutator is the optional write-side a backend may expose; the front-end
// enables POST /v1/mutate only when the configured Backend implements it.
type Mutator interface {
	Append(rows [][]string, measures []float64) error
	Delete(rows [][]string, measures []float64) error
	Commit() (icebergcube.Snapshot, error)
}

// warmBackend adapts *icebergcube.Materialized.
type warmBackend struct {
	m *icebergcube.Materialized
}

// Warm wraps a materialized cube as an HTTP backend. The returned value
// also implements Mutator, so the front-end serves the durable write
// path.
func Warm(m *icebergcube.Materialized) Backend { return warmBackend{m} }

func (w warmBackend) Attrs() []string { return w.m.Attrs() }

func (w warmBackend) Version() uint64 { return w.m.Version() }

func (w warmBackend) AnswerEach(ctx context.Context, groupBy []string, minSupport int64, yield func(icebergcube.Cell) error) (uint64, error) {
	st, err := w.m.AnswerEach(ctx, groupBy, minSupport, yield)
	if err != nil {
		return 0, err
	}
	return st.Version, nil
}

func (w warmBackend) Derivations() int64 { return derivations(w.m.CacheMetrics()) }

func (w warmBackend) ResetCache() { w.m.ResetCache() }

func (w warmBackend) Append(rows [][]string, measures []float64) error {
	return w.m.Append(rows, measures)
}

func (w warmBackend) Delete(rows [][]string, measures []float64) error {
	return w.m.Delete(rows, measures)
}

func (w warmBackend) Commit() (icebergcube.Snapshot, error) { return w.m.Commit() }

// coldBackend adapts *icebergcube.ColdCube (read-only, single version).
type coldBackend struct {
	c *icebergcube.ColdCube
}

// Cold wraps a flushed segment table as a read-only HTTP backend.
func Cold(c *icebergcube.ColdCube) Backend { return coldBackend{c} }

func (cb coldBackend) Attrs() []string { return cb.c.Attrs() }

func (cb coldBackend) Version() uint64 { return 0 }

func (cb coldBackend) AnswerEach(ctx context.Context, groupBy []string, minSupport int64, yield func(icebergcube.Cell) error) (uint64, error) {
	_, err := cb.c.AnswerEach(ctx, groupBy, minSupport, yield)
	return 0, err
}

func (cb coldBackend) Derivations() int64 { return derivations(cb.c.Metrics()) }

// derivations is a tier's foreground cuboid computations: leaf
// aggregations, ancestor aggregations and cold scans.
func derivations(cm icebergcube.CacheMetrics) int64 {
	return cm.LeafAggregations + cm.AncestorAggregations + cm.ColdScans
}

func (cb coldBackend) ResetCache() { cb.c.ResetCache() }
