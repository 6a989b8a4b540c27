package serve

import (
	"context"

	"icebergcube/internal/agg"
	"icebergcube/internal/lattice"
	"icebergcube/internal/relation"
)

// Source is a streamable columnar store of leaf rows — the segment tier a
// server without a pinned leaf falls back to. Scan must yield the
// requested dimension columns (dense, in the order of dims) plus the
// measure, chunk by chunk; a nil dims requests no dimension columns (the
// "all" roll-up reads measures only). Implementations choose the chunk
// size; the server never retains yielded slices across calls.
type Source interface {
	// Width is the number of leaf dimensions.
	Width() int
	// Rows is the total row count (the planner's leaf-size estimate).
	Rows() int
	// Scan streams the given dimension columns and the measure.
	Scan(dims []int, yield func(cols [][]uint32, meas []float64) error) error
}

// chunkMask is the sentinel mask carried by the per-chunk staging cuboid
// handed to aggregateFrom. It only needs to differ from every real query
// mask (aggregateFrom short-circuits on mask equality, and a raw unsorted
// chunk must never be returned as a result); all bits set can never be a
// query because queries are subsets of the leaf width.
const chunkMask = ^lattice.Mask(0)

// coldScan streams q's columns from the source and folds each chunk into
// a running sorted cuboid: chunk rows become a staging cuboid,
// aggregateFrom sorts and merges them, and mergeCuboids folds the result
// into the accumulator. Peak memory is the accumulated result plus one
// chunk — never the leaf. The context is checked before each chunk so an
// abandoned query aborts the scan instead of reading the rest of the
// table. Returns the cuboid and the rows streamed.
func (s *Server) coldScan(ctx context.Context, q lattice.Mask, sc *relation.Scratch) (*Cuboid, int64, error) {
	qDims := q.Dims()
	w := len(qDims)
	idCols, cards := s.projection(q, q)
	acc := &Cuboid{Mask: q, Width: w}
	var scanned int64
	err := s.src.Scan(qDims, func(cols [][]uint32, meas []float64) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := len(meas)
		if n == 0 {
			return nil
		}
		scanned += int64(n)
		stage := &Cuboid{Mask: chunkMask, Width: w}
		if w > 0 {
			stage.Keys = make([]uint32, 0, n*w)
			for i := 0; i < n; i++ {
				for _, col := range cols {
					stage.Keys = append(stage.Keys, col[i])
				}
			}
		}
		stage.States = make([]agg.State, n)
		for i, m := range meas {
			st := agg.NewState()
			st.Add(m)
			stage.States[i] = st
		}
		part := aggregateFrom(stage, q, idCols, cards, sc)
		acc = mergeCuboids(acc, part)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return acc, scanned, nil
}

// mergeCuboids merges two cuboids of the same mask, each sorted in
// ascending tuple order, into one sorted cuboid; equal tuples merge their
// states. Either input's storage may be reused by the result.
func mergeCuboids(a, b *Cuboid) *Cuboid {
	if a.Rows() == 0 {
		return b
	}
	if b.Rows() == 0 {
		return a
	}
	w := a.Width
	if w == 0 {
		st := a.States[0]
		st.Merge(b.States[0])
		return &Cuboid{Mask: a.Mask, Width: 0, States: []agg.State{st}}
	}
	an, bn := a.Rows(), b.Rows()
	out := &Cuboid{
		Mask:   a.Mask,
		Width:  w,
		Keys:   make([]uint32, 0, (an+bn)*w),
		States: make([]agg.State, 0, an+bn),
	}
	i, j := 0, 0
	for i < an && j < bn {
		cmp := compareRows(a.Row(i), b.Row(j))
		switch {
		case cmp < 0:
			out.Keys = append(out.Keys, a.Row(i)...)
			out.States = append(out.States, a.States[i])
			i++
		case cmp > 0:
			out.Keys = append(out.Keys, b.Row(j)...)
			out.States = append(out.States, b.States[j])
			j++
		default:
			st := a.States[i]
			st.Merge(b.States[j])
			out.Keys = append(out.Keys, a.Row(i)...)
			out.States = append(out.States, st)
			i++
			j++
		}
	}
	for ; i < an; i++ {
		out.Keys = append(out.Keys, a.Row(i)...)
		out.States = append(out.States, a.States[i])
	}
	for ; j < bn; j++ {
		out.Keys = append(out.Keys, b.Row(j)...)
		out.States = append(out.States, b.States[j])
	}
	return out
}

// compareRows orders two equal-length key tuples lexicographically.
func compareRows(a, b []uint32) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}
