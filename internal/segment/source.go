package segment

import "sync"

// Source streams a table's columns to the serving layer: Width, Rows and
// Scan(dims, yield) are the contract of a serving source that keeps the
// leaf on disk, and the measured I/O of every scan accumulates for
// IOStats. Safe for concurrent scans.
type Source struct {
	tab *Table
	mu  sync.Mutex
	io  IOStats
}

// NewSource wraps tab.
func NewSource(tab *Table) *Source { return &Source{tab: tab} }

// Width returns the number of dimensions.
func (s *Source) Width() int { return len(s.tab.Names()) }

// Rows returns the row count.
func (s *Source) Rows() int { return int(s.tab.Rows()) }

// Scan streams the given dimension columns, densely in the order of dims,
// plus the measure; nil dims reads the measure only.
func (s *Source) Scan(dims []int, yield func(cols [][]uint32, meas []float64) error) error {
	var st IOStats
	cols := dims
	if cols == nil {
		cols = []int{}
	}
	dense := make([][]uint32, len(dims))
	err := s.tab.Scan(ScanOptions{Cols: cols, Meas: true, Stats: &st}, func(ch *Chunk) error {
		for i, d := range dims {
			dense[i] = ch.Cols[d]
		}
		return yield(dense, ch.Meas)
	})
	s.mu.Lock()
	s.io.Add(st)
	s.mu.Unlock()
	return err
}

// IOStats returns the measured I/O of every scan so far.
func (s *Source) IOStats() IOStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.io
}
