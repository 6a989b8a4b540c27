package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// rankOf is the 1-based nearest-rank position of percentile p among n
// samples.
func rankOf(p float64, n int) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}

// tailPct applies the tail rule: the highest percentile of tailLadder that
// has at least ten samples beyond it. ok is false when no percentile
// qualifies (fewer than 20 samples).
func tailPct(n int) (pct float64, ok bool) {
	for _, p := range tailLadder {
		if n-rankOf(p, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile p of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// dist summarises a sample of timings.
type dist struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	TailPct float64 `json:"tail_pct"` // 100 = too few samples; Tail is the maximum
	Tail    float64 `json:"tail"`
}

func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s), P50: percentile(s, 50)}
	if p, ok := tailPct(len(s)); ok {
		d.TailPct, d.Tail = p, percentile(s, p)
	} else if len(s) > 0 {
		d.TailPct, d.Tail = 100, s[len(s)-1]
	}
	return d
}

// at returns the nearest-rank percentile p of xs (which it does not
// modify).
func at(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, p)
}

func median(xs []float64) float64 { return at(xs, 50) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
