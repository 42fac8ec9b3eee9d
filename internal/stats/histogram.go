package stats

import (
	"errors"
	"fmt"
)

// Histogram is a fixed-width bin histogram over [Lo, Hi). Samples outside the
// range are counted in the Under/Over overflow counters so that totals are
// conserved.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Under  int
	Over   int
	total  int
	width  float64
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, errors.New("stats: histogram needs at least one bin")
	}
	if hi <= lo {
		return nil, fmt.Errorf("stats: invalid histogram range [%v,%v)", lo, hi)
	}
	return &Histogram{
		Lo:     lo,
		Hi:     hi,
		Counts: make([]int, bins),
		width:  (hi - lo) / float64(bins),
	}, nil
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / h.width)
		if i >= len(h.Counts) { // guard against float rounding at the edge
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// AddAll records every sample in xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// Total returns the number of samples recorded, including overflow.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the center value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.width
}

// Density returns the per-bin probability mass (fraction of total samples in
// each bin). An empty histogram returns all zeros.
func (h *Histogram) Density() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// Mode returns the center of the most populated bin. Ties resolve to the
// lowest bin. It returns ErrEmpty if no in-range sample was recorded.
func (h *Histogram) Mode() (float64, error) {
	best, bestCount := -1, 0
	for i, c := range h.Counts {
		if c > bestCount {
			best, bestCount = i, c
		}
	}
	if best < 0 {
		return 0, ErrEmpty
	}
	return h.BinCenter(best), nil
}
