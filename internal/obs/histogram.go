package obs

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a fixed-bucket concurrent histogram. Bucket i counts
// observations v with v <= Bounds[i] (and v > Bounds[i-1]); one implicit
// overflow bucket counts v > Bounds[len-1]. Bounds are fixed at
// construction, so merging snapshots from different runs of the same
// campaign is well defined.
//
// Observe is lock-free (one atomic add per call plus one CAS loop for the
// sum) and allocation-free.
type Histogram struct {
	bounds  []float64
	buckets []Counter // len(bounds)+1; last is overflow
	sum     atomicFloat
}

// NewHistogram builds a histogram over the given strictly increasing,
// finite bucket upper bounds.
func NewHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("obs: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("obs: histogram bound %d is not finite", i)
		}
		if i > 0 && bounds[i-1] >= b {
			return nil, fmt.Errorf("obs: histogram bounds must be strictly increasing (bound %d)", i)
		}
	}
	h := &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]Counter, len(bounds)+1),
	}
	return h, nil
}

// mustHistogram is the internal constructor for statically known-good bounds.
func mustHistogram(bounds []float64) *Histogram {
	h, err := NewHistogram(bounds)
	if err != nil {
		panic(err)
	}
	return h
}

// ExpBuckets returns n strictly increasing bounds starting at first and
// multiplying by factor — the standard latency-style bucket layout.
func ExpBuckets(first, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := first
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n bounds first, first+width, ...
func LinearBuckets(first, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = first + float64(i)*width
	}
	return out
}

// Observe records one value. A nil *Histogram is a no-op sink, so a handle
// resolved from a nil Registry can be used unconditionally.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Inc()
	h.sum.Add(v)
}

// Snapshot captures a point-in-time copy. Under concurrent writers the
// copy is a consistent histogram by construction: the total Count is
// computed from the captured bucket counts, so count conservation
// (Count == sum of Counts) holds for every snapshot, and each bucket count
// is monotone in snapshot order. A nil receiver yields the zero snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.buckets)),
	}
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	// The sum is read after the buckets; it may include a concurrent
	// observation whose bucket increment was missed (or vice versa), which
	// only perturbs the reported mean, never the counts.
	s.Sum = h.sum.Load()
	return s
}

// HistogramSnapshot is an immutable, JSON-serializable histogram state.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra final
	// entry for observations above the last bound.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Mean returns Sum/Count (0 for an empty snapshot).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// CDF returns the cumulative fraction of observations at or below each
// bucket bound (including the overflow bucket as a final 1.0 entry). The
// result is monotone non-decreasing and ends at 1 for a non-empty
// snapshot.
func (s HistogramSnapshot) CDF() []float64 {
	out := make([]float64, len(s.Counts))
	if s.Count == 0 {
		return out
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		out[i] = float64(cum) / float64(s.Count)
	}
	return out
}

// Quantile returns an upper bound for the q-quantile (0<=q<=1): the bucket
// bound at which the CDF first reaches q. For mass in the overflow bucket
// it returns the last bound (the histogram cannot resolve beyond it).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	target := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if float64(cum) >= target {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			break
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}
