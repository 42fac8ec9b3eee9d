package obs

import (
	"math"
	"testing"
)

// TestQuantileEdgeCases pins Quantile's behavior at the boundaries the
// service dashboards rely on: empty snapshots, the extreme quantiles,
// single-bucket layouts and mass in the +Inf overflow bucket.
func TestQuantileEdgeCases(t *testing.T) {
	t.Run("empty snapshot", func(t *testing.T) {
		var s HistogramSnapshot
		for _, q := range []float64{0, 0.5, 1} {
			if got := s.Quantile(q); got != 0 {
				t.Fatalf("empty.Quantile(%g) = %g, want 0", q, got)
			}
		}
		empty := mustHistogram([]float64{1, 2}).Snapshot()
		if got := empty.Quantile(0.99); got != 0 {
			t.Fatalf("zero-count.Quantile(0.99) = %g, want 0", got)
		}
	})

	t.Run("q=0 and q=1", func(t *testing.T) {
		h := mustHistogram([]float64{1, 2, 4})
		h.Observe(1.5)
		h.Observe(3)
		s := h.Snapshot()
		// q=0 asks for the first bound whose cumulative count reaches 0 —
		// by convention the first non-empty bucket's bound... the CDF first
		// reaches a zero target at the very first bucket.
		if got := s.Quantile(0); got != 1 {
			t.Fatalf("Quantile(0) = %g, want first bound 1", got)
		}
		if got := s.Quantile(1); got != 4 {
			t.Fatalf("Quantile(1) = %g, want last populated bound 4", got)
		}
	})

	t.Run("single bucket", func(t *testing.T) {
		h := mustHistogram([]float64{10})
		h.Observe(3)
		s := h.Snapshot()
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got := s.Quantile(q); got != 10 {
				t.Fatalf("single-bucket Quantile(%g) = %g, want 10", q, got)
			}
		}
	})

	t.Run("overflow bucket", func(t *testing.T) {
		h := mustHistogram([]float64{1, 2})
		h.Observe(0.5)
		h.Observe(100) // lands beyond the last bound
		h.Observe(200)
		s := h.Snapshot()
		if s.Counts[len(s.Counts)-1] != 2 {
			t.Fatalf("overflow bucket holds %d, want 2", s.Counts[len(s.Counts)-1])
		}
		// The histogram cannot resolve past its last bound: any quantile in
		// the overflow mass reports that bound, never +Inf or garbage.
		if got := s.Quantile(0.99); got != 2 {
			t.Fatalf("overflow Quantile(0.99) = %g, want last bound 2", got)
		}
		if got := s.Quantile(1); got != 2 {
			t.Fatalf("overflow Quantile(1) = %g, want last bound 2", got)
		}
		if math.IsInf(s.Quantile(0.9), 0) {
			t.Fatal("Quantile must never return +Inf")
		}
	})

	t.Run("quantile hits exact bucket boundary", func(t *testing.T) {
		h := mustHistogram([]float64{1, 2, 3, 4})
		for _, v := range []float64{0.5, 1.5, 2.5, 3.5} {
			h.Observe(v)
		}
		s := h.Snapshot()
		if got := s.Quantile(0.5); got != 2 {
			t.Fatalf("Quantile(0.5) = %g, want 2", got)
		}
		if got := s.Quantile(0.75); got != 3 {
			t.Fatalf("Quantile(0.75) = %g, want 3", got)
		}
	})
}
