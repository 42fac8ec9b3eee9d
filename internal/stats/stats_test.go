package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{4}, 4},
		{"simple", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-2, 2}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 denominator: sum sq dev = 32, / 7.
	wantVar := 32.0 / 7.0
	if got := Variance(xs); !almostEqual(got, wantVar, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, wantVar)
	}
	if got := StdDev(xs); !almostEqual(got, math.Sqrt(wantVar), 1e-12) {
		t.Errorf("StdDev = %v, want %v", got, math.Sqrt(wantVar))
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Errorf("Variance(single) = %v, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v) error: %v", tt.p, err)
		}
		if !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("Percentile(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("Percentile(101) should error")
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Error("Percentile(-1) should error")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

func TestLinearRegressionExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	fit, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 2, 1e-12) || !almostEqual(fit.Intercept, 1, 1e-12) {
		t.Errorf("fit = %+v, want slope 2 intercept 1", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestLinearRegressionNoisy(t *testing.T) {
	// y = -0.5x + 3 with symmetric noise that cancels exactly.
	xs := []float64{0, 1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	noise := []float64{0.1, -0.1, 0.1, -0.1, 0.1, -0.1}
	for i, x := range xs {
		ys[i] = -0.5*x + 3 + noise[i]
	}
	fit, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-(-0.5)) > 0.05 {
		t.Errorf("slope = %v, want ~-0.5", fit.Slope)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	if _, err := LinearRegression([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should error")
	}
	if _, err := LinearRegression([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := LinearRegression([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("zero x-variance should error")
	}
}

func TestHistogramBasic(t *testing.T) {
	h, err := NewHistogram(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.AddAll([]float64{0.5, 1.5, 1.6, 9.9, -1, 10, 100})
	if h.Total() != 7 {
		t.Errorf("Total = %d, want 7", h.Total())
	}
	if h.Under != 1 || h.Over != 2 {
		t.Errorf("Under/Over = %d/%d, want 1/2", h.Under, h.Over)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 2 || h.Counts[9] != 1 {
		t.Errorf("Counts = %v", h.Counts)
	}
	mode, err := h.Mode()
	if err != nil || !almostEqual(mode, 1.5, 1e-12) {
		t.Errorf("Mode = %v, %v; want 1.5", mode, err)
	}
}

func TestHistogramDensitySumsToInRangeFraction(t *testing.T) {
	h, _ := NewHistogram(0, 1, 4)
	h.AddAll([]float64{0.1, 0.2, 0.3, 0.9, 2})
	sum := 0.0
	for _, d := range h.Density() {
		sum += d
	}
	if !almostEqual(sum, 0.8, 1e-12) {
		t.Errorf("density sum = %v, want 0.8 (4 of 5 in range)", sum)
	}
}

func TestHistogramInvalid(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("zero bins should error")
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Error("empty range should error")
	}
}

func TestHistogramConservation(t *testing.T) {
	f := func(raw []float64) bool {
		h, _ := NewHistogram(-1, 1, 8)
		h.AddAll(raw)
		inRange := 0
		for _, c := range h.Counts {
			inRange += c
		}
		return inRange+h.Under+h.Over == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
