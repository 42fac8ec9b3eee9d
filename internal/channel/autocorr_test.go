package channel

import (
	"errors"
	"math"
	"testing"

	"wsnlink/internal/stats"
)

// autocorrelation returns the lag-k sample autocorrelation of xs,
// normalised by the lag-0 variance (so autocorrelation(xs, 0) == 1 for any
// non-constant series). It is the oracle for the channel model's fading
// coherence time.
func autocorrelation(xs []float64, lag int) (float64, error) {
	if lag < 0 {
		return 0, errors.New("stats: negative lag")
	}
	n := len(xs)
	if n-lag < 2 {
		return 0, errors.New("stats: series too short for lag")
	}
	m := stats.Mean(xs)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - m
		den += d * d
	}
	if den == 0 {
		return 0, errors.New("stats: zero variance")
	}
	for i := 0; i < n-lag; i++ {
		num += (xs[i] - m) * (xs[i+lag] - m)
	}
	return num / den, nil
}

// coherenceLag returns the smallest lag at which the autocorrelation of xs
// drops below the threshold (e.g. 1/e for the classic coherence time). It
// returns the maximum searched lag if the correlation never drops.
func coherenceLag(xs []float64, threshold float64, maxLag int) (int, error) {
	if maxLag < 1 {
		return 0, errors.New("stats: maxLag must be >= 1")
	}
	for lag := 1; lag <= maxLag; lag++ {
		ac, err := autocorrelation(xs, lag)
		if err != nil {
			return 0, err
		}
		if ac < threshold {
			return lag, nil
		}
	}
	return maxLag, nil
}

func TestAutocorrelationLagZero(t *testing.T) {
	xs := []float64{1, 3, 2, 5, 4}
	ac, err := autocorrelation(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ac-1) > 1e-12 {
		t.Errorf("lag-0 autocorrelation = %v, want 1", ac)
	}
}

func TestAutocorrelationAlternating(t *testing.T) {
	// A strictly alternating series is strongly anti-correlated at lag 1.
	xs := make([]float64, 200)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = 1
		} else {
			xs[i] = -1
		}
	}
	ac, err := autocorrelation(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ac > -0.9 {
		t.Errorf("alternating series lag-1 = %v, want near -1", ac)
	}
}

func TestAutocorrelationAR1(t *testing.T) {
	// x_{i+1} = rho·x_i + noise has lag-k autocorrelation ≈ rho^k.
	const rho = 0.8
	xs := make([]float64, 50000)
	s := uint64(12345)
	gauss := func() float64 {
		// Sum of 12 uniforms minus 6 ≈ standard normal.
		sum := 0.0
		for i := 0; i < 12; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			sum += float64(s>>11) / float64(1<<53)
		}
		return sum - 6
	}
	for i := 1; i < len(xs); i++ {
		xs[i] = rho*xs[i-1] + gauss()
	}
	for _, lag := range []int{1, 2, 4} {
		ac, err := autocorrelation(xs, lag)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Pow(rho, float64(lag))
		if math.Abs(ac-want) > 0.05 {
			t.Errorf("lag %d: autocorrelation = %v, want ≈ %v", lag, ac, want)
		}
	}
}

func TestAutocorrelationErrors(t *testing.T) {
	if _, err := autocorrelation([]float64{1, 2, 3}, -1); err == nil {
		t.Error("negative lag should error")
	}
	if _, err := autocorrelation([]float64{1, 2}, 1); err == nil {
		t.Error("too-short series should error")
	}
	if _, err := autocorrelation([]float64{5, 5, 5, 5}, 1); err == nil {
		t.Error("constant series should error")
	}
}

func TestCoherenceLag(t *testing.T) {
	// Exponentially decaying correlation: rho = 0.5 → drops below 1/e at
	// lag 2 (0.25 < 0.368).
	const rho = 0.5
	xs := make([]float64, 100000)
	s := uint64(777)
	gauss := func() float64 {
		sum := 0.0
		for i := 0; i < 12; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			sum += float64(s>>11) / float64(1<<53)
		}
		return sum - 6
	}
	for i := 1; i < len(xs); i++ {
		xs[i] = rho*xs[i-1] + gauss()
	}
	lag, err := coherenceLag(xs, 1/math.E, 50)
	if err != nil {
		t.Fatal(err)
	}
	if lag != 2 {
		t.Errorf("coherence lag = %d, want 2", lag)
	}
	if _, err := coherenceLag(xs, 0.5, 0); err == nil {
		t.Error("maxLag 0 should error")
	}
	// Never dropping: returns maxLag.
	slow := make([]float64, 1000)
	for i := range slow {
		slow[i] = float64(i) // strong positive trend, correlation stays high
	}
	lag, err = coherenceLag(slow, 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	if lag != 5 {
		t.Errorf("trend series lag = %d, want maxLag 5", lag)
	}
}
