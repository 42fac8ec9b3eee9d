package stats

import (
	"errors"
	"math"
)

// LinearFit is the result of an ordinary-least-squares fit y = Slope*x +
// Intercept, with enough diagnostics for the experiment reports.
type LinearFit struct {
	Slope      float64
	Intercept  float64
	R2         float64 // coefficient of determination
	ResidualSD float64 // standard deviation of residuals
	N          int
}

// LinearRegression fits y = a*x + b by ordinary least squares.
func LinearRegression(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, errors.New("stats: length mismatch")
	}
	n := len(xs)
	if n < 2 {
		return LinearFit{}, errors.New("stats: need at least two points")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: degenerate x (zero variance)")
	}
	slope := sxy / sxx
	intercept := my - slope*mx

	var ssRes float64
	for i := range xs {
		r := ys[i] - (slope*xs[i] + intercept)
		ssRes += r * r
	}
	r2 := 1.0
	if syy > 0 {
		r2 = 1 - ssRes/syy
	}
	residSD := 0.0
	if n > 2 {
		residSD = math.Sqrt(ssRes / float64(n-2))
	}
	return LinearFit{
		Slope:      slope,
		Intercept:  intercept,
		R2:         r2,
		ResidualSD: residSD,
		N:          n,
	}, nil
}
