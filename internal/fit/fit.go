// Package fit implements the nonlinear least-squares routines used to
// calibrate the paper's empirical models from measurement data.
//
// All the models in the paper share one parametric family,
//
//	y = alpha * lD * exp(beta * SNR)
//
// (Eq. 3 for PER, Eq. 7 minus one for the retransmission count, and the base
// of Eq. 8 for the radio loss rate). Fitting proceeds in two stages:
//
//  1. a log-linear least-squares fit of log(y/lD) = log(alpha) + beta*SNR,
//     which gives a robust starting point, followed by
//  2. Gauss–Newton refinement of (alpha, beta) on the original (non-log)
//     residuals, which weights the high-PER region the way the paper's
//     measured curves do.
package fit

import (
	"errors"
	"math"

	"wsnlink/internal/stats"
)

// ExpModel holds the parameters of y = Alpha * lD * exp(Beta * snr).
type ExpModel struct {
	Alpha float64
	Beta  float64
	// RMSE is the root-mean-square error of the fit on the original scale.
	RMSE float64
	// N is the number of points used.
	N int
}

// Eval evaluates the fitted model at payload size lD (bytes) and snr (dB).
func (m ExpModel) Eval(lD, snr float64) float64 {
	return m.Alpha * lD * math.Exp(m.Beta*snr)
}

// Sample is one observation for the exponential fit.
type Sample struct {
	LD  float64 // payload size in bytes
	SNR float64 // signal-to-noise ratio in dB
	Y   float64 // observed response (PER, Ntries-1, ...)
}

// Options tunes the fitting procedure.
type Options struct {
	// MaxIter bounds the Gauss–Newton refinement iterations. Zero means
	// use the default (50). Negative disables refinement entirely and the
	// log-linear estimate is returned.
	MaxIter int
	// Tol is the relative parameter-change convergence threshold
	// (default 1e-10).
	Tol float64
	// MinY floors the observed response before the log transform so that
	// exact zeros (configurations that happened to lose no packets) do not
	// blow up the first stage. Default 1e-6.
	MinY float64
}

func (o Options) withDefaults() Options {
	if o.MaxIter == 0 {
		o.MaxIter = 50
	}
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	if o.MinY == 0 {
		o.MinY = 1e-6
	}
	return o
}

// ErrTooFewSamples is returned when fewer than three usable samples remain.
var ErrTooFewSamples = errors.New("fit: need at least three samples")

// FitExp fits y = alpha*lD*exp(beta*snr) to the samples.
func FitExp(samples []Sample, opts Options) (ExpModel, error) {
	opts = opts.withDefaults()

	xs := make([]float64, 0, len(samples))
	ys := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.LD <= 0 {
			continue
		}
		y := s.Y
		if y < opts.MinY {
			y = opts.MinY
		}
		xs = append(xs, s.SNR)
		ys = append(ys, math.Log(y/s.LD))
	}
	if len(xs) < 3 {
		return ExpModel{}, ErrTooFewSamples
	}
	lin, err := stats.LinearRegression(xs, ys)
	if err != nil {
		return ExpModel{}, err
	}
	alpha := math.Exp(lin.Intercept)
	beta := lin.Slope

	if opts.MaxIter > 0 {
		alpha, beta = refineExp(samples, alpha, beta, opts)
	}

	m := ExpModel{Alpha: alpha, Beta: beta, N: len(xs)}
	m.RMSE = rmseExp(samples, m)
	return m, nil
}

// refineExp runs damped Gauss–Newton on the original-scale residuals
// r_i = y_i - alpha*l_i*exp(beta*s_i). A step is only accepted if it reduces
// the sum of squared residuals; otherwise the step is halved, which keeps the
// iteration stable even when the starting point already fits near-perfectly.
func refineExp(samples []Sample, alpha, beta float64, opts Options) (float64, float64) {
	sse := func(a, b float64) float64 {
		var s float64
		for _, smp := range samples {
			if smp.LD <= 0 {
				continue
			}
			r := smp.Y - a*smp.LD*math.Exp(b*smp.SNR)
			s += r * r
		}
		return s
	}
	cur := sse(alpha, beta)
	for iter := 0; iter < opts.MaxIter; iter++ {
		// Normal equations J^T J d = J^T r for the 2-parameter model.
		var jtj00, jtj01, jtj11, jtr0, jtr1 float64
		for _, s := range samples {
			if s.LD <= 0 {
				continue
			}
			e := math.Exp(beta * s.SNR)
			pred := alpha * s.LD * e
			r := s.Y - pred
			// d pred / d alpha, d pred / d beta
			ja := s.LD * e
			jb := alpha * s.LD * s.SNR * e
			jtj00 += ja * ja
			jtj01 += ja * jb
			jtj11 += jb * jb
			jtr0 += ja * r
			jtr1 += jb * r
		}
		det := jtj00*jtj11 - jtj01*jtj01
		if math.Abs(det) < 1e-30 {
			break
		}
		dAlpha := (jtj11*jtr0 - jtj01*jtr1) / det
		dBeta := (jtj00*jtr1 - jtj01*jtr0) / det

		// Backtracking line search: halve the step until the SSE improves,
		// keeping alpha positive.
		lambda := 1.0
		accepted := false
		var newAlpha, newBeta float64
		for ; lambda > 1e-8; lambda /= 2 {
			newAlpha = alpha + lambda*dAlpha
			newBeta = beta + lambda*dBeta
			if newAlpha <= 0 || math.IsNaN(newAlpha) || math.IsNaN(newBeta) ||
				math.IsInf(newBeta, 0) {
				continue
			}
			if next := sse(newAlpha, newBeta); next <= cur {
				cur = next
				accepted = true
				break
			}
		}
		if !accepted {
			break
		}
		relChange := math.Abs(newAlpha-alpha)/math.Max(alpha, 1e-12) +
			math.Abs(newBeta-beta)/math.Max(math.Abs(beta), 1e-12)
		alpha, beta = newAlpha, newBeta
		if relChange < opts.Tol {
			break
		}
	}
	return alpha, beta
}

func rmseExp(samples []Sample, m ExpModel) float64 {
	var ss float64
	n := 0
	for _, s := range samples {
		if s.LD <= 0 {
			continue
		}
		r := s.Y - m.Eval(s.LD, s.SNR)
		ss += r * r
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(ss / float64(n))
}
