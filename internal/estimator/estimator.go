// Package estimator provides the link-quality estimation a deployed tuner
// needs. The paper's channel study concludes that "the results of RSSI
// deviation suggest the necessity of adapting to dynamic link quality for
// parameter tuning techniques" (Sec. III-A); this package supplies an EWMA
// of SNR readings and the Retuner, which re-tunes (power, payload) from the
// empirical models when the smoothed estimate drifts beyond a dead band.
package estimator

import "errors"

// EWMA is an exponentially weighted moving average estimator.
type EWMA struct {
	alpha  float64
	value  float64
	primed bool
}

// NewEWMA creates an estimator with smoothing factor alpha in (0, 1]:
// larger alpha weights recent samples more.
func NewEWMA(alpha float64) (*EWMA, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, errors.New("estimator: alpha must be in (0,1]")
	}
	return &EWMA{alpha: alpha}, nil
}

// Update folds one sample in and returns the new estimate. The first sample
// primes the estimator.
func (e *EWMA) Update(sample float64) float64 {
	if !e.primed {
		e.value = sample
		e.primed = true
		return e.value
	}
	e.value = e.alpha*sample + (1-e.alpha)*e.value
	return e.value
}

// Value returns the current estimate (0 before the first sample).
func (e *EWMA) Value() float64 { return e.value }

// Primed reports whether at least one sample has been folded in.
func (e *EWMA) Primed() bool { return e.primed }

// Reset clears the estimator.
func (e *EWMA) Reset() { e.value, e.primed = 0, false }
