// Package units provides the small physical-unit conversions used across the
// wsnlink radio stack: decibel arithmetic, dBm/milliwatt conversions, and
// clamping.
//
// Conventions:
//   - Power ratios are expressed in dB (float64).
//   - Absolute powers are expressed in dBm (float64) or milliwatts (float64).
//   - All conversions are pure functions with no hidden state.
package units

import "math"

// DBmToMilliwatts converts an absolute power in dBm to milliwatts.
func DBmToMilliwatts(dbm float64) float64 {
	return math.Pow(10, dbm/10)
}

// MilliwattsToDBm converts an absolute power in milliwatts to dBm.
// Non-positive inputs map to -Inf, the mathematical limit.
func MilliwattsToDBm(mw float64) float64 {
	if mw <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(mw)
}

// DBToLinear converts a power ratio in dB to a linear ratio.
func DBToLinear(db float64) float64 {
	return math.Pow(10, db/10)
}

// AddPowersDBm sums two absolute powers expressed in dBm in the linear
// domain and returns the sum in dBm. Useful for combining a noise floor with
// an interference component.
func AddPowersDBm(a, b float64) float64 {
	return MilliwattsToDBm(DBmToMilliwatts(a) + DBmToMilliwatts(b))
}

// Clamp limits v to the inclusive range [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
