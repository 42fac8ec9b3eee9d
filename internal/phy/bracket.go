package phy

import (
	"math"

	"wsnlink/internal/units"
)

// Bracket grid: SNR in [0, bracketMaxSNR) dB in steps of 1/bracketStepsPerDB.
const (
	bracketMaxSNR     = 128
	bracketStepsPerDB = 16
	bracketSteps      = bracketMaxSNR * bracketStepsPerDB
	// bracketMargin widens each tabulated exp(Beta·s) relatively. It covers
	// the rounding of Beta·SNR (≤ 19.2·2⁻⁵³ absolute on the grid), the sub-ulp
	// error of math.Exp and the table's own rounding, each ~1e-15.
	bracketMargin = 1e-9
)

// PowInt returns x^n for n ≥ 0 by binary exponentiation, the ACK success
// power (1−p_b)^bits of fusedAckPER. It agrees with math.Pow to within a few
// ulp, and for x ≥ 0 it is monotone in x: every step multiplies non-negative
// numbers, and rounding a product is monotone in its factors.
func PowInt(x float64, n int) float64 {
	r := 1.0
	for n > 0 {
		if n&1 == 1 {
			r *= x
		}
		x *= x
		n >>= 1
	}
	return r
}

// fusedDataPER is Calibrated.DataPER above the SNR floor, written over
// e = exp(Beta·SNR) and alphaPay = Alpha × payload bytes, so that the
// bracket can evaluate it at its bounds of e.
func fusedDataPER(alphaPay, e float64) float64 {
	return units.Clamp(alphaPay*e, 0, 1)
}

// fusedAckPER is Calibrated.AckPER above the SNR floor over
// e = exp(Beta·SNR), ackCoef = Alpha/8 and ackBits = 8 × AckBytes, with the
// power taken by PowInt instead of math.Pow.
func fusedAckPER(ackCoef float64, ackBits int, e float64) float64 {
	pb := units.Clamp(ackCoef*e, 0, 0.5)
	return 1 - PowInt(1-pb, ackBits)
}

// LossBracket decides the loss draws u ≥ fusedDataPER and u ≥ fusedAckPER
// without evaluating exp for almost every draw. It tabulates, for each grid
// cell [k/16, (k+1)/16) dB, bounds eLo ≤ exp(Beta·snr) ≤ eHi widened by
// bracketMargin, and the ACK loss at both bounds. Both fused expressions
// are monotone non-decreasing in e (products and clamps of non-negative
// numbers round monotonically), so the expression at eLo and eHi brackets
// the value at the exactly computed e. A draw outside the bracket is
// decided by the bracket; a draw inside it, or an SNR off the grid, takes
// the exact expression. Every decision therefore equals the exact one.
type LossBracket struct {
	beta, floor, ackCoef float64
	ackBits              int
	cells                [bracketSteps]bracketCell
}

type bracketCell struct {
	eHi, eLo     float64 // bounds of exp(Beta·snr) over the cell
	ackHi, ackLo float64 // fusedAckPER at eHi and eLo
}

// stockBracket is the table for NewCalibrated()'s constants, built once per
// process.
var stockBracket = newLossBracket(NewCalibrated())

// Bracket returns the process-wide loss bracket when c holds
// NewCalibrated()'s constants, and nil for any other model: those take the
// exact expressions.
func (c Calibrated) Bracket() *LossBracket {
	if c != NewCalibrated() {
		return nil
	}
	return stockBracket
}

func newLossBracket(c Calibrated) *LossBracket {
	ackBytes := c.AckBytes
	if ackBytes <= 0 {
		ackBytes = 11
	}
	b := &LossBracket{beta: c.Beta, floor: c.FloorSNR, ackCoef: c.Alpha / 8, ackBits: 8 * ackBytes}
	at := func(k int) float64 { return math.Exp(c.Beta * (float64(k) / bracketStepsPerDB)) }
	for k := range b.cells {
		e0, e1 := at(k), at(k+1)
		cell := &b.cells[k]
		cell.eHi = max(e0, e1) * (1 + bracketMargin)
		cell.eLo = min(e0, e1) * (1 - bracketMargin)
		cell.ackHi = fusedAckPER(b.ackCoef, b.ackBits, cell.eHi)
		cell.ackLo = fusedAckPER(b.ackCoef, b.ackBits, cell.eLo)
	}
	return b
}

// cell returns the grid cell holding snr, or nil off the grid (NaN and ±Inf
// included). snr·16 is exact, so k/16 ≤ snr < (k+1)/16 holds exactly.
func (b *LossBracket) cell(snr float64) *bracketCell {
	if !(snr >= 0 && snr < bracketMaxSNR) {
		return nil
	}
	return &b.cells[int(snr*bracketStepsPerDB)]
}

// DataOK reports whether a data frame survives the draw u at snr, that is
// u ≥ 1 at or below the SNR floor and u ≥ fusedDataPER(alphaPay,
// exp(Beta·snr)) above it. alphaPay is Alpha × payload bytes.
func (b *LossBracket) DataOK(u, snr, alphaPay float64) bool {
	if snr <= b.floor {
		return u >= 1
	}
	if c := b.cell(snr); c != nil {
		if u >= fusedDataPER(alphaPay, c.eHi) {
			return true
		}
		if u < fusedDataPER(alphaPay, c.eLo) {
			return false
		}
	}
	return u >= fusedDataPER(alphaPay, math.Exp(b.beta*snr))
}

// AckOK reports whether the ACK of a received frame survives the draw u at
// snr: u ≥ 1 at or below the SNR floor, u ≥ fusedAckPER above it.
func (b *LossBracket) AckOK(u, snr float64) bool {
	if snr <= b.floor {
		return u >= 1
	}
	if c := b.cell(snr); c != nil {
		if u >= c.ackHi {
			return true
		}
		if u < c.ackLo {
			return false
		}
	}
	return u >= fusedAckPER(b.ackCoef, b.ackBits, math.Exp(b.beta*snr))
}
