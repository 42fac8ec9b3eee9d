package phy

import (
	"math"
	"testing"

	"wsnlink/internal/units"
)

// bracketModels are the constants the differential checks run under: the
// stock model (the only one the kernel brackets), one steep enough that
// both clamps engage (Alpha/8·e reaches 0.5 below ~2.7 dB), and one with a
// rising exponent and a raised floor.
var bracketModels = []Calibrated{
	NewCalibrated(),
	{Alpha: 6, Beta: -0.15, AckBytes: 11, FloorSNR: 0},
	{Alpha: 0.0004, Beta: 0.05, AckBytes: 3, FloorSNR: 2.5},
}

// testBrackets holds one table per bracketModels entry.
var testBrackets = func() []*LossBracket {
	bs := make([]*LossBracket, len(bracketModels))
	for m, c := range bracketModels {
		bs[m] = newLossBracket(c)
	}
	return bs
}()

// exactDataOK and exactAckOK are the batch kernel's loss comparisons
// written out before the bracket: PER 1 at or below the floor, otherwise
// the fused Eq 3 expressions over one exp(Beta·SNR).
func exactDataOK(c Calibrated, u, snr, alphaPay float64) bool {
	per := 1.0
	if !(snr <= c.FloorSNR) {
		per = units.Clamp(alphaPay*math.Exp(c.Beta*snr), 0, 1)
	}
	return u >= per
}

func exactAckOK(c Calibrated, u, snr float64) bool {
	per := 1.0
	if !(snr <= c.FloorSNR) {
		pb := units.Clamp(c.Alpha/8*math.Exp(c.Beta*snr), 0, 0.5)
		per = 1 - PowInt(1-pb, 8*c.AckBytes)
	}
	return u >= per
}

func checkBracket(t *testing.T, m int, u, snr float64, payload int) {
	t.Helper()
	c, b := bracketModels[m], testBrackets[m]
	alphaPay := c.Alpha * float64(payload)
	if got, want := b.DataOK(u, snr, alphaPay), exactDataOK(c, u, snr, alphaPay); got != want {
		t.Errorf("model %d DataOK(u=%v, snr=%v, payload=%d) = %v, exact %v", m, u, snr, payload, got, want)
	}
	if got, want := b.AckOK(u, snr), exactAckOK(c, u, snr); got != want {
		t.Errorf("model %d AckOK(u=%v, snr=%v) = %v, exact %v", m, u, snr, got, want)
	}
}

// edgeDraws returns, for one (model, snr, payload), the draws that sit on
// the decision boundaries: the exact PERs, the bracket's bounds, and their
// float neighbours.
func edgeDraws(m int, snr float64, payload int) []float64 {
	c, b := bracketModels[m], testBrackets[m]
	alphaPay := c.Alpha * float64(payload)
	var pts []float64
	if cell := b.cell(snr); cell != nil {
		pts = append(pts,
			fusedDataPER(alphaPay, cell.eHi), fusedDataPER(alphaPay, cell.eLo),
			cell.ackHi, cell.ackLo)
	}
	e := math.Exp(c.Beta * snr)
	pts = append(pts, fusedDataPER(alphaPay, e), fusedAckPER(b.ackCoef, b.ackBits, e), 0, 0.5, 1)
	var us []float64
	for _, p := range pts {
		us = append(us, p, math.Nextafter(p, math.Inf(-1)), math.Nextafter(p, math.Inf(1)))
	}
	return us
}

// edgeSNRs are the grid points k/16 around the SNR range the campaign sees
// and the table's ends, each with its float neighbours, plus the floor and
// the non-finite inputs.
func edgeSNRs() []float64 {
	var s []float64
	for _, k := range []int{0, 1, 2, 15, 16, 17, 40, 41, 160, 161, 300, 1000, bracketSteps - 1, bracketSteps} {
		g := float64(k) / bracketStepsPerDB
		s = append(s, g, math.Nextafter(g, math.Inf(-1)), math.Nextafter(g, math.Inf(1)), g+1.0/32)
	}
	return append(s, 2.5, math.Nextafter(2.5, 3), math.Copysign(0, -1), -3, 5e-324, 1e300,
		math.NaN(), math.Inf(1), math.Inf(-1))
}

// TestLossBracketEdges: on every boundary draw around the grid points, the
// table ends, the floor, the clamps and the non-finite inputs, the
// bracketed decisions equal the exact ones.
func TestLossBracketEdges(t *testing.T) {
	for m := range bracketModels {
		for _, snr := range edgeSNRs() {
			for _, payload := range []int{1, 20, 110} {
				for _, u := range edgeDraws(m, snr, payload) {
					checkBracket(t, m, u, snr, payload)
				}
			}
		}
	}
}

// TestLossBracketDecidesMostDraws: the bounds hold the exact value and sit
// within ~1 % of it, so a uniform draw lands inside a bracket (and pays for
// exp) about once per hundred lost packets.
func TestLossBracketDecidesMostDraws(t *testing.T) {
	c := NewCalibrated()
	b := c.Bracket()
	for k := 0; k < bracketSteps; k += 7 {
		snr := (float64(k) + 0.5) / bracketStepsPerDB
		cell := b.cell(snr)
		e := math.Exp(c.Beta * snr)
		if !(cell.eLo < e && e < cell.eHi) {
			t.Fatalf("snr %v: exp %v outside [%v, %v]", snr, e, cell.eLo, cell.eHi)
		}
		if w := (cell.eHi - cell.eLo) / e; w > 0.0095 {
			t.Errorf("snr %v: bracket width %v of exp, want < 0.95 %%", snr, w)
		}
		ack := c.AckPER(snr)
		if !(cell.ackLo <= ack && ack <= cell.ackHi) || (cell.ackHi-cell.ackLo) > 0.0095*ack {
			t.Errorf("snr %v: ACK PER %v against bracket [%v, %v]", snr, ack, cell.ackLo, cell.ackHi)
		}
	}
}

// TestBracketOnlyForStockConstants: the process-wide table serves the stock
// model alone; any other constants take the exact path.
func TestBracketOnlyForStockConstants(t *testing.T) {
	if NewCalibrated().Bracket() == nil {
		t.Fatal("stock model has no bracket")
	}
	if NewCalibrated().Bracket() != NewCalibrated().Bracket() {
		t.Error("stock bracket rebuilt per call")
	}
	for _, c := range bracketModels[1:] {
		if c.Bracket() != nil {
			t.Errorf("%+v: bracket for non-stock constants", c)
		}
	}
	c := NewCalibrated()
	c.AckBytes = 0 // same ACK length by default, still not the stock value
	if c.Bracket() != nil {
		t.Error("AckBytes 0: bracket for non-stock constants")
	}
}

// FuzzLossBracket: over any (model, u, snr, payload) the bracketed data and
// ACK decisions equal the exact comparisons.
func FuzzLossBracket(f *testing.F) {
	for m := range bracketModels {
		for _, snr := range edgeSNRs() {
			for _, payload := range []int{1, 110} {
				for _, u := range edgeDraws(m, snr, payload) {
					f.Add(uint8(m), u, snr, payload)
				}
			}
		}
	}
	f.Add(uint8(0), 0.5, 10.0, 0)
	f.Add(uint8(0), 0.5, 10.0, -5)
	f.Add(uint8(0), math.NaN(), 10.0, 20)
	f.Fuzz(func(t *testing.T, m uint8, u, snr float64, payload int) {
		checkBracket(t, int(m)%len(bracketModels), u, snr, payload)
	})
}
