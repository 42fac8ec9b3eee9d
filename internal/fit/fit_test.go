package fit

import (
	"math"
	"math/rand/v2"
	"testing"
)

// synthSamples generates samples from y = alpha*l*exp(beta*s) with optional
// multiplicative noise, over the payload/SNR grid the sweep produces.
func synthSamples(alpha, beta, noise float64, rng *rand.Rand) []Sample {
	var out []Sample
	for _, l := range []float64{5, 20, 35, 50, 65, 80, 95, 110} {
		for s := 2.0; s <= 30; s += 1 {
			y := alpha * l * math.Exp(beta*s)
			if noise > 0 {
				y *= 1 + noise*(rng.Float64()*2-1)
			}
			out = append(out, Sample{LD: l, SNR: s, Y: y})
		}
	}
	return out
}

func TestFitExpExactRecovery(t *testing.T) {
	tests := []struct {
		name        string
		alpha, beta float64
	}{
		{"paper PER constants", 0.0128, -0.15},
		{"paper Ntries constants", 0.02, -0.18},
		{"paper radio-loss constants", 0.011, -0.145},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			samples := synthSamples(tt.alpha, tt.beta, 0, nil)
			m, err := FitExp(samples, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(m.Alpha-tt.alpha)/tt.alpha > 1e-4 {
				t.Errorf("alpha = %v, want %v", m.Alpha, tt.alpha)
			}
			if math.Abs(m.Beta-tt.beta)/math.Abs(tt.beta) > 1e-4 {
				t.Errorf("beta = %v, want %v", m.Beta, tt.beta)
			}
			if m.RMSE > 1e-6 {
				t.Errorf("RMSE = %v, want ~0 for noiseless data", m.RMSE)
			}
		})
	}
}

func TestFitExpNoisyRecovery(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	samples := synthSamples(0.0128, -0.15, 0.2, rng)
	m, err := FitExp(samples, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Alpha-0.0128)/0.0128 > 0.15 {
		t.Errorf("alpha = %v, want within 15%% of 0.0128", m.Alpha)
	}
	if math.Abs(m.Beta-(-0.15))/0.15 > 0.15 {
		t.Errorf("beta = %v, want within 15%% of -0.15", m.Beta)
	}
}

func TestFitExpLogLinearOnly(t *testing.T) {
	samples := synthSamples(0.02, -0.18, 0, nil)
	m, err := FitExp(samples, Options{MaxIter: -1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Alpha-0.02)/0.02 > 1e-6 {
		t.Errorf("log-linear alpha = %v, want 0.02", m.Alpha)
	}
}

func TestFitExpHandlesZeros(t *testing.T) {
	// High-SNR configurations commonly observe exactly zero losses.
	samples := synthSamples(0.0128, -0.15, 0, nil)
	for i := range samples {
		if samples[i].SNR > 25 {
			samples[i].Y = 0
		}
	}
	m, err := FitExp(samples, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Beta >= 0 {
		t.Errorf("beta = %v, want negative despite zero-flooring", m.Beta)
	}
}

func TestFitExpSkipsNonPositivePayload(t *testing.T) {
	samples := synthSamples(0.0128, -0.15, 0, nil)
	samples = append(samples, Sample{LD: 0, SNR: 10, Y: 5}, Sample{LD: -3, SNR: 10, Y: 5})
	m, err := FitExp(samples, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Alpha-0.0128)/0.0128 > 1e-3 {
		t.Errorf("alpha = %v, want 0.0128 (bad samples skipped)", m.Alpha)
	}
}

func TestFitExpTooFew(t *testing.T) {
	if _, err := FitExp([]Sample{{LD: 10, SNR: 5, Y: 0.1}}, Options{}); err != ErrTooFewSamples {
		t.Errorf("err = %v, want ErrTooFewSamples", err)
	}
	if _, err := FitExp(nil, Options{}); err != ErrTooFewSamples {
		t.Errorf("err = %v, want ErrTooFewSamples", err)
	}
}

func TestExpModelEval(t *testing.T) {
	m := ExpModel{Alpha: 0.0128, Beta: -0.15}
	// The paper: PER at lD=114, SNR=19 is about 0.084.
	got := m.Eval(114, 19)
	if math.Abs(got-0.0844) > 0.002 {
		t.Errorf("Eval(114, 19) = %v, want ~0.084", got)
	}
}

func TestExpModelMonotonicity(t *testing.T) {
	m := ExpModel{Alpha: 0.0128, Beta: -0.15}
	// PER must increase with payload and decrease with SNR.
	for s := 2.0; s < 30; s++ {
		if m.Eval(110, s) <= m.Eval(10, s) {
			t.Fatalf("Eval not increasing in lD at snr=%v", s)
		}
	}
	for l := 5.0; l <= 114; l += 10 {
		if m.Eval(l, 5) <= m.Eval(l, 25) {
			t.Fatalf("Eval not decreasing in SNR at lD=%v", l)
		}
	}
}
