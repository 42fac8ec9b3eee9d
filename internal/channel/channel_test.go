package channel

import (
	"math"
	"math/rand/v2"
	"testing"

	"wsnlink/internal/phy"
	"wsnlink/internal/stats"
)

func newRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

func TestPathLossDB(t *testing.T) {
	p := DefaultParams()
	// At the reference distance the loss is the reference loss.
	if got := p.PathLossDB(1); got != p.RefLossDB {
		t.Errorf("PathLossDB(1) = %v, want %v", got, p.RefLossDB)
	}
	// One decade of distance adds 10·n dB.
	got := p.PathLossDB(10) - p.PathLossDB(1)
	if math.Abs(got-10*2.19) > 1e-9 {
		t.Errorf("decade loss = %v, want %v", got, 10*2.19)
	}
	// Below the reference distance the loss is clamped.
	if got := p.PathLossDB(0.1); got != p.RefLossDB {
		t.Errorf("PathLossDB(0.1) = %v, want clamp to %v", got, p.RefLossDB)
	}
}

func TestMeanSNRAnchorsFromPaper(t *testing.T) {
	// The channel constants were chosen so that the 35 m link reproduces
	// the paper's observations: P_tx = 11 yields SNR near the 17 dB
	// energy-optimal threshold (Fig 7/9), and P_tx = 3 approaches the
	// sensitivity (Fig 4).
	p := DefaultParams()
	snr11 := p.MeanSNR(phy.PowerLevel(11).DBm(), 35)
	if snr11 < 15 || snr11 > 19 {
		t.Errorf("mean SNR at 35 m, Ptx=11: %v, want ~17", snr11)
	}
	rssi3 := p.MeanRSSI(phy.PowerLevel(3).DBm(), 35)
	if rssi3 > phy.SensitivityDBm+5 {
		t.Errorf("RSSI at 35 m, Ptx=3: %v, want near sensitivity %v",
			rssi3, phy.SensitivityDBm)
	}
	// And the closest link works even at minimum power.
	snrClose := p.MeanSNR(phy.PowerLevel(3).DBm(), 5)
	if snrClose < 15 {
		t.Errorf("mean SNR at 5 m, Ptx=3: %v, want comfortably positive", snrClose)
	}
}

func TestNewLinkRejectsBadDistance(t *testing.T) {
	if _, err := NewLink(DefaultParams(), 0, newRNG(1)); err != ErrBadDistance {
		t.Errorf("err = %v, want ErrBadDistance", err)
	}
	if _, err := NewLink(DefaultParams(), -5, newRNG(1)); err != ErrBadDistance {
		t.Errorf("err = %v, want ErrBadDistance", err)
	}
}

func TestLinkDeterminism(t *testing.T) {
	run := func() []float64 {
		l, err := NewLink(DefaultParams(), 20, newRNG(42))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 0, 100)
		for i := 0; i < 100; i++ {
			l.Advance(0.03)
			out = append(out, l.SNR(0))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at sample %d: %v != %v", i, a[i], b[i])
		}
	}
}

func TestLinkRSSIStatistics(t *testing.T) {
	// Across many independent links, mean RSSI should track the path-loss
	// model and the deviation should be near the shadowing sigma.
	p := DefaultParams()
	p.HumanShadowRatePerS = 0 // isolate log-normal shadowing
	const dist = 15
	var rssis []float64
	for seed := uint64(0); seed < 400; seed++ {
		l, err := NewLink(p, dist, newRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		rssis = append(rssis, l.RSSI(0))
	}
	mean := stats.Mean(rssis)
	want := p.MeanRSSI(0, dist)
	if math.Abs(mean-want) > 0.6 {
		t.Errorf("mean RSSI = %v, want ~%v", mean, want)
	}
	sd := stats.StdDev(rssis)
	wantSD := math.Hypot(p.ShadowingSigmaDB, p.TemporalSigmaDB)
	if math.Abs(sd-wantSD) > 0.8 {
		t.Errorf("RSSI stddev = %v, want ~%v", sd, wantSD)
	}
}

func TestLinkTemporalVariationAt35m(t *testing.T) {
	// The paper observes larger RSSI deviation at 35 m due to human
	// shadowing. Compare within-experiment deviation at 10 m vs 35 m.
	devAt := func(dist float64) float64 {
		p := DefaultParams()
		l, err := NewLink(p, dist, newRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		var xs []float64
		for i := 0; i < 20000; i++ {
			l.Advance(0.05)
			xs = append(xs, l.RSSI(0))
		}
		return stats.StdDev(xs)
	}
	near, far := devAt(10), devAt(35)
	if far <= near {
		t.Errorf("deviation at 35 m (%v) should exceed 10 m (%v)", far, near)
	}
}

func TestHumanShadowingOnlyBeyondThreshold(t *testing.T) {
	p := DefaultParams()
	l, err := NewLink(p, 10, newRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50000; i++ {
		l.Advance(0.1)
		if l.shadowActive {
			t.Fatal("human shadowing should not trigger at 10 m")
		}
	}
	l35, err := NewLink(p, 35, newRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	seen := false
	for i := 0; i < 50000 && !seen; i++ {
		l35.Advance(0.1)
		seen = l35.shadowActive
	}
	if !seen {
		t.Error("human shadowing never triggered at 35 m in 5000 s")
	}
}

func TestNoiseFloorDistribution(t *testing.T) {
	p := DefaultParams()
	l, err := NewLink(p, 10, newRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	var xs []float64
	for i := 0; i < 50000; i++ {
		xs = append(xs, l.NoiseFloorDBm())
	}
	mean := stats.Mean(xs)
	// Quiet component at −95.4 plus rare interference bumps keeps the
	// mean near the paper's −95 dBm.
	if mean < -96 || mean > -94 {
		t.Errorf("noise floor mean = %v, want ≈ −95", mean)
	}
	// The distribution must be right-skewed: more mass above the mode
	// tail than a symmetric Gaussian (interference bumps).
	p99, _ := stats.Percentile(xs, 99)
	p1, _ := stats.Percentile(xs, 1)
	med, _ := stats.Percentile(xs, 50)
	if (p99 - med) <= (med - p1) {
		t.Errorf("noise floor should be right-skewed: p1=%v med=%v p99=%v", p1, med, p99)
	}
}

func TestSNRVsConstantNoiseSNR(t *testing.T) {
	// Fig 5: using a constant −95 dBm noise floor misestimates the real
	// SNR. The two must differ sample-to-sample but agree on average.
	l, err := NewLink(DefaultParams(), 10, newRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	var diffs []float64
	for i := 0; i < 20000; i++ {
		l.Advance(0.03)
		real := l.SNR(0)
		constant := l.ConstantNoiseSNR(0)
		diffs = append(diffs, real-constant)
	}
	if stats.StdDev(diffs) < 0.3 {
		t.Error("real and constant-noise SNR should differ sample-to-sample")
	}
	if mean := stats.Mean(diffs); math.Abs(mean) > 0.5 {
		t.Errorf("mean SNR difference = %v, want near 0 (bias only from interference skew)", mean)
	}
}

func TestAdvanceIgnoresNonPositiveDt(t *testing.T) {
	l, err := NewLink(DefaultParams(), 10, newRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	before := l.Now()
	l.Advance(0)
	l.Advance(-1)
	if l.Now() != before {
		t.Error("Advance with non-positive dt must not move the clock")
	}
}

func TestRSSIClampedAtSensitivity(t *testing.T) {
	// A hopeless link (35 m, min power, deep shadowing) still reports an
	// RSSI no lower than just under the sensitivity, like the chip does.
	p := DefaultParams()
	for seed := uint64(0); seed < 50; seed++ {
		l, err := NewLink(p, 35, newRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		if got := l.RSSI(-25); got < phy.SensitivityDBm-3 {
			t.Fatalf("RSSI = %v below clamp", got)
		}
	}
}

func TestQuantize(t *testing.T) {
	tests := []struct{ in, want float64 }{
		{-77.4, -77},
		{-77.6, -78},
		{-120, -100},
		{5, 0},
	}
	for _, tt := range tests {
		if got := Quantize(tt.in); got != tt.want {
			t.Errorf("Quantize(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestLogNormalPathLossFitRecoversExponent(t *testing.T) {
	// Generate mean RSSI over the paper's distances and check that a
	// linear fit in log10(d) recovers n = 2.19 — the Fig 3 methodology.
	p := DefaultParams()
	var lx, ly []float64
	for _, d := range []float64{5, 10, 15, 20, 25, 30, 35} {
		lx = append(lx, 10*math.Log10(d))
		ly = append(ly, p.MeanRSSI(0, d))
	}
	fitRes, err := stats.LinearRegression(lx, ly)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(-fitRes.Slope-2.19) > 1e-9 {
		t.Errorf("recovered exponent = %v, want 2.19", -fitRes.Slope)
	}
}

func TestFadingCoherenceTimeMatchesTau(t *testing.T) {
	// The AR(1) fading state decays with correlation time tau: sampling
	// every dt seconds, the autocorrelation should drop below 1/e after
	// about tau/dt lags.
	p := DefaultParams()
	p.ShadowingSigmaDB = 0
	p.NoiseFloorSigmaDB = 0
	p.InterferenceProb = 0
	p.HumanShadowRatePerS = 0
	l, err := NewLink(p, 15, newRNG(31))
	if err != nil {
		t.Fatal(err)
	}
	const dt = 0.1
	xs := make([]float64, 0, 200000)
	for i := 0; i < 200000; i++ {
		l.Advance(dt)
		xs = append(xs, l.RSSI(0))
	}
	lag, err := coherenceLag(xs, 1/math.E, 400)
	if err != nil {
		t.Fatal(err)
	}
	wantLag := p.TemporalTauSeconds / dt // 20 lags
	if math.Abs(float64(lag)-wantLag) > wantLag/2 {
		t.Errorf("coherence lag = %d samples, want ≈ %.0f", lag, wantLag)
	}
}
