package estimator

import (
	"math"
	"math/rand/v2"
	"testing"

	"wsnlink/internal/models"
)

func TestNewEWMAValidation(t *testing.T) {
	for _, alpha := range []float64{0, -0.5, 1.5} {
		if _, err := NewEWMA(alpha); err == nil {
			t.Errorf("alpha %v should be rejected", alpha)
		}
	}
	if _, err := NewEWMA(1); err != nil {
		t.Errorf("alpha 1 is legal: %v", err)
	}
}

func TestEWMAPrimesOnFirstSample(t *testing.T) {
	e, err := NewEWMA(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Primed() {
		t.Error("fresh estimator should not be primed")
	}
	if got := e.Update(10); got != 10 {
		t.Errorf("first sample = %v, want 10", got)
	}
	if !e.Primed() || e.Value() != 10 {
		t.Error("priming broken")
	}
	e.Reset()
	if e.Primed() || e.Value() != 0 {
		t.Error("Reset broken")
	}
}

func TestEWMAConvergence(t *testing.T) {
	e, _ := NewEWMA(0.2)
	e.Update(0)
	for i := 0; i < 100; i++ {
		e.Update(5)
	}
	if math.Abs(e.Value()-5) > 1e-6 {
		t.Errorf("EWMA did not converge: %v", e.Value())
	}
}

func TestEWMASmoothing(t *testing.T) {
	// A single outlier moves a small-alpha estimate only slightly.
	e, _ := NewEWMA(0.05)
	e.Update(10)
	e.Update(100)
	if e.Value() > 15 {
		t.Errorf("outlier moved estimate to %v", e.Value())
	}
}

func TestRetunerDefaults(t *testing.T) {
	r, err := NewRetuner(models.Paper(), RetunerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p, l := r.Current()
	if p != 31 || l != 114 {
		t.Errorf("initial config = %v/%v", p, l)
	}
	if _, err := NewRetuner(models.Paper(), RetunerConfig{DeadbandDB: -1}); err == nil {
		t.Error("negative deadband should error")
	}
}

func TestRetunerAdaptsToGoodLink(t *testing.T) {
	// Feed a strong, stable link: the retuner should drop to a low power
	// level once the estimate settles, then hold.
	r, err := NewRetuner(models.Paper(), RetunerConfig{
		Alpha: 0.3, DeadbandDB: 2, CooldownSamples: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		p, _ := r.Current()
		// True channel: SNR 40 dB at max power; reading is at the
		// current power level.
		r.Observe(40 + p.DBm() - 0)
	}
	p, _ := r.Current()
	if p != 3 {
		t.Errorf("power on a strong link = %v, want 3", p)
	}
	if r.Retunes() == 0 {
		t.Error("retuner never acted")
	}
}

func TestRetunerCooldownLimitsThrashing(t *testing.T) {
	// A wildly oscillating channel: the cooldown bounds the retune rate.
	r, err := NewRetuner(models.Paper(), RetunerConfig{
		Alpha: 1, DeadbandDB: 1, CooldownSamples: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	const n = 500
	for i := 0; i < n; i++ {
		p, _ := r.Current()
		snrRef := 10 + rng.Float64()*20
		r.Observe(snrRef + p.DBm() - 0)
	}
	if max := n / 10; r.Retunes() > max {
		t.Errorf("retunes = %d, cooldown should cap at %d", r.Retunes(), max)
	}
}

func TestRetunerDeadbandHolds(t *testing.T) {
	// Small wobble inside the dead band must not trigger re-tunes after
	// the initial calibration.
	r, err := NewRetuner(models.Paper(), RetunerConfig{
		Alpha: 0.5, DeadbandDB: 3, CooldownSamples: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		p, _ := r.Current()
		wobble := 0.5 * math.Sin(float64(i)/5)
		r.Observe(25 + wobble + p.DBm() - 0)
	}
	if r.Retunes() > 1 {
		t.Errorf("retunes = %d, want at most the initial calibration", r.Retunes())
	}
}

func TestRetunerEvaluate(t *testing.T) {
	r, err := NewRetuner(models.Paper(), RetunerConfig{CooldownSamples: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p, _ := r.Current()
		r.Observe(20 + p.DBm())
	}
	ev, err := r.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if ev.GoodputKbps <= 0 {
		t.Errorf("evaluation empty: %+v", ev)
	}
}
