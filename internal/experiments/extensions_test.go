package experiments

import (
	"slices"
	"strings"
	"testing"
)

func TestExtInterference(t *testing.T) {
	r, err := RunExtInterference(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Goodput must fall and PER rise monotonically-ish with duty cycle:
	// compare the endpoints.
	g := r.GoodputVsDuty
	if g.Len() < 3 {
		t.Fatal("too few duty-cycle points")
	}
	if g.Y[g.Len()-1] >= g.Y[0] {
		t.Errorf("goodput should fall with interference: %v", g.Y)
	}
	p := r.PERVsDuty
	if p.Y[p.Len()-1] <= p.Y[0] {
		t.Errorf("PER should rise with interference: %v", p.Y)
	}
	// Heavy interference shifts the optimal payload downward.
	if r.JammedOptimalPayload >= r.CleanOptimalPayload {
		t.Errorf("jammed optimal payload %d should be below clean %d",
			r.JammedOptimalPayload, r.CleanOptimalPayload)
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "optimal payload") {
		t.Error("render incomplete")
	}
}

func TestExtLPL(t *testing.T) {
	r, err := RunExtLPL(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.EnergyVsWake) != 4 {
		t.Fatalf("series = %d", len(r.EnergyVsWake))
	}
	// Optimal wake interval shrinks with message rate.
	if r.OptimalWake[10] >= r.OptimalWake[0.02] {
		t.Errorf("optimal wake should shrink with rate: %v", r.OptimalWake)
	}
	if r.AlwaysOnAdvantage < 10 {
		t.Errorf("LPL advantage at 0.02 msg/s = %vx, want large", r.AlwaysOnAdvantage)
	}
}

func TestExtMobility(t *testing.T) {
	r, err := RunExtMobility(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The walk spans near and far: SNR range must be wide.
	_, ymax := r.SNRAlongWalk.YMax()
	ymin := slices.Min(r.SNRAlongWalk.Y)
	if ymax-ymin < 15 {
		t.Errorf("SNR swing along walk = %v dB, want wide", ymax-ymin)
	}
	// Adaptive re-tuning saves energy without giving up delivery.
	if r.AdaptiveEnergy >= r.StaticEnergy {
		t.Errorf("adaptive energy %v should be below static %v",
			r.AdaptiveEnergy, r.StaticEnergy)
	}
	if r.AdaptiveDelivery < r.StaticDelivery-0.05 {
		t.Errorf("adaptive delivery %v gave up too much vs %v",
			r.AdaptiveDelivery, r.StaticDelivery)
	}
}

func TestRegistryIncludesExtensions(t *testing.T) {
	reg := Registry()
	for _, name := range []string{"ext-interference", "ext-lpl", "ext-mobility"} {
		if _, ok := reg[name]; !ok {
			t.Errorf("registry missing %s", name)
		}
	}
}
