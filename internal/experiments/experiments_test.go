package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestSeriesSort(t *testing.T) {
	s := Series{Name: "x"}
	s.Append(3, 30)
	s.Append(1, 10)
	s.Append(2, 20)
	s.Sort()
	if s.X[0] != 1 || s.X[1] != 2 || s.X[2] != 3 {
		t.Errorf("X not sorted: %v", s.X)
	}
	if s.Y[0] != 10 || s.Y[1] != 20 || s.Y[2] != 30 {
		t.Errorf("Y not permuted with X: %v", s.Y)
	}
}

func TestSeriesExtremes(t *testing.T) {
	s := Series{}
	if x, y := s.YMax(); x != 0 || y != 0 {
		t.Error("empty YMax should be zero")
	}
	s.Append(1, 5)
	s.Append(2, 9)
	s.Append(3, 2)
	if x, y := s.YMax(); x != 2 || y != 9 {
		t.Errorf("YMax = (%v,%v)", x, y)
	}
}

func TestComparisonRelErr(t *testing.T) {
	c := Comparison{Paper: 10, Measured: 12}
	if got := c.RelErr(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("RelErr = %v, want 0.2", got)
	}
	c = Comparison{Paper: 0, Measured: 1}
	if got := c.RelErr(); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("RelErr with zero paper value = %v, want finite", got)
	}
}

func TestRenderHelpers(t *testing.T) {
	var sb strings.Builder
	renderSeries(&sb, "t", []Series{{Name: "s", X: []float64{1}, Y: []float64{2}}})
	renderComparisons(&sb, "t", []Comparison{{Name: "v", Paper: 1, Measured: 1.1}})
	renderTable(&sb, "t", []string{"a", "b"}, [][]string{{"1", "2"}})
	out := sb.String()
	for _, want := range []string{"== t ==", "-- s", "rel.err", "10.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

func TestSaturationPoint(t *testing.T) {
	s := Series{}
	for _, p := range []struct{ x, y float64 }{
		{5, 1}, {10, 5}, {15, 9}, {20, 9.8}, {25, 10},
	} {
		s.Append(p.x, p.y)
	}
	// First point within 5% of the max (10) is x=20 (9.8 >= 9.5).
	if got := saturationPoint(s, 0.05); got != 20 {
		t.Errorf("saturationPoint = %v, want 20", got)
	}
	if got := saturationPoint(Series{}, 0.05); got != 0 {
		t.Errorf("empty series = %v, want 0", got)
	}
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	want := []string{"ablation-radio",
		"ext-contention", "ext-interference", "ext-lpl", "ext-mobility",
		"fig1", "fig10", "fig11", "fig12", "fig13", "fig15",
		"fig16", "fig17", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "table2", "table4"}
	if len(names) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(names), len(want), names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("registry[%d] = %s, want %s", i, names[i], n)
		}
	}
}

func TestRunAllRendersEveryExperiment(t *testing.T) {
	// End-to-end harness check: every registered experiment runs and
	// renders at a tiny scale without errors.
	var sb strings.Builder
	if err := RunAll(Options{Packets: 60, Seed: 2}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range Names() {
		if name == "fig1" {
			continue // alias of table4, skipped by RunAll
		}
		if !strings.Contains(out, "######## "+name+" ########") {
			t.Errorf("RunAll output missing section %s", name)
		}
	}
}
