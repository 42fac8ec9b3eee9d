package sweep

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"wsnlink/internal/models"
	"wsnlink/internal/phy"
	"wsnlink/internal/stack"
)

func smallSpace() stack.Space {
	return stack.Space{
		DistancesM:    []float64{10, 35},
		TxPowers:      []phy.PowerLevel{7, 31},
		MaxTries:      []int{1, 3},
		RetryDelays:   []float64{0.03},
		QueueCaps:     []int{30},
		PktIntervals:  []float64{0.05},
		PayloadsBytes: []int{20, 110},
	}
}

func TestRunSpace(t *testing.T) {
	rows, err := RunSpace(context.Background(), smallSpace(), RunOptions{Packets: 150, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != smallSpace().Size() {
		t.Fatalf("rows = %d, want %d", len(rows), smallSpace().Size())
	}
	// Rows come back in space order.
	for i, cfg := range smallSpace().All() {
		if rows[i].Config != cfg {
			t.Fatalf("row %d out of order: %v != %v", i, rows[i].Config, cfg)
		}
	}
	// Every row carries data.
	for _, r := range rows {
		if r.Report.Generated != 150 {
			t.Errorf("config %v: generated %d", r.Config, r.Report.Generated)
		}
	}
}

func TestRunSpaceRejectsInvalid(t *testing.T) {
	s := smallSpace()
	s.PayloadsBytes = []int{0}
	if _, err := RunSpace(context.Background(), s, RunOptions{}); err == nil {
		t.Error("invalid space should error")
	}
	if _, err := RunConfigs(context.Background(), nil, RunOptions{}); err == nil {
		t.Error("empty configs should error")
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	cfgs := smallSpace().All()
	opts := func(workers int) RunOptions {
		return RunOptions{Packets: 120, BaseSeed: 7, Workers: workers}
	}
	seq, err := RunConfigs(context.Background(), cfgs, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunConfigs(context.Background(), cfgs, opts(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i].Report != par[i].Report {
			t.Fatalf("row %d differs between 1 and 8 workers", i)
		}
	}
}

func TestRunProgressCounter(t *testing.T) {
	var prog Progress
	_, err := RunConfigs(context.Background(), smallSpace().All(), RunOptions{
		Packets:  50,
		Progress: &prog,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Snapshot().Done; got != int64(smallSpace().Size()) {
		t.Errorf("Progress.Done = %d, want %d", got, smallSpace().Size())
	}
}

func TestRunOptionsValidation(t *testing.T) {
	cfgs := smallSpace().All()
	if _, err := RunConfigs(context.Background(), cfgs, RunOptions{Packets: -1}); err == nil {
		t.Error("negative Packets should error")
	}
	if _, err := RunConfigs(context.Background(), cfgs, RunOptions{Workers: -2}); err == nil {
		t.Error("negative Workers should error")
	}
	if _, err := RunConfigs(context.Background(), cfgs, RunOptions{Resume: true}); err == nil {
		t.Error("Resume without Checkpoint should error")
	}
}

func TestConfigSeedsDistinct(t *testing.T) {
	opts := RunOptions{BaseSeed: 42}
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		s := opts.seedFor(i)
		if seen[s] {
			t.Fatalf("duplicate seed at index %d", i)
		}
		seen[s] = true
	}
	// Under CRN pairing every configuration shares the index-0 seed.
	opts.CRN = true
	for i := 0; i < 100; i++ {
		if opts.seedFor(i) != opts.seedFor(0) {
			t.Fatalf("CRN seed differs at index %d", i)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	rows, err := RunSpace(context.Background(), smallSpace(), RunOptions{Packets: 100, BaseSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rows) {
		t.Fatalf("round trip rows = %d, want %d", len(back), len(rows))
	}
	for i := range rows {
		if rows[i].Config != back[i].Config {
			t.Errorf("row %d config mismatch", i)
		}
		if rows[i].Seed != back[i].Seed || rows[i].Packets != back[i].Packets {
			t.Errorf("row %d metadata mismatch", i)
		}
		a, b := rows[i].Report, back[i].Report
		if math.Abs(a.GoodputKbps-b.GoodputKbps) > 1e-9 ||
			math.Abs(a.PER-b.PER) > 1e-9 ||
			math.Abs(a.EnergyPerBitMicroJ-b.EnergyPerBitMicroJ) > 1e-9 ||
			a.Generated != b.Generated {
			t.Errorf("row %d report mismatch:\n%+v\n%+v", i, a, b)
		}
	}
}

func TestReadCSVRejectsBadHeader(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("not,a,valid,header\n")); err == nil {
		t.Error("bad header should error")
	}
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty input should error")
	}
}

func TestReadCSVRejectsBadField(t *testing.T) {
	var buf bytes.Buffer
	rows, err := RunConfigs(context.Background(), []stack.Config{{
		DistanceM: 10, TxPower: 31, MaxTries: 1, QueueCap: 1,
		PktInterval: 0.05, PayloadBytes: 20,
	}}, RunOptions{Packets: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	corrupted := strings.Replace(buf.String(), "10", "ten", 1)
	if _, err := ReadCSV(strings.NewReader(corrupted)); err == nil {
		t.Error("non-numeric field should error")
	}
}

func TestToObservations(t *testing.T) {
	rows, err := RunSpace(context.Background(), smallSpace(), RunOptions{Packets: 200, BaseSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	obs := ToObservations(rows)
	if len(obs) != len(rows) {
		t.Fatalf("observations = %d, want %d", len(obs), len(rows))
	}
	for i, o := range obs {
		if o.PayloadBytes != rows[i].Config.PayloadBytes ||
			o.MaxTries != rows[i].Config.MaxTries {
			t.Errorf("observation %d config fields mismatch", i)
		}
	}
}

func TestSweepCalibrationPipeline(t *testing.T) {
	// End-to-end: sweep a payload×power grid at a fixed distance, then
	// calibrate the PER model from the dataset and compare with the
	// generating constants (the paper's Eq. 3 values baked into the
	// calibrated radio model).
	space := stack.Space{
		DistancesM:    []float64{35},
		TxPowers:      []phy.PowerLevel{7, 11, 15, 19, 23, 27, 31},
		MaxTries:      []int{1, 3},
		RetryDelays:   []float64{0},
		QueueCaps:     []int{1},
		PktIntervals:  []float64{0.05},
		PayloadsBytes: []int{5, 35, 65, 95, 110},
	}
	rows, err := RunSpace(context.Background(), space, RunOptions{Packets: 1500, BaseSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	res, err := models.Calibrate(ToObservations(rows))
	if err != nil {
		t.Fatal(err)
	}
	// The PER the sender observes includes ACK losses, so alpha comes out
	// slightly above the data-only 0.0128; beta must be close.
	if res.PERFit.Beta > -0.10 || res.PERFit.Beta < -0.20 {
		t.Errorf("calibrated beta = %v, want near -0.15", res.PERFit.Beta)
	}
	if res.PERFit.Alpha < 0.008 || res.PERFit.Alpha > 0.025 {
		t.Errorf("calibrated alpha = %v, want near 0.0128", res.PERFit.Alpha)
	}
}
