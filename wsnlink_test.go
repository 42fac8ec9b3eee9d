package wsnlink_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wsnlink"
)

// TestFacadeEndToEnd exercises the public API the way the README's
// quickstart does: simulate → measure → model → optimize.
func TestFacadeEndToEnd(t *testing.T) {
	cfg := wsnlink.Config{
		DistanceM:    20,
		TxPower:      19,
		MaxTries:     3,
		RetryDelay:   0.030,
		QueueCap:     30,
		PktInterval:  0.050,
		PayloadBytes: 80,
	}
	res, err := wsnlink.Simulate(context.Background(), cfg, wsnlink.SimOptions{Packets: 500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rep := wsnlink.Measure(res)
	if rep.Generated != 500 || rep.GoodputKbps <= 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}

	m := wsnlink.PaperModels()
	if per := m.PER.PER(cfg.PayloadBytes, rep.MeanSNR); per < 0 || per > 1 {
		t.Errorf("model PER out of range: %v", per)
	}
	if z := wsnlink.ClassifySNR(rep.MeanSNR); z.String() == "unknown" {
		t.Errorf("unclassified SNR %v", rep.MeanSNR)
	}

	ev := wsnlink.NewEvaluator(m, 23, 3)
	evals, err := ev.EvaluateAll(wsnlink.DefaultGrid().Candidates())
	if err != nil {
		t.Fatal(err)
	}
	best, err := wsnlink.EpsilonConstraint(evals, wsnlink.ObjectiveGoodput,
		[]wsnlink.Constraint{{Metric: wsnlink.ObjectiveEnergy, Bound: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if best.GoodputKbps <= 0 || best.UEngMicroJ > 0.5 {
		t.Errorf("optimizer returned %+v", best)
	}
	if front := wsnlink.ParetoFront(evals,
		[]wsnlink.Objective{wsnlink.ObjectiveEnergy, wsnlink.ObjectiveGoodput}); len(front) == 0 {
		t.Error("empty Pareto front")
	}
}

func TestFacadeSweepAndCalibrate(t *testing.T) {
	space := wsnlink.Space{
		DistancesM:    []float64{25, 35},
		TxPowers:      []wsnlink.PowerLevel{7, 15, 23, 31},
		MaxTries:      []int{1, 3},
		RetryDelays:   []float64{0},
		QueueCaps:     []int{1},
		PktIntervals:  []float64{0.05},
		PayloadsBytes: []int{20, 65, 110},
	}
	rows, err := wsnlink.Sweep(context.Background(), space, wsnlink.SweepOptions{Packets: 300})
	if err != nil {
		t.Fatal(err)
	}
	cal, err := wsnlink.Calibrate(wsnlink.Observations(rows))
	if err != nil {
		t.Fatal(err)
	}
	if cal.PERFit.Beta >= 0 {
		t.Errorf("calibrated PER beta = %v, want negative", cal.PERFit.Beta)
	}
	if wsnlink.DefaultSpace().Size() < 45000 {
		t.Error("default space should match the paper's ~50k scale")
	}
}

// TestFacadeSweepStreamCancelMidYield cancels a streaming sweep from
// inside its own yield callback: the error must be context.Canceled, and
// the rows seen before cancellation must be an exact in-order prefix of
// the uninterrupted campaign.
func TestFacadeSweepStreamCancelMidYield(t *testing.T) {
	space := wsnlink.Space{
		DistancesM:    []float64{25, 35},
		TxPowers:      []wsnlink.PowerLevel{7, 15, 23, 31},
		MaxTries:      []int{1, 3},
		RetryDelays:   []float64{0.03},
		QueueCaps:     []int{1},
		PktIntervals:  []float64{0.05},
		PayloadsBytes: []int{20, 110},
	}
	opts := wsnlink.SweepOptions{Packets: 60, BaseSeed: 11}
	all, err := wsnlink.Sweep(context.Background(), space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != space.Size() {
		t.Fatalf("reference run yielded %d rows, want %d", len(all), space.Size())
	}

	const stopAfter = 5
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []wsnlink.SweepRow
	err = wsnlink.SweepStream(ctx, space, opts, func(r wsnlink.SweepRow) error {
		got = append(got, r)
		if len(got) == stopAfter {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SweepStream after mid-yield cancel returned %v, want context.Canceled", err)
	}
	if len(got) < stopAfter || len(got) >= len(all) {
		t.Fatalf("got %d rows after canceling at row %d (campaign has %d)",
			len(got), stopAfter, len(all))
	}
	for i, r := range got {
		if r.Config != all[i].Config || r.Seed != all[i].Seed {
			t.Fatalf("row %d is not the campaign's row %d: %+v vs %+v",
				i, i, r.Config, all[i].Config)
		}
	}
}

// TestFacadeLoadSweepCheckpointErrors pins the failure modes callers
// branch on: a missing sidecar is os.ErrNotExist (first run, nothing to
// resume), while corrupt or foreign files fail loudly instead of silently
// resuming from index zero.
func TestFacadeLoadSweepCheckpointErrors(t *testing.T) {
	dir := t.TempDir()

	if _, err := wsnlink.LoadSweepCheckpoint(filepath.Join(dir, "absent.ckpt")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing sidecar: got %v, want os.ErrNotExist", err)
	}

	foreign := filepath.Join(dir, "foreign.ckpt")
	if err := os.WriteFile(foreign, []byte("distance,power,payload\n35,7,20\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := wsnlink.LoadSweepCheckpoint(foreign); err == nil || errors.Is(err, os.ErrNotExist) {
		t.Fatalf("foreign file: got %v, want a not-a-checkpoint error", err)
	}

	truncated := filepath.Join(dir, "truncated.ckpt")
	if err := os.WriteFile(truncated, []byte("wsnlink-checkpoint v1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := wsnlink.LoadSweepCheckpoint(truncated)
	if err == nil || !strings.Contains(err.Error(), "truncated header") {
		t.Fatalf("magic-only file: got %v, want truncated-header error", err)
	}

	badHeader := filepath.Join(dir, "badheader.ckpt")
	if err := os.WriteFile(badHeader, []byte("wsnlink-checkpoint v1\nfingerprint zz configs x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := wsnlink.LoadSweepCheckpoint(badHeader); err == nil || !strings.Contains(err.Error(), "bad header") {
		t.Fatalf("corrupt header: got %v, want bad-header error", err)
	}
}

// TestFacadeLifecycleTracing drives the tracing surface end to end through
// the public API: trace a small campaign, check span determinism against
// PacketSpanID, and export both formats.
func TestFacadeLifecycleTracing(t *testing.T) {
	space := wsnlink.Space{
		DistancesM:    []float64{35},
		TxPowers:      []wsnlink.PowerLevel{7, 31},
		MaxTries:      []int{3},
		RetryDelays:   []float64{0.03},
		QueueCaps:     []int{30},
		PktIntervals:  []float64{0.05},
		PayloadsBytes: []int{110},
	}
	tr := wsnlink.NewTracer(1 << 14)
	opts := wsnlink.SweepOptions{Packets: 40, BaseSeed: 3, Tracer: tr}
	if _, err := wsnlink.Sweep(context.Background(), space, opts); err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	if len(events) == 0 {
		t.Fatal("no trace events collected")
	}
	fp, err := wsnlink.SweepFingerprint(space, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if want := wsnlink.PacketSpanID(fp, int(ev.Config), int(ev.Packet)); ev.Span != want {
			t.Fatalf("span %#x != PacketSpanID %#x", ev.Span, want)
		}
	}
	var chrome, ndjson bytes.Buffer
	if err := wsnlink.WriteTraceEvents(&chrome, "t.trace.json", events); err != nil {
		t.Fatal(err)
	}
	if err := wsnlink.WriteTraceEvents(&ndjson, "t.ndjson", events); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(chrome.Bytes()) {
		t.Error("Chrome export is not valid JSON")
	}
	if !bytes.Contains(ndjson.Bytes(), []byte(`"kind":"tx_attempt"`)) {
		t.Error("NDJSON export missing tx_attempt events")
	}
}

// TestFacadeScenarioSweep runs a star campaign through the public scenario
// surface and pins the exactness anchor the validation suite relies on: a
// one-node star is the single link, row for row.
func TestFacadeScenarioSweep(t *testing.T) {
	space := wsnlink.Space{
		DistancesM:    []float64{25},
		TxPowers:      []wsnlink.PowerLevel{15, 31},
		MaxTries:      []int{3},
		RetryDelays:   []float64{0.03},
		QueueCaps:     []int{5},
		PktIntervals:  []float64{0.05},
		PayloadsBytes: []int{50},
	}
	opts := wsnlink.SweepOptions{Packets: 200, BaseSeed: 9, Engine: wsnlink.EngineDES}

	rows, err := wsnlink.ScenarioSweep(context.Background(), wsnlink.StarScenario(3), space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != space.Size() {
		t.Fatalf("rows = %d, want %d", len(rows), space.Size())
	}
	for _, r := range rows {
		if r.Scenario != wsnlink.ScenarioStar || r.Net.Nodes != 3 {
			t.Fatalf("row = %+v, want 3-node star", r)
		}
	}

	// One-node star ≡ link: identical derived reports under the same seeds.
	single, err := wsnlink.ScenarioSweep(context.Background(), wsnlink.StarScenario(1), space, opts)
	if err != nil {
		t.Fatal(err)
	}
	link, err := wsnlink.Sweep(context.Background(), space, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range link {
		if single[i].Report != link[i].Report {
			t.Fatalf("config %d: 1-node star report %+v != link report %+v",
				i, single[i].Report, link[i].Report)
		}
	}

	// Scenario fingerprints live in their own namespace: even the link
	// kind must not alias the legacy campaign fingerprint.
	linkFP, err := wsnlink.SweepFingerprint(space, opts)
	if err != nil {
		t.Fatal(err)
	}
	scnFP, err := wsnlink.ScenarioSweepFingerprint(wsnlink.ScenarioSpec{}, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if linkFP == scnFP {
		t.Error("scenario fingerprint namespace collides with the link namespace")
	}
	var uk *wsnlink.ScenarioUnknownKindError
	_, err = wsnlink.ScenarioSweepFingerprint(wsnlink.ScenarioSpec{Kind: "mesh"}, space, opts)
	if !errors.As(err, &uk) || uk.Name != "mesh" {
		t.Errorf("unknown kind error = %v, want *ScenarioUnknownKindError", err)
	}
}
