package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"wsnlink/internal/obs"
	"wsnlink/internal/sweep"
)

// tinyGrid keeps e2e runs at 120 configurations (1 distance x 1 power x
// 1 payload over the default tries/delays/queues/intervals).
func tinyGrid(extra ...string) []string {
	return append([]string{
		"-distances", "35", "-powers", "31", "-payloads", "110", "-packets", "5",
	}, extra...)
}

// TestRunWritesManifestAndMetrics is the observability e2e: a file-backed
// run must leave behind a manifest whose identity fields agree with the
// checkpoint sidecar and the dataset, plus a telemetry snapshot consistent
// with the campaign scale.
func TestRunWritesManifestAndMetrics(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "ds.csv")
	ck := filepath.Join(dir, "ds.ckpt")
	metrics := filepath.Join(dir, "metrics.json")
	var discard bytes.Buffer
	err := run(context.Background(), tinyGrid(
		"-out", out, "-checkpoint", ck, "-metrics-out", metrics,
	), &discard, &discard)
	if err != nil {
		t.Fatal(err)
	}

	man, err := obs.ReadManifest(out + ".manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	if man.Tool != "wsnsweep" || man.Schema != obs.ManifestSchema {
		t.Errorf("tool/schema = %q/%q", man.Tool, man.Schema)
	}
	if man.Configs != 120 || man.Rows != 120 {
		t.Errorf("configs/rows = %d/%d, want 120/120", man.Configs, man.Rows)
	}
	if man.BaseSeed != 1 || man.Packets != 5 || !man.Fast {
		t.Errorf("identity fields = seed %d packets %d fast %v", man.BaseSeed, man.Packets, man.Fast)
	}
	if man.Resumed || man.ResumedFrom != 0 {
		t.Errorf("fresh run marked resumed: %+v", man)
	}
	if man.WallTimeS <= 0 {
		t.Errorf("wall time = %g, want > 0", man.WallTimeS)
	}

	// The manifest fingerprint must be the checkpoint sidecar's, verbatim.
	loaded, err := sweep.LoadCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	if want := obs.FormatFingerprint(loaded.Fingerprint); man.Fingerprint != want {
		t.Errorf("manifest fingerprint %q != checkpoint fingerprint %q", man.Fingerprint, want)
	}
	if loaded.Done != man.Rows {
		t.Errorf("checkpoint Done = %d, manifest rows = %d", loaded.Done, man.Rows)
	}

	// The row count must also match the dataset itself.
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := sweep.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != man.Rows {
		t.Errorf("dataset has %d rows, manifest says %d", len(rows), man.Rows)
	}

	// Axes reconstruct the swept space.
	axes := map[string]obs.Axis{}
	for _, a := range man.Axes {
		axes[a.Name] = a
	}
	for name, want := range map[string]string{
		"distance_m": "35", "tx_power": "31", "payload_bytes": "110",
	} {
		if a := axes[name]; a.Count != 1 || a.Values != want {
			t.Errorf("axis %s = %+v, want 1 value %q", name, a, want)
		}
	}
	if a := axes["max_tries"]; a.Count != 5 {
		t.Errorf("max_tries axis = %+v, want the 5 default values", a)
	}

	// The embedded telemetry snapshot accounts for the whole campaign.
	if man.Metrics == nil {
		t.Fatal("manifest has no metrics snapshot")
	}
	if man.Metrics.ConfigsDone != 120 || man.Metrics.RowsEmitted != 120 {
		t.Errorf("snapshot configs/rows = %d/%d, want 120/120",
			man.Metrics.ConfigsDone, man.Metrics.RowsEmitted)
	}
	if want := int64(120 * 5); man.Metrics.Packets != want {
		t.Errorf("snapshot packets = %d, want %d", man.Metrics.Packets, want)
	}
	if got := man.Metrics.Stage("simulate").Count; got != 120 {
		t.Errorf("simulate stage count = %d, want 120", got)
	}
	if got := man.Metrics.Stage("checkpoint").Count; got != 120 {
		t.Errorf("checkpoint stage count = %d, want 120", got)
	}
	if man.Metrics.StageSeconds("sim") <= 0 {
		t.Error("simulated pipeline seconds should be positive")
	}

	// -metrics-out dumps a parseable standalone snapshot.
	var snap obs.Snapshot
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ConfigsDone != 120 {
		t.Errorf("metrics-out configs = %d, want 120", snap.ConfigsDone)
	}
}

// TestRunManifestSurvivesInterruptAndResume kills a campaign mid-run and
// resumes it: the resumed run's manifest must carry the same campaign
// identity as an uninterrupted run's, the row counts must agree with the
// checkpoint sidecar, and the telemetry dump must appear even for the
// interrupted half.
func TestRunManifestSurvivesInterruptAndResume(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.csv")
	part := filepath.Join(dir, "part.csv")
	ck := filepath.Join(dir, "part.ckpt")
	partMetrics := filepath.Join(dir, "part-metrics.json")

	var discard bytes.Buffer
	if err := run(context.Background(), tinyGrid("-out", full), &discard, &discard); err != nil {
		t.Fatal(err)
	}
	fullMan, err := obs.ReadManifest(full + ".manifest.json")
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel once row 20 is written. -batch 1 with two
	// workers bounds the configurations simulated ahead of the parked row
	// (2×workers×batch), so the telemetry snapshot stays partial; the
	// resume below runs at the default batch size and must still produce a
	// byte-identical dataset (batch size is not identity).
	err = run(interruptAfterRow(t, 20), tinyGrid(
		"-out", part, "-checkpoint", ck, "-metrics-out", partMetrics,
		"-batch", "1", "-workers", "2",
	), &discard, &discard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	// No manifest for an unfinished campaign — it would claim completeness —
	// but the telemetry snapshot is written exactly then.
	if _, err := os.Stat(part + ".manifest.json"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("interrupted run left a manifest (stat err = %v)", err)
	}
	data, err := os.ReadFile(partMetrics)
	if err != nil {
		t.Fatalf("interrupted run should still dump -metrics-out: %v", err)
	}
	var partial obs.Snapshot
	if err := json.Unmarshal(data, &partial); err != nil {
		t.Fatal(err)
	}
	if partial.ConfigsDone == 0 || partial.ConfigsDone >= 120 {
		t.Errorf("interrupted snapshot configs = %d, want a partial count", partial.ConfigsDone)
	}

	if err := run(context.Background(), tinyGrid(
		"-out", part, "-checkpoint", ck, "-resume",
	), &discard, &discard); err != nil {
		t.Fatal(err)
	}

	// Byte-identical dataset, and a manifest that matches the full run on
	// every identity field.
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(part)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("resumed dataset differs from uninterrupted run")
	}
	man, err := obs.ReadManifest(part + ".manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	if man.Fingerprint != fullMan.Fingerprint {
		t.Errorf("fingerprint %q != uninterrupted run's %q", man.Fingerprint, fullMan.Fingerprint)
	}
	if man.Configs != fullMan.Configs || man.Rows != fullMan.Rows ||
		man.BaseSeed != fullMan.BaseSeed || man.Packets != fullMan.Packets ||
		man.Fast != fullMan.Fast {
		t.Errorf("identity fields differ: resumed %+v vs full %+v", man, fullMan)
	}
	if !man.Resumed || man.ResumedFrom != 20 {
		t.Errorf("resumed=%v resumedFrom=%d, want a resume from row 20", man.Resumed, man.ResumedFrom)
	}
	loaded, err := sweep.LoadCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Done != man.Rows {
		t.Errorf("checkpoint Done = %d, manifest rows = %d", loaded.Done, man.Rows)
	}
	if want := obs.FormatFingerprint(loaded.Fingerprint); man.Fingerprint != want {
		t.Errorf("manifest fingerprint %q != checkpoint %q", man.Fingerprint, want)
	}

	// And the manifest is byte-stable: encoding the identity fields of the
	// resumed manifest with the volatile fields zeroed must equal the same
	// projection of the uninterrupted manifest.
	if !bytes.Equal(identityBytes(t, man), identityBytes(t, fullMan)) {
		t.Error("manifest identity projection differs between resumed and full runs")
	}
}

// identityBytes encodes a manifest with its volatile fields (wall time,
// telemetry, resume provenance) cleared, leaving only the campaign identity.
func identityBytes(t *testing.T, m obs.Manifest) []byte {
	t.Helper()
	m.WallTimeS = 0
	m.Metrics = nil
	m.Resumed = false
	m.ResumedFrom = 0
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunManifestNone checks the opt-out spelling.
func TestRunManifestNone(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "ds.csv")
	var discard bytes.Buffer
	err := run(context.Background(), tinyGrid("-out", out, "-manifest", "none"),
		&discard, &discard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out + ".manifest.json"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("-manifest none still wrote a manifest (stat err = %v)", err)
	}
}
