package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wsnlink/internal/obs"
	"wsnlink/internal/phy"
	"wsnlink/internal/scenario"
	"wsnlink/internal/serve"
	"wsnlink/internal/stack"
	"wsnlink/internal/sweep"
)

// starArgs pins the sweep to one distance/power/payload (120 configurations)
// so the contention DES stays unit-test fast.
func starArgs(extra ...string) []string {
	return append([]string{
		"-scenario", "star", "-nodes", "3",
		"-distances", "35", "-powers", "31", "-payloads", "110",
		"-packets", "5",
	}, extra...)
}

// starRefCSV renders the same campaign straight through the engine,
// producing the bytes a correct CLI run must emit.
func starRefCSV(t *testing.T) []byte {
	t.Helper()
	space := stack.DefaultSpace()
	space.DistancesM = []float64{35}
	space.TxPowers = []phy.PowerLevel{31}
	space.PayloadsBytes = []int{110}
	var buf bytes.Buffer
	enc := sweep.NewScenarioEncoder(&buf)
	if err := enc.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	err := sweep.StreamScenarios(context.Background(), scenario.StarSpec(3), space.All(),
		sweep.RunOptions{Packets: 5, BaseSeed: 1}, func(r scenario.Row) error {
			return enc.Encode(r)
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunStarScenarioDatasetAndManifest checks the local scenario path end
// to end: the CLI must write exactly the engine's scenario-schema bytes and
// a v3 manifest carrying the scenario fingerprint and parameter block.
func TestRunStarScenarioDatasetAndManifest(t *testing.T) {
	out := filepath.Join(t.TempDir(), "star.csv")
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), starArgs("-out", out), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if want := starRefCSV(t); !bytes.Equal(got, want) {
		t.Fatal("CLI dataset differs from a direct engine run")
	}
	rows, err := sweep.ReadScenarioCSV(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 120 {
		t.Fatalf("rows = %d, want 120", len(rows))
	}
	for _, r := range rows {
		if r.Scenario != scenario.KindStar {
			t.Fatalf("row scenario = %q", r.Scenario)
		}
	}

	man, err := obs.ReadManifest(out + ".manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	if man.Scenario != "star" {
		t.Errorf("manifest scenario = %q, want star", man.Scenario)
	}
	var params scenario.StarParams
	if err := json.Unmarshal(man.ScenarioParams, &params); err != nil {
		t.Fatalf("manifest scenario_params = %s: %v", man.ScenarioParams, err)
	}
	if params.Nodes != 3 {
		t.Errorf("manifest scenario_params nodes = %d, want 3", params.Nodes)
	}
	space := stack.DefaultSpace()
	space.DistancesM = []float64{35}
	space.TxPowers = []phy.PowerLevel{31}
	space.PayloadsBytes = []int{110}
	fp, err := sweep.ScenarioFingerprint(scenario.StarSpec(3), space.All(),
		sweep.RunOptions{Packets: 5, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if man.Fingerprint != obs.FormatFingerprint(fp) {
		t.Errorf("manifest fingerprint = %s, want %s", man.Fingerprint, obs.FormatFingerprint(fp))
	}
	if man.Rows != 120 || man.Configs != 120 {
		t.Errorf("manifest rows/configs = %d/%d, want 120/120", man.Rows, man.Configs)
	}
}

// TestRunLinkManifestRecordsScenarioKind pins the v3 manifest contract for
// legacy campaigns: kind "link", no parameter block, and the legacy link
// fingerprint (not the scenario-namespace hash).
func TestRunLinkManifestRecordsScenarioKind(t *testing.T) {
	out := filepath.Join(t.TempDir(), "link.csv")
	var discard bytes.Buffer
	err := run(context.Background(), []string{
		"-out", out, "-distances", "35", "-powers", "31", "-payloads", "110", "-packets", "2",
	}, &discard, &discard)
	if err != nil {
		t.Fatal(err)
	}
	man, err := obs.ReadManifest(out + ".manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	if man.Scenario != "link" {
		t.Errorf("manifest scenario = %q, want link", man.Scenario)
	}
	if len(man.ScenarioParams) != 0 {
		t.Errorf("link manifest should have no scenario_params, got %s", man.ScenarioParams)
	}
	space := stack.DefaultSpace()
	space.DistancesM = []float64{35}
	space.TxPowers = []phy.PowerLevel{31}
	space.PayloadsBytes = []int{110}
	fp := sweep.CampaignFingerprint(space.All(), sweep.RunOptions{Packets: 2, BaseSeed: 1})
	if man.Fingerprint != obs.FormatFingerprint(fp) {
		t.Errorf("manifest fingerprint = %s, want legacy %s", man.Fingerprint, obs.FormatFingerprint(fp))
	}
}

// TestRunScenarioInterruptAndResume is the kill-and-resume contract on the
// scenario schema: a star campaign canceled mid-run and resumed from its
// checkpoint must produce a dataset byte-identical to an uninterrupted run,
// even with a torn trailing row left by the crash.
func TestRunScenarioInterruptAndResume(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.csv")
	part := filepath.Join(dir, "part.csv")
	ck := filepath.Join(dir, "part.ckpt")
	// One distance, full remaining axes: 960 configurations of 3-node
	// contention DES — enough runway to cancel mid-campaign.
	args := func(extra ...string) []string {
		return append([]string{
			"-scenario", "star", "-nodes", "3",
			"-distances", "35", "-powers", "31", "-packets", "2",
		}, extra...)
	}

	var discard bytes.Buffer
	if err := run(context.Background(), args("-out", full), &discard, &discard); err != nil {
		t.Fatal(err)
	}

	err := run(interruptAfterRow(t, 100), args("-out", part, "-checkpoint", ck), &discard, &discard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	loaded, err := sweep.LoadCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Done != 100 {
		t.Fatalf("checkpoint Done = %d, want the 100-row prefix before the interrupt", loaded.Done)
	}

	// Torn trailing row: resume must truncate back to the checkpointed
	// prefix before appending.
	f, err := os.OpenFile(part, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("star,35,31,5,0.1"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var stderr bytes.Buffer
	err = run(context.Background(), args("-out", part, "-checkpoint", ck, "-resume"),
		&discard, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "resuming after") {
		t.Errorf("stderr = %q", stderr.String())
	}

	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(part)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("resumed scenario dataset differs from uninterrupted run")
	}
}

// TestRunRemoteStarScenario drives the -remote path against an in-process
// campaign service: the streamed NDJSON must land on disk as exactly the
// scenario-schema CSV a local run would write.
func TestRunRemoteStarScenario(t *testing.T) {
	srv, err := serve.Open(t.TempDir(), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Drain(ctx) //nolint:errcheck // best-effort test teardown
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	out := filepath.Join(t.TempDir(), "remote.csv")
	var stdout, stderr bytes.Buffer
	err = run(context.Background(), starArgs("-out", out, "-remote", ts.URL, "-manifest", "none"),
		&stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if want := starRefCSV(t); !bytes.Equal(got, want) {
		t.Fatal("remote scenario dataset differs from a direct engine run")
	}
	if !strings.Contains(stderr.String(), "wrote 120 rows") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

// TestRunScenarioFlagValidation: foreign parameter flags and unknown kinds
// must fail at flag resolution, before any simulation starts.
func TestRunScenarioFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-scenario", "lpl", "-nodes", "4"}, &buf, &buf)
	if err == nil || !strings.Contains(err.Error(), "star parameters") {
		t.Errorf("-scenario lpl -nodes 4: err = %v, want foreign-block rejection", err)
	}
	err = run(context.Background(), []string{"-scenario", "mesh"}, &buf, &buf)
	var uk *scenario.UnknownKindError
	if !errors.As(err, &uk) || uk.Name != "mesh" {
		t.Errorf("-scenario mesh: err = %v, want UnknownKindError", err)
	}
}
