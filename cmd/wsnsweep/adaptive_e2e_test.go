package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wsnlink/internal/obs"
	"wsnlink/internal/sweep"
)

// adaptiveArgs is the small exploration grid the CLI tests share: 720
// configurations (one distance, three power levels, two payloads) under an
// explicit 24-evaluation budget.
func adaptiveArgs(extra ...string) []string {
	return append([]string{
		"-adaptive", "-distances", "35", "-powers", "3,7,11", "-payloads", "20,110",
		"-packets", "5", "-budget", "24", "-adaptive-initial", "12", "-round-size", "6",
	}, extra...)
}

// TestRunAdaptiveWritesDatasetAndManifest: the -adaptive path writes a
// budget-bounded dataset, reports the exploration on stderr, embeds the
// adaptive summary in the manifest, and is deterministic across runs.
func TestRunAdaptiveWritesDatasetAndManifest(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "ds.csv")
	man := filepath.Join(dir, "ds.csv.manifest.json")
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), adaptiveArgs("-out", out), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sweep.ReadCSV(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 12 || len(rows) > 24 {
		t.Fatalf("dataset has %d rows, want between the seed design (12) and the budget (24)", len(rows))
	}
	if !strings.Contains(stderr.String(), "adaptively exploring") ||
		!strings.Contains(stderr.String(), "explored ") {
		t.Errorf("stderr misses the exploration report: %q", stderr.String())
	}

	m, err := obs.ReadManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Adaptive) == 0 {
		t.Fatal("manifest has no adaptive block")
	}
	var blk struct {
		GridSize    int     `json:"grid_size"`
		Evaluations int     `json:"evaluations"`
		Rounds      int     `json:"rounds"`
		FrontSize   int     `json:"front_size"`
		Hypervolume float64 `json:"hypervolume"`
	}
	if err := json.Unmarshal(m.Adaptive, &blk); err != nil {
		t.Fatalf("adaptive block: %v", err)
	}
	if blk.GridSize != 720 {
		t.Errorf("grid_size = %d, want 720", blk.GridSize)
	}
	if blk.Evaluations != len(rows) {
		t.Errorf("evaluations = %d, dataset has %d rows", blk.Evaluations, len(rows))
	}
	if blk.Rounds == 0 || blk.FrontSize == 0 || !(blk.Hypervolume > 0) {
		t.Errorf("degenerate adaptive block: %+v", blk)
	}
	if m.Rows != len(rows) {
		t.Errorf("manifest rows = %d, want %d", m.Rows, len(rows))
	}

	// Determinism: a second identical run reproduces the dataset exactly.
	out2 := filepath.Join(dir, "ds2.csv")
	if err := run(context.Background(), adaptiveArgs("-out", out2, "-manifest", "none"),
		&stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("repeated adaptive run produced a different dataset")
	}
}

// TestRunAdaptiveInterruptAndResume: the SIGINT-and-restart workflow for an
// adaptive campaign — the resumed exploration must replay the checkpointed
// prefix through the selection and land on a dataset byte-identical to an
// uninterrupted run.
func TestRunAdaptiveInterruptAndResume(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.csv")
	part := filepath.Join(dir, "part.csv")
	ck := filepath.Join(dir, "part.ckpt")
	slow := func(extra ...string) []string {
		a := adaptiveArgs(extra...)
		for i, s := range a {
			if s == "5" && a[i-1] == "-packets" {
				a[i] = "20000"
			}
		}
		return append(a, "-workers", "1", "-manifest", "none")
	}

	var discard bytes.Buffer
	if err := run(context.Background(), slow("-out", full), &discard, &discard); err != nil {
		t.Fatal(err)
	}

	// Interrupt once row 15 is written: inside the first acquisition round
	// (the seed design is rows 0-11, rounds are 6 rows), so the resume
	// replays a cut round.
	err := run(interruptAfterRow(t, 15), slow("-out", part, "-checkpoint", ck), &discard, &discard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	loaded, err := sweep.LoadCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Done != 15 {
		t.Fatalf("checkpoint Done = %d, want the 15-row prefix before the interrupt", loaded.Done)
	}

	var stderr bytes.Buffer
	if err := run(context.Background(), slow("-out", part, "-checkpoint", ck, "-resume"),
		&discard, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "resuming after 15") {
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
		t.Fatal("resumed adaptive dataset differs from uninterrupted run")
	}
}

// TestRunAdaptiveFlagValidation: the CLI-level guard rails.
func TestRunAdaptiveFlagValidation(t *testing.T) {
	cases := map[string][]string{
		"knobs-without-adaptive": {"-budget", "8", "-out", "-", "-distances", "35", "-packets", "2"},
		"scenario":               {"-adaptive", "-scenario", "star", "-out", "-", "-distances", "35", "-packets", "2"},
		"trace-out":              {"-adaptive", "-trace-out", "x.json", "-out", "-", "-distances", "35", "-packets", "2"},
		"bad-strategy":           {"-adaptive", "-strategy", "random", "-out", "-", "-distances", "35", "-packets", "2"},
		"bad-tolerance":          {"-adaptive", "-tolerance", "1.5", "-out", "-", "-distances", "35", "-packets", "2"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(context.Background(), args, &buf, &buf); err == nil {
				t.Fatal("invalid flag combination accepted")
			}
		})
	}
}
