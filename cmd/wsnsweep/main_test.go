package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wsnlink/internal/sweep"
)

func TestRunWritesDataset(t *testing.T) {
	// One distance keeps the sweep at 7680 configs — still too many for a
	// unit test at default packet counts, so use the smallest scale.
	// Instead, verify via stdout mode with a single distance and tiny
	// packet count, checking row count and CSV parseability.
	out := filepath.Join(t.TempDir(), "ds.csv")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-out", out, "-distances", "35", "-packets", "5",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := sweep.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7680 {
		t.Errorf("rows = %d, want 7680 (one distance)", len(rows))
	}
	if !strings.Contains(stderr.String(), "wrote 7680 rows") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

func TestRunStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-out", "-", "-distances", "35", "-packets", "2"},
		&stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sweep.ReadCSV(strings.NewReader(stdout.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7680 {
		t.Errorf("rows = %d", len(rows))
	}
}

// interruptAfterRow arms the CLI's row gate at row at and returns a
// context that is canceled once a run parks there: a SIGINT that lands
// after exactly that row, however fast the host.
func interruptAfterRow(t *testing.T, at int) context.Context {
	t.Helper()
	gate := sweep.NewRowGate(at)
	rowGate = gate
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() {
		cancel()
		rowGate = nil
	})
	go func() {
		select {
		case <-gate.Parked():
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx
}

// TestRunInterruptAndResume simulates the SIGINT-and-restart workflow: a
// checkpointed sweep is canceled mid-run (the CLI wires SIGINT to context
// cancellation, so canceling the context exercises the same path), then
// resumed; the final CSV must be byte-identical to an uninterrupted run.
func TestRunInterruptAndResume(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.csv")
	part := filepath.Join(dir, "part.csv")
	ck := filepath.Join(dir, "part.ckpt")
	args := func(extra ...string) []string {
		return append([]string{"-distances", "35", "-packets", "2"}, extra...)
	}

	var discard bytes.Buffer
	if err := run(context.Background(), args("-out", full), &discard, &discard); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel once row 300 is written.
	err := run(interruptAfterRow(t, 300), args("-out", part, "-checkpoint", ck), &discard, &discard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if !strings.Contains(discard.String(), "continue with -resume") {
		t.Errorf("stderr should point at -resume: %q", discard.String())
	}
	loaded, err := sweep.LoadCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Done != 300 {
		t.Fatalf("checkpoint Done = %d, want the 300-row prefix before the interrupt", loaded.Done)
	}

	// Simulate a torn trailing row from a harder crash: append garbage
	// that resume must discard because it is past the checkpoint.
	f, err := os.OpenFile(part, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("35,31,5,0.1"); err != nil {
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
		t.Fatal("resumed dataset differs from uninterrupted run")
	}
}

func TestRunResumeRequiresFileOutput(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-out", "-", "-resume"}, &buf, &buf)
	if err == nil {
		t.Error("-resume with stdout should error")
	}
}

func TestRunResumeMissingCheckpoint(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-out", filepath.Join(dir, "ds.csv"), "-resume", "-distances", "35",
	}, &buf, &buf)
	if err == nil {
		t.Error("resume without an existing checkpoint should error")
	}
}

func TestRunBadDistance(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-distances", "abc"}, &buf, &buf); err == nil {
		t.Error("bad distance should error")
	}
}

func TestRunBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-bogus"}, &buf, &buf); err == nil {
		t.Error("unknown flag should error")
	}
}
