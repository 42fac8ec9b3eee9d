package sweep

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"wsnlink/internal/sim"
	"wsnlink/internal/stack"
)

// TestStreamBatchSizesRowIdentical is the engine-level equivalence proof:
// the same campaign run with batch sizes 1, 7 and 64 (and varying worker
// counts) produces identical rows — and the identical CSV bytes — because
// per-configuration seeds depend only on (BaseSeed, index), never on how
// configurations are blocked onto workers.
func TestStreamBatchSizesRowIdentical(t *testing.T) {
	cfgs := smallSpace().All()
	run := func(batch, workers int) []Row {
		t.Helper()
		rows, err := RunConfigs(context.Background(), cfgs, RunOptions{
			Packets: 60, BaseSeed: 9, BatchSize: batch, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	ref := run(1, 1)
	var refCSV bytes.Buffer
	if err := WriteCSV(&refCSV, ref); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ batch, workers int }{
		{1, 4}, {7, 1}, {7, 3}, {64, 2}, {64, 8},
	} {
		rows := run(tc.batch, tc.workers)
		if !reflect.DeepEqual(rows, ref) {
			t.Fatalf("batch=%d workers=%d: rows differ from batch=1 workers=1",
				tc.batch, tc.workers)
		}
		var csv bytes.Buffer
		if err := WriteCSV(&csv, rows); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csv.Bytes(), refCSV.Bytes()) {
			t.Fatalf("batch=%d workers=%d: CSV bytes differ", tc.batch, tc.workers)
		}
	}
}

// TestBatchResumeMidBlock interrupts a blocked campaign mid-block and
// resumes it with a different batch size: the checkpoint records a row
// prefix, not a block boundary, and the resumed remainder must splice into
// a dataset identical to an uninterrupted run.
func TestBatchResumeMidBlock(t *testing.T) {
	cfgs := smallSpace().All() // 24 configs; BatchSize 7 puts boundaries at 7/14/21
	ckPath := t.TempDir() + "/batch.ckpt"
	base := RunOptions{Packets: 40, BaseSeed: 5, Workers: 2, BatchSize: 7}

	ref, err := RunConfigs(context.Background(), cfgs, base)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel at the third emitted row — strictly inside the first block of
	// 7. The sink returns the context's error, as the service and CLI row
	// sinks do once canceled, so row 2 is written but not checkpointed
	// however far ahead the workers ran.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := base
	interrupted.Checkpoint = ckPath
	var prefix []Row
	err = StreamConfigs(ctx, cfgs, interrupted, func(r Row) error {
		prefix = append(prefix, r)
		if len(prefix) == 3 {
			cancel()
			return ctx.Err()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want wrapped context.Canceled", err)
	}
	ck, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Done != 2 {
		t.Fatalf("checkpoint Done = %d, want the 2 rows before the interrupted one", ck.Done)
	}
	prefix = prefix[:ck.Done] // rows the checkpoint recorded as durable

	// Resume with a different batch size (and worker count): the remainder
	// must complete the reference dataset exactly.
	resumed := base
	resumed.Checkpoint = ckPath
	resumed.Resume = true
	resumed.BatchSize = 64
	resumed.Workers = 4
	rest, err := RunConfigs(context.Background(), cfgs, resumed)
	if err != nil {
		t.Fatal(err)
	}
	got := append(append([]Row(nil), prefix...), rest...)
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("prefix(%d)+resumed(%d) rows differ from uninterrupted run (%d rows)",
			len(prefix), len(rest), len(ref))
	}
}

// TestFingerprintIgnoresBatchSize is the identity property: BatchSize and
// Workers are pure execution knobs, so every combination hashes to the same
// campaign fingerprint, while the knobs that do change row content
// (Engine, CRN, BaseSeed, Packets) all shift it.
func TestFingerprintIgnoresBatchSize(t *testing.T) {
	cfgs := smallSpace().All()
	base := RunOptions{Packets: 80, BaseSeed: 3}
	fp := campaignFingerprint(cfgs, base)
	for _, batch := range []int{0, 1, 2, 7, 64, 4096} {
		for _, workers := range []int{0, 1, 8} {
			o := base
			o.BatchSize = batch
			o.Workers = workers
			if got := campaignFingerprint(cfgs, o); got != fp {
				t.Fatalf("fingerprint changed with BatchSize=%d Workers=%d", batch, workers)
			}
		}
	}
	for name, mutate := range map[string]func(*RunOptions){
		"Engine":   func(o *RunOptions) { o.Engine = sim.EngineDES },
		"CRN":      func(o *RunOptions) { o.CRN = true },
		"BaseSeed": func(o *RunOptions) { o.BaseSeed++ },
		"Packets":  func(o *RunOptions) { o.Packets++ },
	} {
		o := base
		mutate(&o)
		if campaignFingerprint(cfgs, o) == fp {
			t.Errorf("fingerprint ignores %s", name)
		}
	}
}

// TestCRNPairsSeeds: under CRN every row carries the same seed — the
// index-0 derived seed — and identical configurations produce identical
// rows, which is what makes cross-configuration contrasts paired.
func TestCRNPairsSeeds(t *testing.T) {
	cfg := smallSpace().All()[0]
	cfgs := []stack.Config{cfg, cfg, cfg}
	rows, err := RunConfigs(context.Background(), cfgs, RunOptions{
		Packets: 50, BaseSeed: 21, CRN: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := sim.DeriveSeed(21, 0)
	for i, r := range rows {
		if r.Seed != want {
			t.Errorf("row %d seed = %d, want shared seed %d", i, r.Seed, want)
		}
		if r.Report != rows[0].Report {
			t.Errorf("row %d differs from row 0 under CRN with identical configs", i)
		}
	}
}

// TestCRNReducesContrastVariance quantifies why CRN exists: for a
// cross-configuration contrast (here ΔPER between two payload sizes on the
// same link) the paired estimator's replica-to-replica variance must be
// below the independent-seeds estimator's, so a paired campaign reaches the
// same confidence with fewer packets. The run is fully seeded, so the
// inequality is deterministic.
func TestCRNReducesContrastVariance(t *testing.T) {
	a := stack.Config{DistanceM: 35, TxPower: 7, MaxTries: 3, RetryDelay: 0.030,
		QueueCap: 30, PktInterval: 0.050, PayloadBytes: 110}
	b := a
	b.PayloadBytes = 20
	cfgs := []stack.Config{a, b}

	const replicas = 40
	contrast := func(crn bool) []float64 {
		t.Helper()
		deltas := make([]float64, replicas)
		for k := 0; k < replicas; k++ {
			rows, err := RunConfigs(context.Background(), cfgs, RunOptions{
				Packets: 150, BaseSeed: uint64(1000 + k), CRN: crn, Workers: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			deltas[k] = rows[0].Report.PER - rows[1].Report.PER
		}
		return deltas
	}
	variance := func(xs []float64) float64 {
		var mean float64
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		var v float64
		for _, x := range xs {
			v += (x - mean) * (x - mean)
		}
		return v / float64(len(xs)-1)
	}

	paired := variance(contrast(true))
	independent := variance(contrast(false))
	if paired >= independent {
		t.Fatalf("CRN pairing did not reduce contrast variance: paired %g >= independent %g",
			paired, independent)
	}
	t.Logf("contrast variance: paired %g vs independent %g (ratio %.2f)",
		paired, independent, paired/independent)
}
