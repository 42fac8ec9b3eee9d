package sweep

import (
	"bytes"
	"context"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsnlink/internal/phy"
	"wsnlink/internal/scenario"
	"wsnlink/internal/stack"
)

// streamSpace is a 1200-configuration space — big enough to exercise the
// acceptance scenario (a campaign of >= 1000 configurations interrupted and
// resumed) while staying fast at tiny packet counts.
func streamSpace() stack.Space {
	return stack.Space{
		DistancesM:    []float64{5, 10, 15, 20, 25},
		TxPowers:      []phy.PowerLevel{3, 7, 11, 15, 19, 23, 27, 31},
		MaxTries:      []int{1, 3, 5},
		RetryDelays:   []float64{0.03},
		QueueCaps:     []int{10},
		PktIntervals:  []float64{0.05, 0.1},
		PayloadsBytes: []int{20, 40, 60, 80, 110},
	}
}

func TestStreamMatchesBatch(t *testing.T) {
	opts := RunOptions{Packets: 80, BaseSeed: 3}
	batch, err := RunSpace(context.Background(), smallSpace(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []Row
	err = StreamSpace(context.Background(), smallSpace(), opts, func(r Row) error {
		streamed = append(streamed, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(batch) {
		t.Fatalf("streamed %d rows, batch %d", len(streamed), len(batch))
	}
	for i := range batch {
		if streamed[i] != batch[i] {
			t.Fatalf("row %d differs between stream and batch", i)
		}
	}
}

func TestStreamCancellationMidSweep(t *testing.T) {
	space := streamSpace()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	err := StreamSpace(ctx, space, RunOptions{Packets: 60, BaseSeed: 1},
		func(Row) error {
			emitted++
			if emitted == 5 {
				cancel()
			}
			return nil
		})
	if err == nil {
		t.Fatal("canceled sweep should error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if emitted < 5 || emitted >= space.Size() {
		t.Fatalf("emitted %d rows of %d, want a partial prefix", emitted, space.Size())
	}
}

func TestStreamAlreadyCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := StreamSpace(ctx, smallSpace(), RunOptions{Packets: 50}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestStreamWindowBounded(t *testing.T) {
	const workers = 4
	maxPending := 0
	opts := RunOptions{
		Packets: 3, BaseSeed: 2, Workers: workers, BatchSize: 1,
		pendingGauge: func(n int) { // called from the emitter goroutine only
			if n > maxPending {
				maxPending = n
			}
		},
	}
	if err := StreamSpace(context.Background(), streamSpace(), opts, nil); err != nil {
		t.Fatal(err)
	}
	if maxPending == 0 {
		t.Fatal("pending gauge never observed")
	}
	if maxPending > 2*workers {
		t.Errorf("reorder buffer reached %d rows, want <= %d (O(workers))",
			maxPending, 2*workers)
	}
}

// TestStreamWindowBoundedBatch: with block dispatch the reorder buffer is
// bounded by the token window, 2×Workers×BatchSize, independent of the
// campaign size.
func TestStreamWindowBoundedBatch(t *testing.T) {
	const workers, batch = 4, 8
	maxPending := 0
	opts := RunOptions{
		Packets: 3, BaseSeed: 2, Workers: workers, BatchSize: batch,
		pendingGauge: func(n int) {
			if n > maxPending {
				maxPending = n
			}
		},
	}
	if err := StreamSpace(context.Background(), streamSpace(), opts, nil); err != nil {
		t.Fatal(err)
	}
	if maxPending == 0 {
		t.Fatal("pending gauge never observed")
	}
	if maxPending > 2*workers*batch {
		t.Errorf("reorder buffer reached %d rows, want <= %d (O(workers×batch))",
			maxPending, 2*workers*batch)
	}
}

// TestStreamAllocsIndependentOfRows: the emitter reorders rows in a ring
// of slots, so a campaign's allocations do not grow with its row count.
// Blocks of 4 on two workers complete out of order and exercise the
// reorder.
func TestStreamAllocsIndependentOfRows(t *testing.T) {
	all := stack.DefaultSpace().All()
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := StreamConfigs(context.Background(), all[:n],
				RunOptions{Packets: 2, Workers: 2, BatchSize: 4}, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	const small, large = 64, 1024
	a, b := allocs(small), allocs(large)
	if grow := b - a; grow > (large-small)/16 {
		t.Errorf("allocs: %v for %d rows, %v for %d rows; grew %v, want well under one per row",
			a, small, b, large, grow)
	}
}

// invalidAt returns the small-space configurations with the given indices
// made invalid (zero payload fails stack validation inside the simulator).
func invalidAt(t *testing.T, idxs ...int) []stack.Config {
	t.Helper()
	cfgs := smallSpace().All()
	for _, i := range idxs {
		cfgs[i].PayloadBytes = 0
	}
	return cfgs
}

func TestFailFastReturnsCompletedPrefix(t *testing.T) {
	const bad = 5
	cfgs := invalidAt(t, bad)
	rows, err := RunConfigs(context.Background(), cfgs, RunOptions{Packets: 40})
	if err == nil {
		t.Fatal("invalid config should error")
	}
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T %v, want *ConfigError", err, err)
	}
	if ce.Index != bad {
		t.Errorf("failing index = %d, want %d", ce.Index, bad)
	}
	if len(rows) != bad {
		t.Errorf("completed rows = %d, want the %d-row prefix", len(rows), bad)
	}
	for i, r := range rows {
		if r.Config != cfgs[i] {
			t.Errorf("row %d out of order", i)
		}
	}
}

func TestContinueOnErrorCollectsFailures(t *testing.T) {
	cfgs := invalidAt(t, 2, 6)
	rows, err := RunConfigs(context.Background(), cfgs, RunOptions{
		Packets: 40, ErrorPolicy: ContinueOnError,
	})
	var camp *CampaignError
	if !errors.As(err, &camp) {
		t.Fatalf("err = %T %v, want *CampaignError", err, err)
	}
	if len(camp.Failures) != 2 ||
		camp.Failures[0].Index != 2 || camp.Failures[1].Index != 6 {
		t.Fatalf("failures = %+v, want indices 2 and 6", camp.Failures)
	}
	if len(rows) != len(cfgs)-2 {
		t.Errorf("completed rows = %d, want %d", len(rows), len(cfgs)-2)
	}
	if !strings.Contains(err.Error(), "2 configurations failed") {
		t.Errorf("error text: %v", err)
	}
}

// TestStreamCheckpointResumeByteIdentical is the kill-and-resume acceptance
// scenario: a >= 1000-configuration campaign is canceled mid-flight with
// checkpointing enabled, then resumed; the concatenated CSV must be
// byte-identical to an uninterrupted run with the same BaseSeed.
func TestStreamCheckpointResumeByteIdentical(t *testing.T) {
	space := streamSpace()
	opts := RunOptions{Packets: 3, BaseSeed: 9}

	var ref bytes.Buffer
	refEnc := NewEncoder(&ref)
	if err := refEnc.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	err := StreamSpace(context.Background(), space, opts, func(r Row) error {
		return refEnc.Encode(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := refEnc.Flush(); err != nil {
		t.Fatal(err)
	}

	ckPath := filepath.Join(t.TempDir(), "sweep.ckpt")
	var out bytes.Buffer
	enc := NewEncoder(&out)
	if err := enc.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := opts
	interrupted.Checkpoint = ckPath
	interrupted.Workers = 4
	err = StreamSpace(ctx, space, interrupted, func(r Row) error {
		if err := enc.Encode(r); err != nil {
			return err
		}
		if err := enc.Flush(); err != nil {
			return err
		}
		if enc.Rows() == 400 {
			cancel()
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
	if ck.Done < 400 || ck.Done >= space.Size() {
		t.Fatalf("checkpoint Done = %d, want a partial prefix of %d", ck.Done, space.Size())
	}
	if ck.Done != enc.Rows() {
		t.Fatalf("checkpoint Done = %d but %d rows were encoded", ck.Done, enc.Rows())
	}

	resumed := opts
	resumed.Checkpoint = ckPath
	resumed.Resume = true
	resumed.Workers = 7 // a different worker count must not change the rows
	err = StreamSpace(context.Background(), space, resumed, func(r Row) error {
		return enc.Encode(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if enc.Rows() != space.Size() {
		t.Fatalf("resumed run ended with %d rows, want %d", enc.Rows(), space.Size())
	}
	if !bytes.Equal(ref.Bytes(), out.Bytes()) {
		t.Fatal("interrupted+resumed CSV differs from the uninterrupted run")
	}

	// Resuming a completed campaign is a no-op.
	calls := 0
	err = StreamSpace(context.Background(), space, resumed, func(Row) error {
		calls++
		return nil
	})
	if err != nil || calls != 0 {
		t.Fatalf("resume of a finished campaign: err=%v, yields=%d, want nil and 0", err, calls)
	}
}

func TestStreamCheckpointMismatchRejected(t *testing.T) {
	ckPath := filepath.Join(t.TempDir(), "sweep.ckpt")
	opts := RunOptions{Packets: 20, BaseSeed: 1, Checkpoint: ckPath}
	if err := StreamSpace(context.Background(), smallSpace(), opts, nil); err != nil {
		t.Fatal(err)
	}
	other := opts
	other.BaseSeed = 2 // different campaign identity
	other.Resume = true
	err := StreamSpace(context.Background(), smallSpace(), other, nil)
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("resume with mismatched seed: err = %v, want fingerprint mismatch", err)
	}
}

func TestYieldErrorStopsStream(t *testing.T) {
	sentinel := errors.New("disk full")
	emitted := 0
	err := StreamSpace(context.Background(), smallSpace(),
		RunOptions{Packets: 30}, func(Row) error {
			emitted++
			if emitted == 3 {
				return sentinel
			}
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped yield error", err)
	}
	if emitted != 3 {
		t.Errorf("emitted = %d, want 3", emitted)
	}
}

func TestReadCSVHead(t *testing.T) {
	rows, err := RunConfigs(context.Background(), smallSpace().All()[:4], RunOptions{Packets: 30})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("torn,garbage,line") // trailing junk past the prefix
	head, err := ReadCSVHead(bytes.NewReader(buf.Bytes()), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(head) != 3 {
		t.Fatalf("head rows = %d, want 3", len(head))
	}
	for i := range head {
		if head[i].Config != rows[i].Config {
			t.Errorf("head row %d mismatch", i)
		}
	}
	if _, err := ReadCSVHead(bytes.NewReader(buf.Bytes()), -1); err == nil {
		t.Error("negative head count should error")
	}
}

// midBlockModel is the calibrated error model with a trap for landing a
// stop inside the kernel. Once armed, the first want calls park until wake
// is closed. A parked call holds its goroutine, so want parked calls are
// want distinct workers, each mid-block between two per-packet context
// checks (the kernel asks the model once per transmission).
type midBlockModel struct {
	phy.Calibrated
	want int
	wake <-chan struct{}

	armed     atomic.Bool
	mu        sync.Mutex
	parked    int
	allParked chan struct{} // closed once want calls are parked
	late      bool          // wake was already closed when the last call parked
	after     int           // calls made once every parked call was woken
}

func newMidBlockModel(want int, wake <-chan struct{}) *midBlockModel {
	return &midBlockModel{Calibrated: phy.NewCalibrated(), want: want, wake: wake,
		allParked: make(chan struct{})}
}

func (m *midBlockModel) DataPER(snrDB float64, payloadBytes int) float64 {
	if m.armed.Load() {
		m.mu.Lock()
		park := m.parked < m.want
		if park {
			m.parked++
			if m.parked == m.want {
				select {
				case <-m.wake:
					m.late = true
				default:
				}
				close(m.allParked)
			}
		} else {
			m.after++ // every worker is parked until wake closes
		}
		m.mu.Unlock()
		if park {
			<-m.wake
		}
	}
	return m.Calibrated.DataPER(snrDB, payloadBytes)
}

// csvStream runs one engine's campaign, encoding each row as CSV to w (the
// header first when header is set) and calling onRow with the number of
// rows yielded so far.
type csvStream func(ctx context.Context, opts RunOptions, w io.Writer, header bool, onRow func(int)) error

func linkCSVStream(cfgs []stack.Config) csvStream {
	return func(ctx context.Context, opts RunOptions, w io.Writer, header bool, onRow func(int)) error {
		enc := NewEncoder(w)
		if header {
			if err := enc.WriteHeader(); err != nil {
				return err
			}
		}
		err := StreamConfigs(ctx, cfgs, opts, func(r Row) error {
			if err := enc.Encode(r); err != nil {
				return err
			}
			onRow(enc.Rows())
			return nil
		})
		if ferr := enc.Flush(); err == nil {
			err = ferr
		}
		return err
	}
}

func scenarioCSVStream(spec scenario.Spec, cfgs []stack.Config) csvStream {
	return func(ctx context.Context, opts RunOptions, w io.Writer, header bool, onRow func(int)) error {
		enc := NewScenarioEncoder(w)
		if header {
			if err := enc.WriteHeader(); err != nil {
				return err
			}
		}
		err := StreamScenarios(ctx, spec, cfgs, opts, func(r scenario.Row) error {
			if err := enc.Encode(r); err != nil {
				return err
			}
			onRow(enc.Rows())
			return nil
		})
		if ferr := enc.Flush(); err == nil {
			err = ferr
		}
		return err
	}
}

// TestStopMidBlockTwoWorkers lands a cancel and an expiring deadline while
// both workers of a two-worker campaign are inside the kernel, in the link
// engine (four-configuration blocks) and the star engine. Both workers
// poll the run's context between packets, so the stop must reach each of
// them with the context's error. The yield hook arms the trap at a fixed
// row; the stop lands once both workers are parked in it. The sidecar must
// then hold exactly the yielded rows, and resuming from it must give the
// uninterrupted run's bytes.
func TestStopMidBlockTwoWorkers(t *testing.T) {
	const workers = 2
	engines := []struct {
		name   string
		n      int
		armAt  int // rows yielded before the trap is armed
		stream csvStream
		opts   RunOptions
		// drain bounds the transmissions a canceled worker may still
		// make: link, the current packet's retries (MaxTries ≤ 5); star,
		// the packets already queued at its 3 nodes (QueueCap 5 + 1 in
		// service, MaxTries 5), which drain after generation stops.
		drain int
	}{
		{"link", 96, 8, linkCSVStream(streamSpace().Slice(0, 96)),
			RunOptions{Packets: 30, BaseSeed: 5, Workers: workers, BatchSize: 4}, 5},
		{"star", len(scenarioConfigs()), 2, scenarioCSVStream(scenario.StarSpec(3), scenarioConfigs()),
			RunOptions{Packets: 100, BaseSeed: 5, Workers: workers}, 3 * 6 * 5},
	}
	for _, e := range engines {
		var ref bytes.Buffer
		refOpts := e.opts
		refOpts.ErrorModel = newMidBlockModel(workers, nil) // never armed
		if err := e.stream(context.Background(), refOpts, &ref, true, func(int) {}); err != nil {
			t.Fatalf("%s reference run: %v", e.name, err)
		}
		for _, deadline := range []bool{false, true} {
			name, want := e.name+"/cancel", context.Canceled
			if deadline {
				name, want = e.name+"/deadline", context.DeadlineExceeded
			}
			t.Run(name, func(t *testing.T) {
				var ctx context.Context
				var cancel context.CancelFunc
				var model *midBlockModel
				release := make(chan struct{})
				if deadline {
					// The deadline only has to outlast the first few
					// blocks; the parked workers then wait for it.
					ctx, cancel = context.WithTimeout(context.Background(), 500*time.Millisecond)
					model = newMidBlockModel(workers, ctx.Done())
				} else {
					ctx, cancel = context.WithCancel(context.Background())
					model = newMidBlockModel(workers, release)
				}
				defer cancel()
				ckPath := filepath.Join(t.TempDir(), "stop.ckpt")
				opts := e.opts
				opts.ErrorModel = model
				opts.Checkpoint = ckPath

				var out bytes.Buffer
				yielded := 0
				done := make(chan error, 1)
				go func() {
					done <- e.stream(ctx, opts, &out, true, func(rows int) {
						yielded = rows
						if rows == e.armAt {
							model.armed.Store(true)
						}
					})
				}()
				var err error
				select {
				case <-model.allParked:
					if !deadline {
						// cancel closes the context's Done channel
						// before it returns, so the woken workers'
						// next per-packet poll fails.
						cancel()
						close(release)
					}
					err = <-done
				case err = <-done:
					t.Fatalf("run ended before both workers parked mid-block: %v", err)
				}
				if model.late {
					t.Fatal("the deadline fired before both workers were parked mid-block")
				}
				if !errors.Is(err, want) {
					t.Fatalf("err = %v, want wrapped %v", err, want)
				}
				if deadline && errors.Is(err, context.Canceled) {
					t.Fatalf("deadline stop reported as a cancel: %v", err)
				}
				if !deadline && model.after > workers*e.drain {
					t.Fatalf("canceled workers made %d more transmissions, want <= %d",
						model.after, workers*e.drain)
				}
				ck, err := LoadCheckpoint(ckPath)
				if err != nil {
					t.Fatal(err)
				}
				if ck.Done != yielded || yielded < e.armAt || yielded >= e.n {
					t.Fatalf("sidecar Done = %d, yielded %d rows (armed at %d) of %d",
						ck.Done, yielded, e.armAt, e.n)
				}

				resumed := e.opts
				resumed.ErrorModel = newMidBlockModel(workers, nil)
				resumed.Checkpoint = ckPath
				resumed.Resume = true
				if err := e.stream(context.Background(), resumed, &out, false, func(int) {}); err != nil {
					t.Fatalf("resume: %v", err)
				}
				if !bytes.Equal(ref.Bytes(), out.Bytes()) {
					t.Fatal("interrupted+resumed CSV differs from the uninterrupted run")
				}
			})
		}
	}
}
