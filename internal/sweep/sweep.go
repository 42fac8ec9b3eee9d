// Package sweep runs the paper's measurement campaign: it iterates a
// parameter space (Table I), simulates every configuration, and aggregates
// the per-configuration metric reports into a dataset. The dataset can be
// written to and read from CSV — the stand-in for the public dataset the
// paper published — and converted into calibration observations for the
// model-fitting pipeline.
//
// The core is one streaming engine: a worker pool that emits completed
// rows in input order through a yield callback, holds only O(workers) rows
// live, honors context cancellation, and can checkpoint progress to a
// sidecar file so an interrupted campaign resumes exactly where it
// stopped. Link campaigns (StreamSpace / StreamConfigs) run on it in
// blocks of BatchSize configurations through the batch kernel; scenario
// campaigns (StreamScenarios) run on it in blocks of one. One CSV codec
// writes and reads both row schemas. The batch helpers (RunSpace /
// RunConfigs / RunScenarios) are thin wrappers that collect the stream
// into a slice.
package sweep

import (
	"context"
	"fmt"
	"runtime"

	"wsnlink/internal/channel"
	"wsnlink/internal/metrics"
	"wsnlink/internal/models"
	"wsnlink/internal/obs"
	"wsnlink/internal/phy"
	"wsnlink/internal/sim"
	"wsnlink/internal/stack"
)

// Row is one aggregated configuration result.
type Row struct {
	Config  stack.Config
	Report  metrics.Report
	Seed    uint64
	Packets int
}

// ErrorPolicy selects how a campaign treats per-configuration failures.
type ErrorPolicy int

const (
	// FailFast cancels outstanding work on the first failed configuration
	// (the default). Rows completed before the failing index are still
	// emitted/returned.
	FailFast ErrorPolicy = iota
	// ContinueOnError keeps sweeping past failed configurations. The run
	// emits every row that completed and reports the failures afterwards
	// as a *CampaignError.
	ContinueOnError
)

// ConfigError reports one failed configuration.
type ConfigError struct {
	Index  int
	Config stack.Config
	Err    error
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("sweep: config %d (%v): %v", e.Index, e.Config, e.Err)
}

func (e *ConfigError) Unwrap() error { return e.Err }

// CampaignError aggregates the per-configuration failures of a
// ContinueOnError campaign, in index order.
type CampaignError struct {
	Failures []*ConfigError
}

func (e *CampaignError) Error() string {
	if len(e.Failures) == 1 {
		return e.Failures[0].Error()
	}
	return fmt.Sprintf("sweep: %d configurations failed (first: %v)",
		len(e.Failures), e.Failures[0])
}

func (e *CampaignError) Unwrap() error { return e.Failures[0] }

// RunOptions configures a campaign.
type RunOptions struct {
	// Packets per configuration (paper: 4500). Defaults to 500, which
	// keeps full-space sweeps tractable while leaving per-configuration
	// statistics stable; pass 4500 to reproduce the campaign scale.
	Packets int
	// BaseSeed seeds the per-configuration RNGs; each configuration gets
	// a distinct deterministic seed derived from it (unless CRN pairs
	// them).
	BaseSeed uint64
	// Workers is the parallelism (default: GOMAXPROCS).
	Workers int
	// Engine selects the simulator: the Monte-Carlo fast path
	// (sim.EngineFast, the zero value — the campaign default) or the
	// full event-driven simulator (sim.EngineDES).
	Engine sim.EngineKind
	// BatchSize is how many configurations a worker pulls per batch-
	// kernel call on the fast engine (default 64; 1 disables blocking;
	// the DES engine always runs per-config). Blocking is pure
	// scheduling: row content is identical for every batch size —
	// TestStreamBatchSizesRowIdentical pins it — but live rows grow to
	// O(Workers × BatchSize).
	BatchSize int
	// CRN enables common-random-numbers pairing: every configuration of
	// the campaign runs under the same derived seed instead of a
	// per-index one, so cross-configuration contrasts share their
	// channel randomness and need fewer packets for the same confidence.
	// Absolute per-row noise is unchanged; only the coupling differs.
	// CRN changes row content, so it is part of the campaign
	// fingerprint.
	CRN bool
	// Channel overrides the hallway parameters.
	Channel *channel.Params
	// ErrorModel overrides the paper-calibrated CC2420 model. It must be
	// stateless (the provided phy models are value types).
	ErrorModel phy.ErrorModel
	// Progress, if non-nil, is reset when the run starts and kept up to
	// date atomically as configurations finish; read it with Snapshot
	// from any goroutine.
	Progress *Progress
	// Metrics, if non-nil, receives engine telemetry (per-stage wall
	// time for dispatch/simulate/reorder/yield/checkpoint, per-config
	// wall-time histogram, reorder-window occupancy, row/error counters)
	// and is forwarded to the simulator for pipeline stage timings. nil
	// (the default) adds no overhead beyond pointer tests —
	// BenchmarkObsNilOverhead pins the nil path at zero allocations.
	Metrics *obs.Metrics
	// Tracer, if non-nil, receives per-packet lifecycle events from the
	// simulator for the sampled configurations. Each traced configuration
	// gets a span namespace derived from (campaign fingerprint,
	// configuration index), so span IDs are byte-identical across
	// kill-and-resume and across worker counts. nil (the default) keeps
	// the simulator on its single-nil-check disabled path.
	Tracer *obs.Tracer
	// TraceSample traces every Nth configuration when Tracer is set
	// (0 or 1 = every configuration). Sampling bounds trace volume on
	// campaign-scale sweeps without truncating individual packet spans
	// the way the Tracer's ring eviction would.
	TraceSample int
	// Commit, if non-nil, closes each group of yielded rows. The emitter
	// calls it once per emitted run — the rows one arrival made
	// contiguous — after yield has taken the run's last row and before
	// the run is checkpointed, and once more when the stream stops, so
	// every yielded row is committed. A sink that buffers rows in yield
	// writes them out here: one write per run instead of one per row,
	// and its dataset stays at least as long as the checkpoint.
	Commit func() error
	// ErrorPolicy selects fail-fast (default) or collect-and-continue
	// handling of per-configuration errors.
	ErrorPolicy ErrorPolicy
	// Checkpoint, when non-empty, names a sidecar file that records each
	// configuration index as it is durably processed. A later run with
	// Resume set picks up after the recorded prefix.
	Checkpoint string
	// Resume loads Checkpoint and skips the configurations it records as
	// already processed. The checkpoint must match the campaign (same
	// configurations, Packets, BaseSeed, Engine and CRN setting;
	// BatchSize and Workers are execution knobs and may differ).
	Resume bool
	// IndexOffset shifts the global configuration index of the run: row i
	// of this campaign derives its seed as if it were row IndexOffset+i of
	// a larger sweep. A shard covering configs [off, off+n) of a parent
	// space therefore produces rows byte-identical to rows [off, off+n) of
	// the unsharded campaign. The offset changes row content, so a nonzero
	// value is part of the campaign fingerprint; zero (the default) hashes
	// exactly as before, keeping existing checkpoints and caches valid.
	// CRN pairing always uses the parent campaign's index-0 seed, so
	// paired contrasts hold across shard boundaries.
	IndexOffset int

	// pendingGauge, if set, observes the reorder-buffer size after each
	// arrival (test instrumentation for the O(workers) memory bound).
	pendingGauge func(n int)
}

// withDefaults validates the option knobs and fills defaults. It is the
// single normalization path shared by the batch and streaming modes.
func (o RunOptions) withDefaults() (RunOptions, error) {
	if o.Packets < 0 {
		return o, fmt.Errorf("sweep: Packets must be >= 0, got %d", o.Packets)
	}
	if o.Packets == 0 {
		o.Packets = 500
	}
	if o.Workers < 0 {
		return o, fmt.Errorf("sweep: Workers must be >= 0, got %d", o.Workers)
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.BatchSize < 0 {
		return o, fmt.Errorf("sweep: BatchSize must be >= 0, got %d", o.BatchSize)
	}
	if o.BatchSize == 0 {
		o.BatchSize = DefaultBatchSize
	}
	if o.Engine == sim.EngineDES {
		o.BatchSize = 1 // the event-driven engine has no batch kernel
	}
	if o.TraceSample < 0 {
		return o, fmt.Errorf("sweep: TraceSample must be >= 0, got %d", o.TraceSample)
	}
	if o.IndexOffset < 0 {
		return o, fmt.Errorf("sweep: IndexOffset must be >= 0, got %d", o.IndexOffset)
	}
	if o.Resume && o.Checkpoint == "" {
		return o, fmt.Errorf("sweep: Resume requires a Checkpoint path")
	}
	return o, nil
}

// traceSpan returns the simulator's span context for configuration idx:
// nil unless tracing is on and idx falls on the sample grid.
func (o RunOptions) traceSpan(fingerprint uint64, idx int) *obs.SpanContext {
	if o.Tracer == nil {
		return nil
	}
	if o.TraceSample > 1 && idx%o.TraceSample != 0 {
		return nil
	}
	return o.Tracer.Span(fingerprint, idx)
}

// DefaultBatchSize is the fast-engine block size when RunOptions.BatchSize
// is zero: large enough to amortize kernel-table reuse and channel pulls,
// small enough that the reorder buffer stays modest.
const DefaultBatchSize = 64

// seedFor derives the deterministic seed for configuration idx: SplitMix64
// of the global index (idx + IndexOffset) mixed with BaseSeed
// (sim.DeriveSeed), or — under CRN pairing — the global index-0 seed
// shared by every configuration. CRN ignores the shard offset: pairing is
// a property of the parent campaign, not of the shard.
func (o RunOptions) seedFor(idx int) uint64 {
	if o.CRN {
		return sim.DeriveSeed(o.BaseSeed, 0)
	}
	return sim.DeriveSeed(o.BaseSeed, idx+o.IndexOffset)
}

// RunSpace simulates every configuration in the space, honoring ctx. It is
// the collecting wrapper over StreamSpace, sharing its validation and
// option plumbing.
func RunSpace(ctx context.Context, space stack.Space, opts RunOptions) ([]Row, error) {
	rows := make([]Row, 0, space.Size())
	err := StreamSpace(ctx, space, opts, collectInto(&rows))
	return rows, err
}

// RunConfigs simulates the given configurations in parallel, returning rows
// in input order; the run is deterministic for a fixed BaseSeed regardless
// of worker count or batch size. Rows that completed before an error
// (cancellation, a FailFast failure, or the skipped entries of a
// ContinueOnError run) are returned alongside the non-nil error, so partial
// work is never discarded.
func RunConfigs(ctx context.Context, cfgs []stack.Config, opts RunOptions) ([]Row, error) {
	rows := make([]Row, 0, len(cfgs))
	err := StreamConfigs(ctx, cfgs, opts, collectInto(&rows))
	return rows, err
}

// collectInto is the shared batch-mode yield: append every row to *dst.
func collectInto[R any](dst *[]R) func(R) error {
	return func(r R) error {
		*dst = append(*dst, r)
		return nil
	}
}

// runOne simulates a single configuration at its derived seed. fingerprint
// is the campaign identity hash; it seeds the deterministic trace-span
// namespace when this configuration is sampled for tracing.
func runOne(ctx context.Context, cfg stack.Config, idx int, opts RunOptions, fingerprint uint64) (Row, error) {
	seed := opts.seedFor(idx)
	simOpts := sim.Options{
		Packets:    opts.Packets,
		Seed:       seed,
		Channel:    opts.Channel,
		ErrorModel: opts.ErrorModel,
		Obs:        opts.Metrics,
		Trace:      opts.traceSpan(fingerprint, idx),
	}
	var (
		res sim.Result
		err error
	)
	if opts.Engine == sim.EngineDES {
		res, err = sim.RunContext(ctx, cfg, simOpts)
	} else {
		res, err = sim.RunFastContext(ctx, cfg, simOpts)
	}
	if err != nil {
		return Row{}, err
	}
	return Row{
		Config:  cfg,
		Report:  metrics.FromResult(res),
		Seed:    seed,
		Packets: opts.Packets,
	}, nil
}

// ToObservations converts dataset rows into the aggregates the model
// calibration consumes.
func ToObservations(rows []Row) []models.Observation {
	out := make([]models.Observation, 0, len(rows))
	for _, r := range rows {
		out = append(out, models.Observation{
			PayloadBytes: r.Config.PayloadBytes,
			SNR:          r.Report.MeanSNR,
			MaxTries:     r.Config.MaxTries,
			PER:          r.Report.PER,
			MeanTries:    r.Report.MeanTries,
			PLRRadio:     r.Report.PLRRadio,
		})
	}
	return out
}
