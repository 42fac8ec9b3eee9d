// Package wsnlink is a library for multi-layer parameter configuration of
// IEEE 802.15.4 wireless sensor network links, reproducing the models and
// methodology of "Experimental Study for Multi-layer Parameter Configuration
// of WSN Links" (ICDCS 2015).
//
// It bundles three layers:
//
//   - a packet-level simulator of a TelosB/CC2420 link (log-normal shadowing
//     channel, unslotted CSMA-CA MAC with retransmissions, bounded send
//     queue) that regenerates the paper's measurement campaign;
//   - the paper's empirical models for PER, transmission count, service
//     time, energy per bit, maximum goodput and radio loss (Table III),
//     plus calibration of the model constants from a dataset;
//   - the parameter optimizer: per-metric tuning guidelines and
//     multi-objective optimization (Pareto front, epsilon-constraint,
//     weighted sum) over the 7-parameter configuration space.
//
// This file is the facade over the implementation packages; see the
// examples directory for end-to-end usage and cmd/ for the CLI tools.
package wsnlink

import (
	"context"
	"io"

	"wsnlink/internal/channel"
	"wsnlink/internal/metrics"
	"wsnlink/internal/models"
	"wsnlink/internal/obs"
	"wsnlink/internal/optimize"
	"wsnlink/internal/phy"
	"wsnlink/internal/scenario"
	"wsnlink/internal/serve"
	"wsnlink/internal/sim"
	"wsnlink/internal/stack"
	"wsnlink/internal/sweep"
)

// Configuration space (Table I).
type (
	// Config is one 7-parameter stack configuration.
	Config = stack.Config
	// Space is a swept parameter space.
	Space = stack.Space
	// PowerLevel is a CC2420 output power level (3..31).
	PowerLevel = phy.PowerLevel
)

// DefaultSpace returns the paper's Table I parameter space (≈50k configs).
func DefaultSpace() Space { return stack.DefaultSpace() }

// Simulation.
type (
	// SimOptions configures a simulation run; its Engine field selects the
	// simulator for Simulate (EngineFast, the zero value, by default).
	SimOptions = sim.Options
	// SimResult is a raw simulation outcome.
	SimResult = sim.Result
	// SimBatchOptions configures a SimulateBatch call: packets, explicit
	// per-configuration seeds (or a BaseSeed to derive them), channel and
	// error-model overrides, and an optional reusable arena.
	SimBatchOptions = sim.BatchOptions
	// SimBatchArena is the reusable scratch state of the batch kernel;
	// allocate one with NewSimBatchArena and pass it through
	// SimBatchOptions.Arena to make repeated SimulateBatch calls
	// allocation-free.
	SimBatchArena = sim.BatchArena
	// EngineKind selects a simulator engine for SimOptions.Engine and
	// SweepOptions.Engine.
	EngineKind = sim.EngineKind
	// ChannelParams configures the radio environment.
	ChannelParams = channel.Params
	// Report holds the four derived performance metrics for a run.
	Report = metrics.Report
)

// Simulator engines.
const (
	// EngineFast is the Monte-Carlo fast path (the default): identical
	// loss statistics, backoff jitter averaged out, orders of magnitude
	// faster. Campaign-scale work should use it.
	EngineFast = sim.EngineFast
	// EngineDES is the full event-driven simulator: every backoff is
	// sampled, every event is played through the event heap.
	EngineDES = sim.EngineDES
)

// Simulate runs one configuration, honoring ctx for cancellation and
// deadline between packets. The engine is selected by opts.Engine:
// EngineFast (the zero value) or EngineDES. This is the single entry point
// the deprecated Simulate* variants collapse into.
func Simulate(ctx context.Context, cfg Config, opts SimOptions) (SimResult, error) {
	return sim.Simulate(ctx, cfg, opts)
}

// SimulateBatch runs many configurations through the batch kernel in one
// call: lookup tables are computed once, per-lane state is reused from the
// optional arena, and configuration i runs exactly as a single Simulate
// call with the same seed would (row-identical; the equivalence is pinned
// by tests). Per-configuration failures land in errs (nil when every lane
// succeeded) without disturbing the other lanes; err reports malformed
// batch options. The returned results are valid until the next call that
// reuses the same arena.
func SimulateBatch(ctx context.Context, cfgs []Config, opts SimBatchOptions) (results []SimResult, errs []error, err error) {
	return sim.RunBatch(ctx, cfgs, opts)
}

// NewSimBatchArena returns an empty batch arena for SimBatchOptions.Arena.
func NewSimBatchArena() *SimBatchArena { return sim.NewBatchArena() }

// DeriveSeed returns the deterministic per-configuration seed a campaign
// assigns to index idx under a base seed — the same derivation the sweep
// engine uses, so hand-rolled SimulateBatch calls can reproduce (or pair
// with) a sweep's rows exactly.
func DeriveSeed(base uint64, idx int) uint64 { return sim.DeriveSeed(base, idx) }

// Measure derives the metric report from a simulation result.
func Measure(res SimResult) Report { return metrics.FromResult(res) }

// DefaultChannel returns the hallway channel of the paper's testbed.
func DefaultChannel() ChannelParams { return channel.DefaultParams() }

// Campaign sweeps.
type (
	// SweepRow is one aggregated configuration result.
	SweepRow = sweep.Row
	// SweepOptions configures a campaign run: identity knobs (Packets,
	// BaseSeed, Engine, CRN), execution knobs (Workers, BatchSize),
	// the progress counter (Progress), observability sinks (Metrics,
	// Tracer, TraceSample), the per-configuration error policy, and
	// checkpoint/resume paths. The knobs are validated once on entry;
	// batch and streaming modes share the same defaulting path.
	SweepOptions = sweep.RunOptions
	// SweepCheckpoint describes a campaign's resumable progress.
	SweepCheckpoint = sweep.Checkpoint
	// SweepConfigError reports one failed configuration.
	SweepConfigError = sweep.ConfigError
	// SweepCampaignError aggregates failures from a collect-and-continue
	// campaign.
	SweepCampaignError = sweep.CampaignError
)

// Error policies for SweepOptions.ErrorPolicy.
const (
	// SweepFailFast cancels the campaign on the first failed
	// configuration (default).
	SweepFailFast = sweep.FailFast
	// SweepContinueOnError completes every runnable configuration and
	// reports the failures afterwards as a *SweepCampaignError.
	SweepContinueOnError = sweep.ContinueOnError
)

// SweepStream is the context-first campaign engine: it simulates every
// configuration of the space on a worker pool and calls yield once per
// completed row, in input order, holding only O(workers) rows in memory.
// Cancel ctx to stop the campaign early; set opts.Checkpoint (and
// opts.Resume on a later run) to make it restartable. For a fixed
// opts.BaseSeed the emitted rows are identical regardless of worker count,
// interruption, or resume.
func SweepStream(ctx context.Context, space Space, opts SweepOptions, yield func(SweepRow) error) error {
	return sweep.StreamSpace(ctx, space, opts, yield)
}

// Sweep simulates every configuration of a space in parallel and collects
// the rows, honoring ctx. Rows completed before an error are returned
// alongside the non-nil error. It materializes every row, so prefer
// SweepStream for campaign-scale spaces or when cancellation/resume
// matters.
func Sweep(ctx context.Context, space Space, opts SweepOptions) ([]SweepRow, error) {
	return sweep.RunSpace(ctx, space, opts)
}

// LoadSweepCheckpoint reads a checkpoint sidecar written by a checkpointed
// sweep, e.g. to align an output file with the resumable prefix.
func LoadSweepCheckpoint(path string) (SweepCheckpoint, error) {
	return sweep.LoadCheckpoint(path)
}

// SweepFingerprint returns the campaign identity hash recorded by
// checkpoint sidecars and run manifests: it covers every configuration of
// the space plus the option knobs that change row content (Packets,
// BaseSeed, Engine, CRN). Execution knobs (Workers, BatchSize) are not
// hashed.
func SweepFingerprint(space Space, opts SweepOptions) (uint64, error) {
	if err := space.Validate(); err != nil {
		return 0, err
	}
	return sweep.CampaignFingerprint(space.All(), opts), nil
}

// Scenario campaigns. A scenario generalizes the sweep from the paper's
// single link to the other simulator families (star contention, bursty
// interference, low-power listening, random-waypoint mobility); a scenario
// campaign runs every configuration of a space through the selected
// simulator with the sweep engine's determinism, checkpointing and
// byte-identical resume intact.
type (
	// ScenarioKind names a scenario family ("link", "star", ...).
	ScenarioKind = scenario.Kind
	// ScenarioSpec selects a scenario kind plus its parameter block;
	// the zero value is the plain link scenario.
	ScenarioSpec = scenario.Spec
	// ScenarioStarParams configures the star-contention scenario.
	ScenarioStarParams = scenario.StarParams
	// ScenarioInterferenceParams configures the bursty-interferer scenario.
	ScenarioInterferenceParams = scenario.InterferenceParams
	// ScenarioLPLParams configures the low-power-listening scenario.
	ScenarioLPLParams = scenario.LPLParams
	// ScenarioMobilityParams configures the random-waypoint scenario.
	ScenarioMobilityParams = scenario.MobilityParams
	// ScenarioRow is one scenario campaign result: the link-row fields
	// plus the scenario tag and network-level statistics.
	ScenarioRow = scenario.Row
	// ScenarioNetStats holds the per-scenario network columns.
	ScenarioNetStats = scenario.NetStats
	// ScenarioUnknownKindError reports a scenario name outside the kinds
	// set (use errors.As to detect it on spec validation).
	ScenarioUnknownKindError = scenario.UnknownKindError
)

// The scenario kinds a campaign can name.
const (
	ScenarioLink         = scenario.KindLink
	ScenarioStar         = scenario.KindStar
	ScenarioInterference = scenario.KindInterference
	ScenarioLPL          = scenario.KindLPL
	ScenarioMobility     = scenario.KindMobility
)

// StarScenario returns a normalized star spec with the given sender count.
func StarScenario(nodes int) ScenarioSpec { return scenario.StarSpec(nodes) }

// ScenarioSweepStream runs a scenario campaign over every configuration of
// the space, calling yield once per completed row in input order — the
// scenario counterpart of SweepStream, sharing its seeding, worker-pool,
// checkpoint and resume semantics (BatchSize does not apply: the batch
// kernel is link-only).
func ScenarioSweepStream(ctx context.Context, spec ScenarioSpec, space Space, opts SweepOptions, yield func(ScenarioRow) error) error {
	if err := space.Validate(); err != nil {
		return err
	}
	return sweep.StreamScenarios(ctx, spec, space.All(), opts, yield)
}

// ScenarioSweep collects a scenario campaign into a slice, honoring ctx;
// rows completed before an error are returned alongside the non-nil error.
func ScenarioSweep(ctx context.Context, spec ScenarioSpec, space Space, opts SweepOptions) ([]ScenarioRow, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	return sweep.RunScenarios(ctx, spec, space.All(), opts)
}

// ScenarioSweepFingerprint returns the campaign identity hash of a scenario
// campaign. Scenario fingerprints occupy a namespace distinct from
// SweepFingerprint's, so a scenario dataset never aliases a link dataset in
// the daemon's content-addressed cache — even for the "link" kind, whose
// rows carry the wider scenario schema.
func ScenarioSweepFingerprint(spec ScenarioSpec, space Space, opts SweepOptions) (uint64, error) {
	if err := space.Validate(); err != nil {
		return 0, err
	}
	return sweep.ScenarioFingerprint(spec, space.All(), opts)
}

// Campaign service. A wsnlinkd daemon (cmd/wsnlinkd) queues campaigns
// durably, caches completed datasets by campaign fingerprint, and streams
// rows over HTTP; these aliases are its typed client surface.
type (
	// CampaignClient talks to a wsnlinkd daemon.
	CampaignClient = serve.Client
	// CampaignSpec is a campaign submission: the parameter space plus the
	// identity knobs (Packets, BaseSeed, FullDES, CRN) that determine the
	// campaign fingerprint, and execution knobs (Workers, BatchSize,
	// DeadlineS, TraceSample).
	CampaignSpec = serve.CampaignSpec
	// CampaignSpaceSpec is the wire form of a swept space; empty axes
	// fall back to the Table I defaults.
	CampaignSpaceSpec = serve.SpaceSpec
	// CampaignJob is a job's live status as reported by the daemon.
	CampaignJob = serve.JobStatus
	// CampaignRow is one decoded row from a campaign's NDJSON stream.
	CampaignRow = serve.StreamedRow
)

// NewCampaignClient returns a client for the wsnlinkd daemon at baseURL,
// e.g. "http://localhost:8080". Use Run to submit-and-stream a campaign
// with automatic reconnect, or Submit/Status/StreamRows for finer control.
func NewCampaignClient(baseURL string) *CampaignClient { return serve.NewClient(baseURL) }

// Observability (campaign telemetry).
type (
	// Metrics is the campaign telemetry hub: pass one (from NewMetrics)
	// through SweepOptions.Metrics and/or SimOptions.Obs and poll
	// Snapshot while the run executes. A nil *Metrics disables all
	// instrumentation at zero cost.
	Metrics = obs.Metrics
	// MetricsSnapshot is a point-in-time JSON-serializable telemetry
	// state (counters, rates, histograms, per-stage timings).
	MetricsSnapshot = obs.Snapshot
	// RunManifest is the reproducibility record wsnsweep writes next to
	// a dataset: campaign fingerprint, seed, parameter space, row count,
	// wall time and the final metric snapshot.
	RunManifest = obs.Manifest
	// SweepProgress is the lock-free done/total/errors counter the
	// engine maintains when SweepOptions.Progress is set.
	SweepProgress = sweep.Progress
	// SweepProgressSnapshot is one atomic reading of a SweepProgress.
	SweepProgressSnapshot = sweep.ProgressSnapshot
	// Tracer collects per-packet lifecycle events (enqueue, backoff, CCA,
	// TX attempts, ACK timeouts, delivery/loss) into a bounded ring; pass
	// one (from NewTracer) through SweepOptions.Tracer. A nil *Tracer
	// disables tracing at zero cost.
	Tracer = obs.Tracer
	// TraceEvent is one recorded lifecycle event (simulated timestamp,
	// span ID, configuration and packet indices, kind, try, SNR/RSSI/LQI).
	TraceEvent = obs.Event
	// TraceEventKind enumerates the lifecycle event kinds.
	TraceEventKind = obs.EventKind
	// TraceStats summarizes a Tracer's ring occupancy.
	TraceStats = obs.TraceStats
)

// NewMetrics returns a telemetry hub with the standard bucket layout.
func NewMetrics() *Metrics { return obs.New() }

// ReadRunManifest loads and validates a run manifest written by wsnsweep.
func ReadRunManifest(path string) (RunManifest, error) {
	return obs.ReadManifest(path)
}

// NewTracer returns a lifecycle-event tracer with a bounded ring of the
// given capacity (0 = the default 262144 events); when full, the oldest
// events are evicted and counted.
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// WriteTraceEvents exports collected lifecycle events, picking the format
// from path: a ".ndjson" suffix selects streaming NDJSON (one event per
// line), anything else the Chrome trace_event JSON that Perfetto and
// chrome://tracing load directly. Only path's extension is consulted — the
// bytes go to w.
func WriteTraceEvents(w io.Writer, path string, events []TraceEvent) error {
	return obs.WriteTrace(w, path, events)
}

// PacketSpanID returns the deterministic trace span ID of one packet in a
// campaign: it depends only on the campaign fingerprint (SweepFingerprint),
// the configuration index and the packet ID, so a trace from a resumed run
// carries the same span IDs as one from an uninterrupted run.
func PacketSpanID(fingerprint uint64, configIndex, packetID int) uint64 {
	return obs.PacketSpanID(fingerprint, configIndex, packetID)
}

// Empirical models (Table III).
type (
	// Models bundles the paper's E, G, D and L models.
	Models = models.Suite
	// Observation is a per-configuration aggregate used for calibration.
	Observation = models.Observation
	// Calibration carries re-fitted models plus fit diagnostics.
	Calibration = models.CalibrationResult
	// Zone classifies link quality (grey zone / joint-effect zones).
	Zone = models.Zone
)

// PaperModels returns the models with the published constants.
func PaperModels() Models { return models.Paper() }

// Calibrate re-fits the model constants from measurement aggregates.
func Calibrate(obs []Observation) (Calibration, error) {
	return models.Calibrate(obs)
}

// Observations converts sweep rows into calibration input.
func Observations(rows []SweepRow) []Observation {
	return sweep.ToObservations(rows)
}

// ClassifySNR returns the joint-effect zone for an SNR in dB.
func ClassifySNR(snrDB float64) Zone { return models.ClassifySNR(snrDB) }

// Optimization (Sec. VIII).
type (
	// Candidate is a tunable parameter combination.
	Candidate = optimize.Candidate
	// Evaluation is a model-predicted candidate performance.
	Evaluation = optimize.Evaluation
	// Evaluator predicts candidate performance on a link.
	Evaluator = optimize.Evaluator
	// Objective identifies one of the four performance metrics.
	Objective = optimize.Metric
	// Constraint bounds a metric for epsilon-constraint optimization.
	Constraint = optimize.Constraint
	// Grid is a discrete candidate space.
	Grid = optimize.Grid
)

// Objectives.
const (
	ObjectiveEnergy  = optimize.MetricEnergy
	ObjectiveGoodput = optimize.MetricGoodput
	ObjectiveDelay   = optimize.MetricDelay
	ObjectiveLoss    = optimize.MetricLoss
)

// NewEvaluator builds an evaluator for a link whose SNR at refPower is
// known, shifting dB-for-dB with output power.
func NewEvaluator(m Models, refPower PowerLevel, snrAtRef float64) Evaluator {
	return optimize.NewEvaluator(m, refPower, snrAtRef)
}

// DefaultGrid returns the standard tunable-candidate grid.
func DefaultGrid() Grid { return optimize.DefaultGrid() }

// ParetoFront returns the non-dominated evaluations on the given objectives.
func ParetoFront(evals []Evaluation, objs []Objective) []Evaluation {
	return optimize.ParetoFront(evals, objs)
}

// EpsilonConstraint optimizes the primary objective subject to constraints.
func EpsilonConstraint(evals []Evaluation, primary Objective, cs []Constraint) (Evaluation, error) {
	return optimize.EpsilonConstraint(evals, primary, cs)
}
