package fabric

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"wsnlink/internal/obs"
	"wsnlink/internal/serve"
)

// Options configure a Fabric coordinator.
type Options struct {
	// Runners are the wsnlinkd runner base URLs. At least one is required.
	Runners []string
	// ProbeInterval is the runner liveness probe period (0 = 250ms).
	ProbeInterval time.Duration
	// ShardsPerRunner scales the plan: a campaign is cut into
	// ShardsPerRunner * len(Runners) shards (capped at the configuration
	// count), so losing one runner requeues fractions of the campaign, not
	// half of it. 0 = 2.
	ShardsPerRunner int
	// MaxRequeues is how many times one shard may be requeued onto a new
	// runner before the campaign fails (0 = 3).
	MaxRequeues int
	// AllDeadGrace is how long a shard waits for any runner to come back
	// when the whole fleet is down before failing the campaign (0 = 30s).
	AllDeadGrace time.Duration
	// ShardBuffer is the per-shard row buffer between a runner stream and
	// the merge loop (0 = 256): shards ahead of the merge cursor keep
	// streaming until their buffer fills.
	ShardBuffer int
	// StreamRetries / RetryBase tune each runner client's reconnect policy
	// (0 keeps the client defaults: 3 retries, 100ms base). The stream
	// budget refills on progress, so these bound how fast a killed runner
	// is detected, not how long a healthy stream may run.
	StreamRetries int
	RetryBase     time.Duration
	// Metrics receives the fabric_* metric families (nil = disabled).
	Metrics *obs.Registry
	// Logger receives coordinator logs (nil = slog.Default()).
	Logger *slog.Logger
}

// Fabric is a serve.Executor that executes campaigns by sharding them
// across runner daemons. Wire one into serve.Options.Executor to turn a
// daemon into a coordinator: submissions, the durable queue, checkpoints,
// row streaming and the result cache all stay on the coordinating server —
// only row production is farmed out.
type Fabric struct {
	opts Options
	reg  *Registry
	tel  *telemetry
	log  *slog.Logger
}

// New builds a coordinator over the given runners and starts its liveness
// probing. Close it to stop the prober.
func New(opts Options) (*Fabric, error) {
	if len(opts.Runners) == 0 {
		return nil, errors.New("fabric: no runners configured")
	}
	if opts.ShardsPerRunner <= 0 {
		opts.ShardsPerRunner = 2
	}
	if opts.MaxRequeues <= 0 {
		opts.MaxRequeues = 3
	}
	if opts.AllDeadGrace <= 0 {
		opts.AllDeadGrace = 30 * time.Second
	}
	if opts.ShardBuffer <= 0 {
		opts.ShardBuffer = 256
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	f := &Fabric{opts: opts, tel: newTelemetry(opts.Metrics), log: opts.Logger}
	f.reg = NewRegistry(opts.Runners, opts.ProbeInterval, opts.Logger,
		func(r *Runner, alive bool) { f.tel.runnerState(r.URL(), alive) })
	for _, r := range f.reg.Runners() {
		if opts.StreamRetries > 0 {
			r.client.MaxRetries = opts.StreamRetries
		}
		if opts.RetryBase > 0 {
			r.client.RetryBase = opts.RetryBase
		}
	}
	f.reg.Start()
	return f, nil
}

// Close stops the runner prober. In-flight campaigns see frozen liveness.
func (f *Fabric) Close() { f.reg.Close() }

// Registry exposes the runner registry (liveness inspection, tests).
func (f *Fabric) Registry() *Registry { return f.reg }

// shardFailedError marks a shard whose job failed on the runner itself —
// the campaign is broken, not the transport — so requeueing is pointless.
type shardFailedError struct{ err error }

func (e shardFailedError) Error() string { return e.err.Error() }
func (e shardFailedError) Unwrap() error { return e.err }

// ExecuteCampaign implements serve.Executor: plan shards, dispatch each to
// a live runner, and merge the streams in shard order into job.Emit. Every
// emitted row re-indexes a runner row back into the job's local space, so
// the coordinator's spool, checkpoint and NDJSON stream are byte-identical
// to a single daemon running the whole campaign.
//
// Shard streams run concurrently: each feeds a bounded channel while the
// merge loop drains them strictly in shard order (rows must hit Emit
// densely). A failed runner's shard is requeued on a surviving runner from
// the shard's own cursor — rows already buffered or merged are never
// re-requested, and the runner resumes from its checkpoint.
func (f *Fabric) ExecuteCampaign(ctx context.Context, job *serve.ExecJob) error {
	plan, err := PlanShards(job.Spec, f.opts.ShardsPerRunner*len(f.reg.Runners()))
	if err != nil {
		return err
	}
	f.tel.planned(len(plan.Shards))
	f.log.Info("campaign sharded",
		obs.LogKeyJob, job.ID,
		obs.LogKeyFingerprint, plan.Campaign,
		"configs", plan.Configs,
		"shards", len(plan.Shards),
		"runners", len(f.reg.Runners()))

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	base := job.Spec.ShardOffset // global offset of the job's row 0
	feeds := make([]chan serve.StreamedRow, len(plan.Shards))
	errCh := make(chan error, len(plan.Shards))
	for i, sh := range plan.Shards {
		feeds[i] = make(chan serve.StreamedRow, f.opts.ShardBuffer)
		local := sh.Offset - base
		// Rows the coordinator already checkpointed are never re-fetched:
		// a fully-merged shard is skipped outright, a partial one resumes
		// mid-window.
		skip := job.Resume - local
		if skip < 0 {
			skip = 0
		}
		if skip >= sh.Count {
			close(feeds[i])
			continue
		}
		go f.runShard(ctx, job.ID, sh, skip, feeds[i], errCh)
	}

	// Resolved once: With takes the family lock, too dear per row.
	merged := f.tel.rowsMerged.With()
	next := job.Resume
	for i, sh := range plan.Shards {
		local := sh.Offset - base
		for next < local+sh.Count {
			if len(feeds[i]) == 0 {
				// Nothing merged is waiting behind this row: commit the
				// run so far before blocking, so the coordinator's
				// streamers follow the merge a run at a time.
				if err := job.Commit(); err != nil {
					return err
				}
			}
			select {
			case r, ok := <-feeds[i]:
				if !ok {
					// The shard goroutine is gone; prefer its error over a
					// generic truncation report.
					select {
					case err := <-errCh:
						return err
					default:
					}
					return fmt.Errorf("fabric: shard %d stream ended at row %d of %d",
						sh.Index, next-local, sh.Count)
				}
				r.Index += local
				if r.Index != next {
					return fmt.Errorf("fabric: merged row %d out of order, want %d", r.Index, next)
				}
				if err := job.Emit(r); err != nil {
					return err
				}
				next++
				merged.Inc()
			case err := <-errCh:
				return err
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return nil
}

// runShard owns one shard's lifecycle: pick a live runner, submit, stream
// from the cursor, and on transport failure requeue the remainder on
// another runner. Rows land on out in shard-local order starting at skip;
// out is closed when the shard is finished or abandoned (with the error on
// errCh).
func (f *Fabric) runShard(ctx context.Context, jobID string, sh Shard, skip int,
	out chan<- serve.StreamedRow, errCh chan<- error) {
	defer close(out)
	// One correlation ID per shard, shared across every runner that touches
	// it, so runner logs stitch into the coordinator's story.
	sctx := obs.WithRequestID(ctx, fmt.Sprintf("%s-s%02d", jobID, sh.Index))
	cursor := skip
	for requeues := 0; ; requeues++ {
		r, ok := f.reg.PickAlive(sh.Index + requeues)
		if !ok {
			r, ok = f.reg.WaitAlive(sctx, sh.Index+requeues, f.opts.AllDeadGrace)
		}
		if !ok {
			errCh <- fmt.Errorf("fabric: shard %d (%s): no live runner within %s",
				sh.Index, sh.Fingerprint, f.opts.AllDeadGrace)
			return
		}
		err := f.streamShard(sctx, r, sh, &cursor, out)
		if err == nil {
			f.tel.shardCompleted(r.URL())
			return
		}
		if ctx.Err() != nil {
			errCh <- ctx.Err()
			return
		}
		var sf shardFailedError
		var ae *serve.APIError
		switch {
		case errors.As(err, &sf):
			// The runner executed the shard and the campaign itself failed
			// (engine error, deadline): deterministic, don't bounce it
			// around the fleet.
			errCh <- err
			return
		case errors.As(err, &ae) && ae.StatusCode < 500:
			// The fleet rejected the shard spec; every runner would.
			errCh <- fmt.Errorf("fabric: shard %d rejected by %s: %w", sh.Index, r.URL(), err)
			return
		}
		f.reg.ReportFailure(r)
		f.tel.requeued(r.URL(), sh.Index)
		f.log.Warn("shard requeued",
			obs.LogKeyJob, jobID,
			"shard", sh.Index,
			obs.LogKeyFingerprint, sh.Fingerprint,
			"runner", r.URL(),
			"cursor", cursor,
			"error", err.Error())
		if requeues+1 >= f.opts.MaxRequeues {
			errCh <- fmt.Errorf("fabric: shard %d: %d requeues exhausted: %w",
				sh.Index, f.opts.MaxRequeues, err)
			return
		}
	}
}

// streamShard is one dispatch attempt: submit the shard campaign to the
// runner (a resubmission after a requeue is answered from the runner's
// queue or cache by fingerprint) and stream rows after the cursor,
// advancing it per row delivered downstream. On a clean stream end short of
// the window the runner's job went terminal without finishing; the job
// status distinguishes a shard that failed (give up) from one that was
// preempted (retry elsewhere).
func (f *Fabric) streamShard(ctx context.Context, r *Runner, sh Shard, cursor *int,
	out chan<- serve.StreamedRow) error {
	st, err := r.client.Submit(ctx, sh.Spec)
	if err != nil {
		return err
	}
	if st.Fingerprint != sh.Fingerprint {
		return shardFailedError{fmt.Errorf("fabric: runner %s hashed shard %d to %s, plan says %s",
			r.URL(), sh.Index, st.Fingerprint, sh.Fingerprint)}
	}
	defer func() {
		// A coordinator abort (cancel, drain) releases the runner: its
		// checkpoint survives the cancel, so a later re-dispatch resumes.
		if ctx.Err() != nil {
			cctx, cancel := context.WithTimeout(
				obs.WithRequestID(context.Background(), obs.RequestID(ctx)), 2*time.Second)
			r.client.Cancel(cctx, st.ID) //nolint:errcheck // best-effort release
			cancel()
		}
	}()
	// Resolved once per attempt: With takes the family lock, and the
	// shard goroutines would contend on it for every row.
	received := f.tel.runnerRows.With(r.URL())
	_, err = r.client.StreamRows(ctx, st.ID, *cursor-1, func(row serve.StreamedRow) error {
		if row.Index != *cursor {
			return fmt.Errorf("fabric: runner %s shard %d: row %d out of order, want %d",
				r.URL(), sh.Index, row.Index, *cursor)
		}
		select {
		case out <- row:
		case <-ctx.Done():
			return ctx.Err()
		}
		*cursor++
		received.Inc()
		return nil
	})
	if err != nil {
		return err
	}
	if *cursor >= sh.Count {
		return nil
	}
	fin, serr := r.client.Status(ctx, st.ID)
	if serr != nil {
		return serr
	}
	switch fin.State {
	case serve.StateFailed, serve.StateCanceled:
		return shardFailedError{fmt.Errorf("fabric: shard %d %s on runner %s: %s",
			sh.Index, fin.State, r.URL(), fin.Error)}
	default:
		return fmt.Errorf("fabric: runner %s ended shard %d at row %d of %d (job %s)",
			r.URL(), sh.Index, *cursor, sh.Count, fin.State)
	}
}
