package fabric

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
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
	// ShardsPerRunner scales the plan: a campaign is cut into at most
	// ShardsPerRunner * len(Runners) shards, so losing one runner requeues
	// fractions of the campaign, not half of it. A campaign too small to
	// pay for that many shards gets fewer (see PlanShards). 0 = 2.
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
// a live runner, and merge the streams in shard order into job.EmitLine.
// The merge splices each runner line into the job's spool renumbered back
// into the job's local space, so the coordinator's spool, checkpoint and
// NDJSON stream are byte-identical to a single daemon running the whole
// campaign, without decoding a row.
//
// Shard streams run concurrently: each feeds a bounded lineFeed while the
// merge loop drains them strictly in shard order (rows must reach EmitLine
// densely), taking every line a shard has buffered at once. A failed
// runner's shard is requeued on a surviving runner from the shard's own
// cursor — rows already buffered or merged are never re-requested, and the
// runner resumes from its checkpoint.
func (f *Fabric) ExecuteCampaign(ctx context.Context, job *serve.ExecJob) error {
	runners := len(f.reg.Runners())
	plan, err := PlanShards(job.Spec, f.opts.ShardsPerRunner*runners)
	if err != nil {
		return err
	}
	f.tel.planned(len(plan.Shards))
	f.log.Info("campaign sharded",
		obs.LogKeyJob, job.ID,
		obs.LogKeyFingerprint, plan.Campaign,
		"configs", plan.Configs,
		"shards", len(plan.Shards),
		"runners", runners)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	base := job.Spec.ShardOffset // global offset of the job's row 0
	feeds := make([]*lineFeed, len(plan.Shards))
	// submitted[i] closes once shard i's first submit has returned.
	submitted := make([]chan struct{}, len(plan.Shards))
	errCh := make(chan error, len(plan.Shards))
	for i, sh := range plan.Shards {
		feeds[i] = newLineFeed(f.opts.ShardBuffer)
		submitted[i] = make(chan struct{})
		local := sh.Offset - base
		// Rows the coordinator already checkpointed are never re-fetched:
		// a fully-merged shard is skipped outright, a partial one resumes
		// mid-window.
		skip := job.Resume - local
		if skip < 0 {
			skip = 0
		}
		if skip >= sh.Count {
			feeds[i].close()
			close(submitted[i])
			continue
		}
		// A runner's queue is FIFO and shard i lands on runner i mod R:
		// submitting after shard i-R keeps each runner's queue in merge
		// order, so no runner works ahead of the shard the merge waits for.
		var prev <-chan struct{}
		if i >= runners {
			prev = submitted[i-runners]
		}
		go f.runShard(ctx, job.ID, sh, skip, prev, submitted[i], feeds[i], errCh)
	}

	// Resolved once: With takes the family lock, too dear per run.
	merged := f.tel.rowsMerged.With()
	var run []byte
	next := job.Resume
	for i, sh := range plan.Shards {
		local := sh.Offset - base
		for next < local+sh.Count {
			lines, rows, closed := feeds[i].take(run)
			run = lines[:0]
			if rows == 0 {
				if closed {
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
				// Nothing merged is waiting behind this row: commit the
				// run so far before blocking, so the coordinator's
				// streamers follow the merge a run at a time.
				if err := job.Commit(); err != nil {
					return err
				}
				select {
				case <-feeds[i].ready:
				case err := <-errCh:
					return err
				case <-ctx.Done():
					return ctx.Err()
				}
				continue
			}
			for len(lines) > 0 {
				nl := bytes.IndexByte(lines, '\n')
				if err := job.EmitLine(next, lines[:nl]); err != nil {
					return err
				}
				next++
				lines = lines[nl+1:]
			}
			merged.Add(int64(rows))
		}
	}
	return nil
}

// lineFeed hands one shard's rows from its stream to the merge as runs of
// lines: the stream appends each line under the lock, and the merge takes
// every line buffered so far in one swap, so a burst the runner sent
// together crosses over together. At most limit rows wait in the feed; a
// stream that far ahead of the merge blocks until the merge takes them.
type lineFeed struct {
	mu     sync.Mutex
	lines  []byte // newline-terminated rows not yet taken
	rows   int
	closed bool
	limit  int
	ready  chan struct{} // lines arrived or the feed closed
	space  chan struct{} // the merge took the buffered lines
}

func newLineFeed(limit int) *lineFeed {
	return &lineFeed{limit: limit, ready: make(chan struct{}, 1), space: make(chan struct{}, 1)}
}

// signal leaves a wake-up on a one-slot channel unless one is pending.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// put appends one line, first waiting while limit rows are buffered.
func (f *lineFeed) put(ctx context.Context, line []byte) error {
	f.mu.Lock()
	for f.rows >= f.limit {
		f.mu.Unlock()
		select {
		case <-f.space:
		case <-ctx.Done():
			return ctx.Err()
		}
		f.mu.Lock()
	}
	f.lines = append(append(f.lines, line...), '\n')
	f.rows++
	f.mu.Unlock()
	signal(f.ready)
	return nil
}

// close ends the feed: the merge takes what is buffered, then sees it
// closed.
func (f *lineFeed) close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	signal(f.ready)
}

// take returns the buffered lines and their row count, leaving spare (an
// emptied buffer the merge is done with) in their place, and whether the
// feed is closed.
func (f *lineFeed) take(spare []byte) (lines []byte, rows int, closed bool) {
	f.mu.Lock()
	lines, rows, closed = f.lines, f.rows, f.closed
	f.lines, f.rows = spare, 0
	f.mu.Unlock()
	if rows > 0 {
		signal(f.space)
	}
	return lines, rows, closed
}

// runShard owns one shard's lifecycle: pick a live runner, submit, stream
// from the cursor, and on transport failure requeue the remainder on
// another runner. Rows land on feed in shard-local order starting at skip;
// feed is closed when the shard is finished or abandoned (with the error
// on errCh). The first submit waits for prev to close and then closes
// submitted; requeues do not wait.
func (f *Fabric) runShard(ctx context.Context, jobID string, sh Shard, skip int,
	prev <-chan struct{}, submitted chan struct{}, feed *lineFeed, errCh chan<- error) {
	defer feed.close()
	release := sync.OnceFunc(func() { close(submitted) })
	defer release()
	if prev != nil {
		select {
		case <-prev:
		case <-ctx.Done():
			errCh <- ctx.Err()
			return
		}
	}
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
		err := f.streamShard(sctx, r, sh, &cursor, release, feed)
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
	submitted func(), feed *lineFeed) error {
	st, err := r.client.Submit(ctx, sh.Spec)
	submitted()
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
	_, err = r.client.StreamLines(ctx, st.ID, *cursor-1, func(index int, line []byte) error {
		if index != *cursor || index >= sh.Count {
			return fmt.Errorf("fabric: runner %s shard %d: row %d out of order, want %d of %d",
				r.URL(), sh.Index, index, *cursor, sh.Count)
		}
		if err := feed.put(ctx, line); err != nil {
			return err
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
