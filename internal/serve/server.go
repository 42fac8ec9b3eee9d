package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wsnlink/internal/adaptive"
	"wsnlink/internal/obs"
	"wsnlink/internal/scenario"
	"wsnlink/internal/stack"
	"wsnlink/internal/sweep"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull: the bounded queue rejected the submission (HTTP 429).
	ErrQueueFull = errors.New("serve: job queue is full")
	// ErrDraining: the server is shutting down (HTTP 503).
	ErrDraining = errors.New("serve: server is draining")
	// ErrNotFound: unknown job ID (HTTP 404).
	ErrNotFound = errors.New("serve: no such job")
)

// Options configures a Server.
type Options struct {
	// Jobs is the number of campaigns simulated concurrently (default 1).
	// Each job additionally runs its own sweep worker pool, bounded by
	// Limits.MaxWorkers.
	Jobs int
	// MaxQueue bounds queued-plus-running jobs; beyond it Submit returns
	// ErrQueueFull (default 64).
	MaxQueue int
	// Limits are the per-submission guard rails.
	Limits Limits
	// Registry receives the service's labeled metric families (HTTP,
	// queue, cache, row streaming). Nil disables telemetry entirely: the
	// recording paths reduce to single nil checks and /metrics answers 503.
	Registry *obs.Registry
	// Logger receives structured lifecycle events (submissions, state
	// transitions, drain checkpoints) with the canonical obs.LogKey*
	// attributes. Nil discards them.
	Logger *slog.Logger
	// Executor, when set, produces campaign rows instead of the local
	// sweep engines — the coordinator mode plugs the distributed fabric in
	// here. Queueing, spooling, checkpointing, streaming and caching are
	// unchanged.
	Executor Executor
	// Blobs, when set, is the shared cache tier: promoted datasets are
	// published into it and cache lookups fall back to it, so a fleet of
	// runners shares one content-addressed result set.
	Blobs BlobStore

	// RowGate is a test seam, nil in production: it parks a local job
	// after the row with index RowGate.At has been spooled, so a test can
	// cancel, drain or kill a daemon at an exact point of a campaign
	// instead of racing the clock (see sweep.RowGate).
	RowGate *sweep.RowGate
}

// jobEntry pairs a durable job record with its live run state. The record
// and flags are guarded by Server.mu; prog/metrics/notify are themselves
// concurrency-safe. Once durable, the entry holds nothing its record does
// not: a finished run's record carries its frozen metrics and progress.
type jobEntry struct {
	job        *Job
	cancel     context.CancelFunc
	userCancel bool  // DELETE requested: finish as canceled
	requeue    bool  // drain requested: finish back to queued
	ready      bool  // spool prepared; streamers may open it
	enqueuedMs int64 // when the job (re)entered the queue, for queue-wait
	prog       sweep.Progress
	metrics    *obs.Metrics
	notify     notifier
	durable    bool // finished and its final record is on disk
}

// finishedInMemory is how many of the newest durable finished jobs keep
// their entries in the job table; older ones are answered from the job
// store.
const finishedInMemory = 256

// Server is the campaign service: a durable FIFO job queue, a bounded pool
// of campaign runners over the sweep engine, and a fingerprint-keyed result
// cache. It is the transport-independent core; http.go adapts it to REST
// and cmd/wsnlinkd wraps it in a daemon.
type Server struct {
	store *Store
	opts  Options
	tel   *telemetry // nil when Options.Registry is nil
	log   *slog.Logger

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*jobEntry
	order    []*jobEntry // submission order (Seq ascending)
	seq      int
	draining bool
	trimAt   int  // len(order) at which Submit next calls trimLocked
	evicted  bool // some finished job left the table (trimLocked)

	wake  chan struct{}
	wg    sync.WaitGroup // scheduler
	jobWG sync.WaitGroup // running jobs

	submitted, completed, failed, canceled atomic.Int64
	cacheHits, cacheMisses                 atomic.Int64
}

// Open loads (or initializes) the data directory and starts the scheduler.
// Jobs found in state "running" were in flight when a previous daemon died;
// they are requeued and resume from their checkpoint sidecar.
func Open(dir string, opts Options) (*Server, error) {
	return openFS(dir, opts, osFS{})
}

// openFS is Open with an injectable filesystem (fault-injection tests).
func openFS(dir string, opts Options, fsys fsOps) (*Server, error) {
	store, err := openStoreFS(dir, fsys)
	if err != nil {
		return nil, err
	}
	store.blobs = opts.Blobs
	if opts.Jobs <= 0 {
		opts.Jobs = 1
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 64
	}
	s := &Server{
		store: store,
		opts:  opts,
		tel:   newTelemetry(opts.Registry),
		log:   opts.Logger,
		jobs:  make(map[string]*jobEntry),
		wake:  make(chan struct{}, 1),
	}
	if s.log == nil {
		s.log = obs.NopLogger()
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())

	jobs, err := store.LoadJobs()
	if err != nil {
		return nil, err
	}
	now := time.Now().UnixMilli()
	for _, j := range jobs {
		if j.State == StateRunning {
			j.State = StateQueued
			if err := store.PutJob(j); err != nil {
				return nil, err
			}
			s.log.Info("recovered in-flight job into queue",
				obs.LogKeyJob, j.ID,
				obs.LogKeyFingerprint, j.Fingerprint,
				"checkpoint", j.ResumedFrom)
		}
		e := &jobEntry{job: j, enqueuedMs: now, durable: j.State.Terminal()}
		s.jobs[j.ID] = e
		s.order = append(s.order, e)
		if j.Seq > s.seq {
			s.seq = j.Seq
		}
	}
	s.mu.Lock()
	s.trimLocked()
	s.queueDepthLocked()
	s.mu.Unlock()
	if s.tel != nil {
		store.mirrorCacheSize(s.tel.cacheBytes)
	}

	s.wg.Add(1)
	go s.schedule()
	s.kick()
	return s, nil
}

// Store exposes the underlying data directory (read-only use: tests and the
// daemon's diagnostics).
func (s *Server) Store() *Store { return s.store }

// kick nudges the scheduler without blocking.
func (s *Server) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Submit validates and enqueues a campaign. When the result cache already
// holds the campaign's dataset the job completes immediately as a cache
// hit, without ever reaching the worker pool.
func (s *Server) Submit(spec CampaignSpec) (JobStatus, error) {
	return s.SubmitCtx(context.Background(), spec)
}

// SubmitCtx is Submit with a caller context: its correlation ID (if any)
// is attached to the submission log line, tying the HTTP hop to the job.
func (s *Server) SubmitCtx(ctx context.Context, spec CampaignSpec) (JobStatus, error) {
	norm, sp, err := spec.normalize(s.opts.Limits)
	if err != nil {
		return JobStatus{}, err
	}
	fingerprint, err := norm.fingerprint(norm.shardConfigs(sp))
	if err != nil {
		return JobStatus{}, err
	}
	fp := obs.FormatFingerprint(fingerprint)
	now := time.Now().UnixMilli()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, ErrDraining
	}
	active := 0
	for _, e := range s.order {
		if !e.job.State.Terminal() {
			active++
		}
	}
	if active >= s.opts.MaxQueue {
		return JobStatus{}, ErrQueueFull
	}
	s.seq++
	j := &Job{
		ID:          fmt.Sprintf("c%06d", s.seq),
		Seq:         s.seq,
		State:       StateQueued,
		Spec:        norm,
		Fingerprint: fp,
		Configs:     norm.configCount(sp),
		CreatedMs:   now,
	}
	if hit, fetched := s.store.EnsureCached(fp); hit {
		j.State = StateDone
		j.CacheHit = true
		j.FinishedMs = now
		s.tel.blobFetched(fetched)
	}
	if err := s.store.PutJob(j); err != nil {
		s.seq--
		return JobStatus{}, err
	}
	e := &jobEntry{job: j, enqueuedMs: now, durable: j.CacheHit}
	s.jobs[j.ID] = e
	s.order = append(s.order, e)
	if len(s.order) >= s.trimAt {
		s.trimLocked()
	}
	s.submitted.Add(1)
	s.tel.jobSubmitted(j.CacheHit)
	if j.CacheHit {
		s.cacheHits.Add(1)
		s.completed.Add(1)
	} else {
		s.kick()
	}
	s.queueDepthLocked()
	attrs := []any{
		obs.LogKeyJob, j.ID,
		obs.LogKeyFingerprint, j.Fingerprint,
		obs.LogKeyScenario, string(j.Spec.ScenarioKind()),
		"configs", j.Configs,
		"cache_hit", j.CacheHit,
	}
	if rid := obs.RequestID(ctx); rid != "" {
		attrs = append(attrs, obs.LogKeyRequestID, rid)
	}
	s.log.Info("campaign submitted", attrs...)
	return s.statusLocked(e), nil
}

// trimLocked lets the oldest durable finished jobs leave memory, keeping
// the newest finishedInMemory of them, so a long-lived daemon's job table
// stops growing with every campaign it answers. Status, Cancel,
// StreamRows and List answer a job that left from its durable record
// instead. Submit calls it each time the table has grown by
// finishedInMemory entries, so the scan is amortised O(1) per submission.
// Callers hold s.mu.
func (s *Server) trimLocked() {
	spare := -finishedInMemory
	for _, e := range s.order {
		if e.durable {
			spare++
		}
	}
	if spare > 0 {
		kept := make([]*jobEntry, 0, len(s.order)-spare)
		for _, e := range s.order {
			if spare > 0 && e.durable {
				spare--
				delete(s.jobs, e.job.ID)
				s.tel.jobLeft(e.job.ID)
				continue
			}
			kept = append(kept, e)
		}
		s.order = kept
		s.evicted = true
	}
	s.trimAt = len(s.order) + finishedInMemory
}

// entryLocked returns a job's entry and whether it lives in the job table.
// A finished job that left the table comes back as a detached entry over
// its durable record, read from disk under the lock (only IDs that are in
// no table pay for it). A nil entry means no such job. Callers hold s.mu.
func (s *Server) entryLocked(id string) (e *jobEntry, kept bool) {
	if e, ok := s.jobs[id]; ok {
		return e, true
	}
	if !s.evicted {
		return nil, false
	}
	j, err := s.store.GetJob(id)
	if err != nil {
		return nil, false
	}
	return &jobEntry{job: j, durable: true}, false
}

// Status returns a job's live status.
func (s *Server) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, _ := s.entryLocked(id)
	if e == nil {
		return JobStatus{}, ErrNotFound
	}
	return s.statusLocked(e), nil
}

// List returns every known job in submission order.
func (s *Server) List() []JobStatus {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.order))
	for _, e := range s.order {
		out = append(out, s.statusLocked(e))
	}
	evicted := s.evicted
	s.mu.Unlock()
	if !evicted {
		return out
	}
	// Finished jobs that left the table are listed from their durable
	// records, read outside the lock. A detached entry is private to this
	// call, so statusLocked needs no lock for it.
	jobs, err := s.store.LoadJobs()
	if err != nil {
		return out
	}
	listed := make(map[string]bool, len(out))
	for _, st := range out {
		listed[st.ID] = true
	}
	for _, j := range jobs {
		if !listed[j.ID] {
			out = append(out, s.statusLocked(&jobEntry{job: j}))
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Seq < out[k].Seq })
	return out
}

// Latest returns the newest job that is not yet finished, or else the
// newest job, from the in-memory job table alone (it reads no job record).
// The newest job and every unfinished one are always in the table. ok is
// false when the server has no jobs.
func (s *Server) Latest() (st JobStatus, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) == 0 {
		return JobStatus{}, false
	}
	pick := s.order[len(s.order)-1]
	for i := len(s.order) - 1; i >= 0; i-- {
		if !s.order[i].job.State.Terminal() {
			pick = s.order[i]
			break
		}
	}
	return s.statusLocked(pick), true
}

// Stats returns the server-level counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Submitted:   s.submitted.Load(),
		Completed:   s.completed.Load(),
		Failed:      s.failed.Load(),
		Canceled:    s.canceled.Load(),
		CacheHits:   s.cacheHits.Load(),
		CacheMisses: s.cacheMisses.Load(),
	}
	s.mu.Lock()
	for _, e := range s.order {
		switch e.job.State {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		}
	}
	s.mu.Unlock()
	return st
}

// Cancel stops a job. A queued job is canceled in place; a running job's
// context is canceled and the job transitions asynchronously (its rows so
// far stay checkpointed in the spool). Terminal jobs are returned as-is.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	e, _ := s.entryLocked(id)
	if e == nil {
		s.mu.Unlock()
		return JobStatus{}, ErrNotFound
	}
	var cancel context.CancelFunc
	switch e.job.State {
	case StateQueued:
		e.job.State = StateCanceled
		e.job.Error = "canceled"
		e.job.FinishedMs = time.Now().UnixMilli()
		s.canceled.Add(1)
		s.queueDepthLocked()
		// A failed write keeps the entry in memory, where the state is.
		e.durable = s.store.PutJob(e.job) == nil
	case StateRunning:
		e.userCancel = true
		cancel = e.cancel
	}
	st := s.statusLocked(e)
	s.mu.Unlock()
	e.notify.Broadcast()
	if cancel != nil {
		cancel()
	}
	return st, nil
}

// Drain gracefully shuts the server down: no new submissions, no new
// scheduling, in-flight jobs are canceled (their checkpoints make them
// resumable) and returned to the queue, which persists on disk for the next
// daemon start. Drain returns when every runner has stopped, or when ctx
// expires.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	var cancels []context.CancelFunc
	for _, e := range s.order {
		if e.job.State == StateRunning && e.cancel != nil {
			e.requeue = true
			cancels = append(cancels, e.cancel)
		}
	}
	s.mu.Unlock()
	s.log.Info("drain started", "inflight", len(cancels))
	for _, c := range cancels {
		c()
	}
	stopped := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(stopped)
	}()
	var err error
	select {
	case <-stopped:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.cancel()
	s.wg.Wait()
	return err
}

// Draining reports whether Drain has been initiated. The HTTP readiness
// probe uses it to fail fast once shutdown starts.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// schedule is the queue pump: every wake-up it starts as many runnable jobs
// as the concurrency limit allows.
func (s *Server) schedule() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-s.wake:
		}
		s.startRunnable()
	}
}

// startRunnable picks queued jobs in FIFO order. A job whose fingerprint is
// already running stays queued (single-flight: the duplicate is answered
// from the cache once the original completes); a job whose result appeared
// in the cache meanwhile completes on the spot as a cache hit.
func (s *Server) startRunnable() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	for {
		running := 0
		activeFP := make(map[string]bool)
		for _, e := range s.order {
			if e.job.State == StateRunning {
				running++
				activeFP[e.job.Fingerprint] = true
			}
		}
		if running >= s.opts.Jobs {
			return
		}
		var pick *jobEntry
		for _, e := range s.order {
			if e.job.State != StateQueued || activeFP[e.job.Fingerprint] {
				continue
			}
			if hit, fetched := s.store.EnsureCached(e.job.Fingerprint); hit {
				s.tel.blobFetched(fetched)
				e.job.State = StateDone
				e.job.CacheHit = true
				e.job.FinishedMs = time.Now().UnixMilli()
				s.cacheHits.Add(1)
				s.completed.Add(1)
				s.tel.jobDeduped()
				s.queueDepthLocked()
				// A failed write keeps the entry in memory, where the state is.
				e.durable = s.store.PutJob(e.job) == nil
				s.log.Info("queued duplicate answered from cache",
					obs.LogKeyJob, e.job.ID,
					obs.LogKeyFingerprint, e.job.Fingerprint)
				e.notify.Broadcast()
				continue
			}
			pick = e
			break
		}
		if pick == nil {
			return
		}
		s.startLocked(pick)
	}
}

// startLocked transitions a job to running and launches its runner.
func (s *Server) startLocked(e *jobEntry) {
	e.job.State = StateRunning
	e.job.StartedMs = time.Now().UnixMilli()
	e.userCancel, e.requeue, e.ready = false, false, false
	var ctx context.Context
	if d := e.job.Spec.DeadlineS; d > 0 {
		ctx, e.cancel = context.WithTimeout(s.ctx, time.Duration(d*float64(time.Second)))
	} else {
		ctx, e.cancel = context.WithCancel(s.ctx)
	}
	e.metrics = obs.New()
	s.cacheMisses.Add(1)
	s.tel.jobStarted(e.job.StartedMs - e.enqueuedMs)
	s.queueDepthLocked()
	s.store.PutJob(e.job) //nolint:errcheck // state change is also in memory
	s.log.Info("campaign started",
		obs.LogKeyJob, e.job.ID,
		obs.LogKeyFingerprint, e.job.Fingerprint,
		obs.LogKeyScenario, string(e.job.Spec.ScenarioKind()),
		"queued_ms", e.job.StartedMs-e.enqueuedMs)
	s.jobWG.Add(1)
	go s.runJob(e, ctx)
}

// runJob executes one campaign and records its outcome.
func (s *Server) runJob(e *jobEntry, ctx context.Context) {
	defer s.jobWG.Done()
	err := s.executeJob(e, ctx)
	s.finishJob(e, err)
	s.kick()
}

// executeJob streams the campaign into the spool dataset (resuming from any
// checkpoint an earlier attempt left) and promotes it into the cache on
// completion. The scenario kind picks the engine entry point and the spool
// schema; everything else — checkpoint sidecar, resume, promotion, tracing
// — is shared.
func (s *Server) executeJob(e *jobEntry, ctx context.Context) error {
	spec := e.job.Spec // immutable after Submit
	sp := spec.Space.Space()
	cfgs := spec.shardConfigs(sp)
	opts := spec.options()
	opts.Metrics = e.metrics
	opts.Progress = &e.prog

	scn, err := spec.ScenarioSpec()
	if err != nil {
		return err
	}
	link := scn.Kind == scenario.KindLink

	fingerprint, err := spec.fingerprint(cfgs)
	if err != nil {
		return err
	}
	fp := obs.FormatFingerprint(fingerprint)
	if fp != e.job.Fingerprint {
		return fmt.Errorf("serve: internal: fingerprint drift (%s vs %s)", fp, e.job.Fingerprint)
	}
	if spec.Mode == ModeAdaptive {
		// Adaptive exploration is sequential-by-round and cannot be cut
		// into shards, so it always runs on the local engine — even on a
		// coordinator whose exhaustive campaigns go through the Executor.
		return s.executeAdaptive(ctx, e, spec, sp, fingerprint, fp)
	}
	if s.opts.Executor != nil {
		return s.executeRemote(ctx, e, spec, scn, cfgs, fingerprint, fp)
	}
	if spec.TraceSample > 0 {
		opts.Tracer = obs.NewTracer(obs.DefaultTraceCapacity)
	}

	spool, resume, _, err := prepareSpool(s.store, fp, fingerprint, len(cfgs), !link)
	if err != nil {
		return err
	}
	opts.Checkpoint = s.store.SpoolCheckpoint(fp)
	opts.Resume = resume
	// Rows are rendered into the spool's buffer as the engine yields them;
	// the engine's group commit writes each emitted run out in one write,
	// before it checkpoints the run, and the streamers wake once per run.
	opts.Commit = func() error {
		if err := spool.commit(); err != nil {
			return err
		}
		e.notify.Broadcast()
		return nil
	}

	s.mu.Lock()
	e.job.ResumedFrom = spool.next
	e.ready = true
	s.mu.Unlock()
	e.notify.Broadcast()

	var streamErr error
	if link {
		streamErr = sweep.StreamConfigs(ctx, cfgs, opts, func(r sweep.Row) error {
			spool.addLink(&r)
			return s.opts.RowGate.Pass(ctx, spool.next-1)
		})
	} else {
		streamErr = sweep.StreamScenarios(ctx, scn, cfgs, opts, func(r scenario.Row) error {
			spool.addScenario(&r)
			return s.opts.RowGate.Pass(ctx, spool.next-1)
		})
	}
	closeErr := spool.f.Close()

	if opts.Tracer != nil {
		// Best-effort: an interrupted campaign's trace is often exactly
		// what is wanted; never let trace IO mask the run outcome.
		tracePath := s.store.TracePath(e.job.ID)
		if werr := writeTrace(s.store.fs, tracePath, opts.Tracer); werr == nil {
			s.mu.Lock()
			e.job.TracePath = tracePath
			s.mu.Unlock()
		}
	}

	if streamErr != nil {
		return streamErr
	}
	if closeErr != nil {
		return closeErr
	}
	if err := s.store.Promote(fp); err != nil {
		return err
	}
	s.publishPromoted(fp)
	s.tel.cachePromoted()
	return nil
}

// publishPromoted copies a freshly promoted dataset into the shared blob
// tier, best-effort: the local result is complete and served either way,
// so a blob-store outage is logged, counted, and otherwise ignored.
func (s *Server) publishPromoted(fp string) {
	if s.opts.Blobs == nil {
		return
	}
	if err := s.store.PublishCache(fp); err != nil {
		s.tel.blobPublishFailed()
		s.log.Warn("blob publish failed",
			obs.LogKeyFingerprint, fp,
			"error", err.Error())
		return
	}
	s.tel.blobPublished()
}

// finishJob applies the terminal (or requeued) state and persists it.
func (s *Server) finishJob(e *jobEntry, err error) {
	s.mu.Lock()
	now := time.Now().UnixMilli()
	if e.cancel != nil {
		e.cancel() // release the deadline timer
		e.cancel = nil
	}
	e.metrics.Stop() // the run is over: its reported rates stop moving
	switch {
	case err == nil:
		e.job.State = StateDone
		e.job.Error = ""
		e.job.FinishedMs = now
		s.completed.Add(1)
	case e.userCancel:
		e.job.State = StateCanceled
		e.job.Error = "canceled"
		e.job.FinishedMs = now
		s.canceled.Add(1)
	case e.requeue:
		// Drain: back to the queue, checkpoint on disk, no terminal
		// timestamp — the next daemon start resumes it.
		e.job.State = StateQueued
		e.job.Error = ""
		e.ready = false
		e.enqueuedMs = now
	case errors.Is(err, context.DeadlineExceeded):
		e.job.State = StateFailed
		e.job.Error = "job deadline exceeded (checkpoint kept; resubmit to resume): " + err.Error()
		e.job.FinishedMs = now
		s.failed.Add(1)
	default:
		e.job.State = StateFailed
		e.job.Error = err.Error()
		e.job.FinishedMs = now
		s.failed.Add(1)
	}
	state := e.job.State
	requeued := state == StateQueued
	checkpoint := e.prog.Snapshot().Done
	s.tel.jobFinished(now-e.job.StartedMs, requeued)
	s.queueDepthLocked()
	// The end is logged before s.mu is released, so a client that sees the
	// job's new state can already read its line.
	if requeued {
		s.store.PutJob(e.job) //nolint:errcheck // state change is also in memory
		// The drain audit trail: which jobs went back to the queue and how
		// many rows their checkpoints hold, so an operator can verify the
		// next daemon start resumes from exactly here.
		s.log.Info("job requeued with checkpoint",
			obs.LogKeyJob, e.job.ID,
			obs.LogKeyFingerprint, e.job.Fingerprint,
			obs.LogKeyScenario, string(e.job.Spec.ScenarioKind()),
			"checkpoint", checkpoint)
	} else {
		// The final record carries everything statusLocked reads from the
		// live run, so the entry can leave memory and the job still
		// answers the same. The metrics snapshot goes only into the
		// written copy: the entry keeps its frozen e.metrics instead.
		st := s.statusLocked(e)
		if state != StateDone {
			e.job.RunDone, e.job.RunErrors = st.Done, st.Errors
		}
		rec := *e.job
		rec.Metrics = st.Metrics
		// A failed write keeps the entry in memory, where the state is.
		e.durable = s.store.PutJob(&rec) == nil
		attrs := []any{
			obs.LogKeyJob, e.job.ID,
			obs.LogKeyFingerprint, e.job.Fingerprint,
			"state", string(state),
			"run_ms", now - e.job.StartedMs,
		}
		if err != nil {
			attrs = append(attrs, "error", err.Error())
		}
		s.log.Info("campaign finished", attrs...)
	}
	s.mu.Unlock()
	e.notify.Broadcast()
}

// statusLocked assembles the live view. Callers hold s.mu.
func (s *Server) statusLocked(e *jobEntry) JobStatus {
	st := JobStatus{Job: *e.job}
	st.Total = int64(e.job.Configs)
	ps := e.prog.Snapshot()
	switch {
	case e.job.State == StateDone:
		st.Done = st.Total
	case ps.Total > 0: // the engine ran (or is running) in this process
		st.Done, st.Errors = ps.Done, ps.Errors
	case e.job.RunDone > 0 || e.job.RunErrors > 0: // a finished run's record
		st.Done, st.Errors = e.job.RunDone, e.job.RunErrors
	default: // queued/requeued: the checkpointed prefix is what's durable
		st.Done = int64(e.job.ResumedFrom)
	}
	if e.metrics != nil {
		snap := e.metrics.Snapshot()
		st.Metrics = &snap
	}
	return st
}

// executeAdaptive runs an adaptive campaign through the explorer, reusing
// the exhaustive machinery end to end: the spool holds the rows in
// evaluation order, the checkpoint sidecar records the durable prefix
// (its configs header is the budget), and on resume the spooled prefix
// replays through the explorer's deterministic selection instead of
// re-simulating.
func (s *Server) executeAdaptive(ctx context.Context, e *jobEntry, spec CampaignSpec, sp stack.Space, fingerprint uint64, fp string) error {
	budget := spec.Adaptive.Budget // normalize guarantees the block
	spool, resume, prefix, err := prepareSpool(s.store, fp, fingerprint, budget, false)
	if err != nil {
		return err
	}
	resumeRows, err := spoolRows(prefix)
	if err != nil {
		spool.f.Close()
		return err
	}

	aopts := spec.adaptiveOptions()
	aopts.Metrics = e.metrics
	aopts.Progress = &e.prog
	aopts.Checkpoint = s.store.SpoolCheckpoint(fp)
	aopts.Resume = resume
	aopts.ResumeRows = resumeRows
	aopts.OnRound = func(rd adaptive.Round) {
		s.tel.adaptiveRound(rd)
		s.log.Info("adaptive round",
			obs.LogKeyJob, e.job.ID,
			obs.LogKeyFingerprint, fp,
			"round", rd.Index,
			"kind", rd.Kind,
			"evals", rd.Evals,
			"front_size", rd.FrontSize,
			"hypervolume", rd.Hypervolume,
			"stable", rd.Stable)
	}

	s.mu.Lock()
	e.job.ResumedFrom = spool.next
	e.ready = true
	s.mu.Unlock()
	e.notify.Broadcast()

	// The explorer checkpoints each row inside this yield, so every row is
	// its own group: written out before the explorer appends its index.
	res, streamErr := adaptive.Stream(ctx, sp, aopts, func(r sweep.Row) error {
		spool.addLink(&r)
		if err := spool.commit(); err != nil {
			return err
		}
		e.notify.Broadcast()
		return s.opts.RowGate.Pass(ctx, spool.next-1)
	})
	closeErr := spool.f.Close()
	if streamErr != nil {
		return streamErr
	}
	if closeErr != nil {
		return closeErr
	}
	// A converged exploration stops under budget; the dataset's real row
	// count is what Status should report as the total.
	s.mu.Lock()
	e.job.Configs = res.Evaluations
	s.mu.Unlock()
	s.tel.adaptiveDone(res)
	if err := s.store.Promote(fp); err != nil {
		return err
	}
	s.publishPromoted(fp)
	s.tel.cachePromoted()
	return nil
}

// writeTrace exports a job's lifecycle events as a Chrome trace.
func writeTrace(fsys fsOps, path string, tr *obs.Tracer) error {
	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTrace(f, path, tr.Events()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// notifier is a broadcast edge: Wait returns a channel closed by the next
// Broadcast. Row appends and state transitions broadcast on it, waking any
// number of streamers without polling. A generation's channel is made by
// its first Wait, so a job nobody waits on — a cache hit, a run with no
// streamer attached — allocates none and keeps none. The zero value is
// ready.
type notifier struct {
	mu sync.Mutex
	ch chan struct{}
}

// Wait returns the current generation's channel.
func (n *notifier) Wait() <-chan struct{} {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ch == nil {
		n.ch = make(chan struct{})
	}
	return n.ch
}

// Broadcast wakes every waiter and opens a new generation.
func (n *notifier) Broadcast() {
	n.mu.Lock()
	if n.ch != nil {
		close(n.ch)
		n.ch = nil
	}
	n.mu.Unlock()
}
