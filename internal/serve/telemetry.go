package serve

import (
	"time"

	"wsnlink/internal/adaptive"
	"wsnlink/internal/obs"
)

// tailerStallThreshold classifies a slow row delivery: a send (serialize +
// write + flush to the client) that takes longer than this counts as a
// tailer stall — the signal that a slow reader is holding a streamer
// goroutine, since the spool read side never blocks.
const tailerStallThreshold = 50 * time.Millisecond

// telemetry is the server's pre-resolved metric handle set. Handles are
// resolved once at construction so the recording paths touch only atomics —
// no registry lock, no map lookup, no allocation. A nil *telemetry (no
// registry configured) disables everything: the obs handles are nil and
// every record call is a no-op branch.
type telemetry struct {
	// HTTP surface.
	httpRequests *obs.CounterVec // route, method, code class
	httpInflight *obs.Gauge
	httpLatency  *obs.HistogramVec // route

	// Job lifecycle.
	queueDepth  *obs.Gauge
	queueWait   *obs.Histogram
	runDuration *obs.Histogram
	submitted   *obs.Counter
	deduped     *obs.Counter
	requeued    *obs.Counter

	// Result cache.
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	cachePromotes *obs.Counter
	cacheBytes    *obs.Gauge

	// Shared blob tier.
	blobFetches       *obs.Counter
	blobPublishes     *obs.Counter
	blobPublishErrors *obs.Counter

	// Row streaming.
	tailers      *obs.GaugeVec // job
	rowsStreamed *obs.Counter
	tailerStalls *obs.Counter

	// Adaptive campaigns.
	adaptiveRounds    *obs.Counter
	adaptiveEvals     *obs.Counter
	adaptiveConverged *obs.Counter
	adaptiveFrontSize *obs.Gauge
	adaptiveHVppm     *obs.Gauge
}

// newTelemetry registers the wsnlinkd metric families on reg and resolves
// the fixed-label handles. A nil registry yields a nil telemetry — the
// disabled state every call site must tolerate.
func newTelemetry(reg *obs.Registry) *telemetry {
	if reg == nil {
		return nil
	}
	latBuckets := obs.ExpBuckets(0.0005, 4, 8) // 0.5ms .. ~8s
	runBuckets := obs.ExpBuckets(0.01, 4, 9)   // 10ms .. ~650s
	return &telemetry{
		httpRequests: reg.Counter("wsnlinkd_http_requests_total",
			"HTTP requests by route, method and status class.", "route", "method", "code"),
		httpInflight: reg.Gauge("wsnlinkd_http_inflight_requests",
			"HTTP requests currently being served.").With(),
		httpLatency: reg.Histogram("wsnlinkd_http_request_seconds",
			"HTTP request latency by route.", latBuckets, "route"),

		queueDepth: reg.Gauge("wsnlinkd_jobs_queue_depth",
			"Jobs waiting for a worker slot.").With(),
		queueWait: reg.Histogram("wsnlinkd_job_queue_wait_seconds",
			"Time jobs spent queued before a runner picked them up.", runBuckets).With(),
		runDuration: reg.Histogram("wsnlinkd_job_run_seconds",
			"Campaign run duration, start to terminal state.", runBuckets).With(),
		submitted: reg.Counter("wsnlinkd_jobs_submitted_total",
			"Campaign submissions accepted.").With(),
		deduped: reg.Counter("wsnlinkd_jobs_deduped_total",
			"Queued duplicates answered from the cache after the first runner finished.").With(),
		requeued: reg.Counter("wsnlinkd_jobs_requeued_total",
			"Running jobs checkpointed and returned to the queue by a drain.").With(),

		cacheHits: reg.Counter("wsnlinkd_cache_hits_total",
			"Campaigns answered from the result cache.").With(),
		cacheMisses: reg.Counter("wsnlinkd_cache_misses_total",
			"Campaigns that had to be simulated.").With(),
		cachePromotes: reg.Counter("wsnlinkd_cache_promotes_total",
			"Completed spool datasets promoted into the cache.").With(),
		cacheBytes: reg.Gauge("wsnlinkd_cache_size_bytes",
			"Total size of the result cache on disk.").With(),

		blobFetches: reg.Counter("wsnlinkd_blob_fetches_total",
			"Datasets pulled from the shared blob tier into the local cache.").With(),
		blobPublishes: reg.Counter("wsnlinkd_blob_publishes_total",
			"Promoted datasets published into the shared blob tier.").With(),
		blobPublishErrors: reg.Counter("wsnlinkd_blob_publish_errors_total",
			"Blob publishes that failed (the local result still serves).").With(),

		tailers: reg.Gauge("wsnlinkd_tailers_active",
			"Row streams currently tailing each campaign.", "job"),
		rowsStreamed: reg.Counter("wsnlinkd_rows_streamed_total",
			"NDJSON rows delivered across all row streams.").With(),
		tailerStalls: reg.Counter("wsnlinkd_tailer_stalls_total",
			"Row deliveries that blocked on a slow reader beyond the stall threshold.").With(),

		adaptiveRounds: reg.Counter("wsnlinkd_adaptive_rounds_total",
			"Adaptive exploration rounds completed.").With(),
		adaptiveEvals: reg.Counter("wsnlinkd_adaptive_evaluations_total",
			"Configurations evaluated by completed adaptive campaigns.").With(),
		adaptiveConverged: reg.Counter("wsnlinkd_adaptive_converged_total",
			"Adaptive campaigns whose stopping rule fired before the budget ran out.").With(),
		adaptiveFrontSize: reg.Gauge("wsnlinkd_adaptive_front_size",
			"Pareto-front size after the most recent adaptive round.").With(),
		adaptiveHVppm: reg.Gauge("wsnlinkd_adaptive_hypervolume_ppm",
			"Normalized front hypervolume after the most recent adaptive round, in parts per million.").With(),
	}
}

// Every recorder below is nil-safe so call sites stay unconditional: with
// telemetry disabled the obs handles are reached through a nil *telemetry
// and each method returns after one branch.

func (t *telemetry) jobSubmitted(cacheHit bool) {
	if t == nil {
		return
	}
	t.submitted.Inc()
	if cacheHit {
		t.cacheHits.Inc()
	}
}

func (t *telemetry) jobDeduped() {
	if t == nil {
		return
	}
	t.deduped.Inc()
	t.cacheHits.Inc()
}

func (t *telemetry) jobStarted(queuedMs int64) {
	if t == nil {
		return
	}
	t.cacheMisses.Inc()
	if queuedMs >= 0 {
		t.queueWait.Observe(float64(queuedMs) / 1e3)
	}
}

func (t *telemetry) jobFinished(runMs int64, requeued bool) {
	if t == nil {
		return
	}
	if runMs >= 0 {
		t.runDuration.Observe(float64(runMs) / 1e3)
	}
	if requeued {
		t.requeued.Inc()
	}
}

func (t *telemetry) setQueueDepth(n int64) {
	if t == nil {
		return
	}
	t.queueDepth.Set(n)
}

func (t *telemetry) cachePromoted() {
	if t == nil {
		return
	}
	t.cachePromotes.Inc()
}

func (t *telemetry) blobFetched(fetched bool) {
	if t == nil || !fetched {
		return
	}
	t.blobFetches.Inc()
}

func (t *telemetry) blobPublished() {
	if t == nil {
		return
	}
	t.blobPublishes.Inc()
}

func (t *telemetry) blobPublishFailed() {
	if t == nil {
		return
	}
	t.blobPublishErrors.Inc()
}

// adaptiveRound records one completed exploration round.
func (t *telemetry) adaptiveRound(rd adaptive.Round) {
	if t == nil {
		return
	}
	t.adaptiveRounds.Inc()
	t.adaptiveFrontSize.Set(int64(rd.FrontSize))
	t.adaptiveHVppm.Set(int64(rd.Hypervolume * 1e6))
}

// adaptiveDone records a finished adaptive campaign's totals.
func (t *telemetry) adaptiveDone(res *adaptive.Result) {
	if t == nil {
		return
	}
	t.adaptiveEvals.Add(int64(res.Evaluations))
	if res.Converged {
		t.adaptiveConverged.Inc()
	}
}

// tailerHandles resolves the per-campaign stream instruments once per
// stream, so the per-row path works on plain handles. A job answered from
// its durable record (kept false) gets no per-job gauge: its series left
// the registry with its table entry.
func (t *telemetry) tailerHandles(jobID string, kept bool) (active *obs.Gauge, rows, stalls *obs.Counter) {
	if t == nil {
		return nil, nil, nil
	}
	if kept {
		active = t.tailers.With(jobID)
	}
	return active, t.rowsStreamed, t.tailerStalls
}

// jobLeft drops the per-job series of a job whose entry left the table.
func (t *telemetry) jobLeft(jobID string) {
	if t == nil {
		return
	}
	t.tailers.Delete(jobID)
}

// queueDepthLocked recounts queued jobs and updates the depth gauge.
// Callers hold s.mu; with telemetry disabled this is a single branch.
func (s *Server) queueDepthLocked() {
	if s.tel == nil {
		return
	}
	var n int64
	for _, e := range s.order {
		if e.job.State == StateQueued {
			n++
		}
	}
	s.tel.setQueueDepth(n)
}
