package sweep

import "sync/atomic"

// Progress is a lock-free campaign progress counter the engine keeps up to
// date when RunOptions.Progress points at it. Unlike the yield callback it
// never serializes the worker pool and can be polled from any goroutine —
// a CLI ticker, an expvar func, or the obs layer — at any rate.
//
// The engine resets it when a run starts (Done begins at the resumed
// checkpoint prefix, Errors at zero) and increments it as configurations
// finish; one Progress therefore tracks one run at a time, but it may be
// reused across consecutive runs.
type Progress struct {
	total  atomic.Int64
	done   atomic.Int64
	errors atomic.Int64
}

// ProgressSnapshot is one atomic-reads view of a campaign's progress.
type ProgressSnapshot struct {
	// Done counts configurations handled so far, including a resumed
	// checkpoint prefix and failed configurations.
	Done int64 `json:"done"`
	// Total is the campaign size in configurations.
	Total int64 `json:"total"`
	// Errors counts failed configurations (always 0 or 1 under FailFast).
	Errors int64 `json:"errors"`
}

// Remaining returns Total - Done (never negative).
func (s ProgressSnapshot) Remaining() int64 {
	if r := s.Total - s.Done; r > 0 {
		return r
	}
	return 0
}

// Snapshot reads the current progress. Each field is read atomically; the
// triple lags in-flight updates by at most one configuration.
func (p *Progress) Snapshot() ProgressSnapshot {
	return ProgressSnapshot{
		Done:   p.done.Load(),
		Total:  p.total.Load(),
		Errors: p.errors.Load(),
	}
}

// begin initializes the counters for a run resuming after done of total.
func (p *Progress) begin(total, done int) {
	p.total.Store(int64(total))
	p.done.Store(int64(done))
	p.errors.Store(0)
}

// Begin initializes the counters for a run resuming after done of total
// configurations. It is the exported entry point for executors that drive
// a campaign outside this package's engines (the engines call it
// themselves when RunOptions.Progress is set).
func (p *Progress) Begin(total, done int) { p.begin(total, done) }

// MarkDone counts one configuration as handled.
func (p *Progress) MarkDone() { p.done.Add(1) }

// MarkError counts one configuration as failed. Like the engine, failed
// configurations are counted by Done separately (call MarkDone too if the
// failure consumed a slot in the campaign).
func (p *Progress) MarkError() { p.errors.Add(1) }
