package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"wsnlink/internal/metrics"
	"wsnlink/internal/obs"
	"wsnlink/internal/sim"
	"wsnlink/internal/stack"
)

// StreamSpace streams every configuration of the space through yield; see
// StreamConfigs for the engine's semantics.
func StreamSpace(ctx context.Context, space stack.Space, opts RunOptions, yield func(Row) error) error {
	if err := space.Validate(); err != nil {
		return err
	}
	return StreamConfigs(ctx, space.All(), opts, yield)
}

// StreamConfigs simulates the given configurations on a worker pool and
// calls yield once per completed row, in input order, as results become
// available. It is the campaign engine the batch helpers wrap.
//
// Workers pull configuration *blocks*, not single configurations: on the
// fast engine each worker runs sim.RunBatch over BatchSize configurations
// with a per-worker arena, so lookup tables, channel state, and result
// storage are reused and the steady state allocates nothing. Blocking is
// invisible in the output — rows are emitted per configuration, in input
// order, with content independent of BatchSize.
//
// Memory is bounded: at most 2×Workers×BatchSize configurations are in
// flight (simulating or completed-but-not-yet-emitted), independent of the
// space size, so a full Table I campaign streams in O(Workers×BatchSize)
// live rows.
//
// Cancellation: when ctx is canceled the workers abandon their current
// configuration between packets and StreamConfigs returns an error wrapping
// ctx.Err(). Rows emitted before the cancellation remain valid (and
// checkpointed, if enabled).
//
// Checkpointing: with opts.Checkpoint set, each configuration index is
// appended to the sidecar file after its row has been yielded (i.e. after
// the caller has durably handled it). With opts.Resume, the checkpoint is
// loaded, validated against the campaign fingerprint, and the recorded
// prefix is skipped — the remaining rows are identical to those of an
// uninterrupted run because per-configuration seeds depend only on
// (BaseSeed, index).
//
// Determinism: for a fixed BaseSeed the emitted row sequence is identical
// regardless of worker count, interruption, or resume.
func StreamConfigs(ctx context.Context, cfgs []stack.Config, opts RunOptions, yield func(Row) error) error {
	if len(cfgs) == 0 {
		return errNoConfigs
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return err
	}
	// The fingerprint doubles as checkpoint identity and trace-span
	// namespace; computing it unconditionally keeps both derivations in
	// one place (it is microseconds over a campaign of any size).
	fingerprint := campaignFingerprint(cfgs, opts)
	if opts.BatchSize == 1 {
		return stream(ctx, cfgs, opts, fingerprint, 1, func() blockRunner[Row] {
			return func(ctx context.Context, i int, rows []Row, errs []error) {
				rows[0], errs[0] = runOne(ctx, cfgs[i], i, opts, fingerprint)
			}
		}, yield)
	}
	return stream(ctx, cfgs, opts, fingerprint, opts.BatchSize, func() blockRunner[Row] {
		return batchRunner(cfgs, opts, fingerprint)
	}, yield)
}

var errNoConfigs = errors.New("sweep: no configurations")

// batchRunner returns one worker's block runner on the batch kernel, with
// the kernel arena (lanes, lookup tables, result storage) and the seed
// scratch buffer it reuses for every block.
func batchRunner(cfgs []stack.Config, opts RunOptions, fingerprint uint64) blockRunner[Row] {
	arena := sim.NewBatchArena()
	seeds := make([]uint64, min(opts.BatchSize, len(cfgs)))
	return func(ctx context.Context, start int, rows []Row, errs []error) {
		n := len(rows)
		for j := range rows {
			seeds[j] = opts.seedFor(start + j)
		}
		bopts := sim.BatchOptions{
			Packets:    opts.Packets,
			Seeds:      seeds[:n],
			Channel:    opts.Channel,
			ErrorModel: opts.ErrorModel,
			Obs:        opts.Metrics,
			Arena:      arena,
		}
		if opts.Tracer != nil {
			bopts.TraceFor = func(j int) *obs.SpanContext {
				return opts.traceSpan(fingerprint, start+j)
			}
		}
		res, lerrs, berr := sim.RunBatch(ctx, cfgs[start:start+n], bopts)
		for j := range rows {
			switch {
			case berr != nil:
				errs[j] = berr
			case lerrs != nil && lerrs[j] != nil:
				errs[j] = lerrs[j]
			default:
				errs[j] = nil
				rows[j] = Row{
					Config:  cfgs[start+j],
					Report:  metrics.FromResult(res[j]),
					Seed:    seeds[j],
					Packets: opts.Packets,
				}
			}
		}
	}
}

// blockRunner runs configurations [start, start+len(rows)) and fills rows
// and errs with their outcomes, one entry per configuration: a row, or the
// configuration's error. One worker owns a runner and calls it serially.
type blockRunner[R any] func(ctx context.Context, start int, rows []R, errs []error)

// outcome is one configuration's result on its way to the emitter.
type outcome[R any] struct {
	idx int
	row R
	err error
}

// stream is the engine behind StreamConfigs and StreamScenarios. opts has
// its defaults filled and fingerprint is the campaign identity. Workers
// pull blocks of up to block configurations; each runs its blocks through
// the runner newWorker gave it. The engine times the runner, reorders the
// outcomes and yields the rows in input order, and owns the checkpoint,
// the token window, the group commit and the classification of
// cancellation and per-configuration errors.
func stream[R any](ctx context.Context, cfgs []stack.Config, opts RunOptions, fingerprint uint64, block int,
	newWorker func() blockRunner[R], yield func(R) error) error {
	if yield == nil {
		yield = func(R) error { return nil }
	}

	start := 0
	var ck *checkpointFile
	if opts.Checkpoint != "" {
		var err error
		ck, err = openCheckpoint(opts.Checkpoint, fingerprint, len(cfgs), opts.Resume)
		if err != nil {
			return err
		}
		defer ck.Close()
		start = ck.Done()
	}
	if opts.Progress != nil {
		opts.Progress.begin(len(cfgs), start)
	}
	if start >= len(cfgs) {
		return nil // campaign already complete
	}

	// window bounds dispatched-but-not-yet-emitted configurations, in
	// config units; with the pending reorder map this caps live rows at
	// O(Workers×block). Tokens are acquired per configuration (a block
	// acquires one per member) and released per emitted row.
	window := 2 * opts.Workers * block

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()

	jobs := make(chan int) // block start indices; block = [i, i+block)∩[0,len)
	results := make(chan outcome[R], opts.Workers)
	tokens := make(chan struct{}, window)

	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Made on the first block, so a worker that gets none
			// allocates nothing and a small job allocates only its size.
			var run blockRunner[R]
			var rows []R
			var errs []error
			for bstart := range jobs {
				n := min(block, len(cfgs)-bstart)
				if run == nil {
					run = newWorker()
					size := min(block, len(cfgs))
					rows, errs = make([]R, size), make([]error, size)
				}
				var t0 time.Time
				if opts.Metrics != nil {
					t0 = time.Now()
				}
				run(sctx, bstart, rows[:n], errs[:n])
				if opts.Metrics != nil {
					// Per-config durations inside a block are not observable
					// individually; attribute the block evenly so counts and
					// totals match the per-config path.
					per := time.Since(t0) / time.Duration(n)
					for j := 0; j < n; j++ {
						opts.Metrics.ObserveConfig(per)
						opts.Metrics.StageAdd(obs.StageSimulate, per)
					}
				}
				for j := 0; j < n; j++ {
					if opts.Progress != nil {
						opts.Progress.done.Add(1)
					}
					select {
					case results <- outcome[R]{idx: bstart + j, row: rows[j], err: errs[j]}:
					case <-sctx.Done():
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // dispatcher: one token per config, one send per block
		defer wg.Done()
		defer close(jobs)
		for i := start; i < len(cfgs); i += block {
			n := min(block, len(cfgs)-i)
			var t0 time.Time
			if opts.Metrics != nil {
				t0 = time.Now()
			}
			for j := 0; j < n; j++ {
				select {
				case tokens <- struct{}{}:
				case <-sctx.Done():
					return
				}
			}
			select {
			case jobs <- i:
			case <-sctx.Done():
				return
			}
			if opts.Metrics != nil {
				opts.Metrics.StageAdd(obs.StageDispatch, time.Since(t0))
			}
		}
	}()
	go func() { wg.Wait(); close(results) }()

	// The emitter: reorder out-of-order completions and yield the
	// contiguous prefix. Outcome idx waits in slot (idx-start) % len(pending):
	// the tokens keep every outcome in flight below next+window, and there
	// are no more than the configurations left to run, so no two waiting
	// outcomes share a slot. A slot holds outcome next exactly when its idx
	// says so; any other idx there was emitted already.
	pending := make([]outcome[R], min(window, len(cfgs)-start))
	for s := range pending {
		pending[s].idx = -1
	}
	waiting := 0
	next := start
	group := groupCommit{commit: opts.Commit, ck: ck, metrics: opts.Metrics, done: start}
	var failures []*ConfigError
	var terminal error

loop:
	for out := range results {
		// arrival/sub split the emitter's own reorder bookkeeping from
		// the time spent inside yield hooks and checkpoint appends.
		var arrival time.Time
		var sub time.Duration
		if opts.Metrics != nil {
			arrival = time.Now()
		}
		pending[(out.idx-start)%len(pending)] = out
		waiting++
		if opts.pendingGauge != nil {
			opts.pendingGauge(waiting)
		}
		opts.Metrics.ObserveWindow(waiting)
		for {
			o := &pending[(next-start)%len(pending)]
			if o.idx != next {
				break
			}
			waiting--
			<-tokens
			if o.err != nil {
				if errors.Is(o.err, context.Canceled) || errors.Is(o.err, context.DeadlineExceeded) {
					terminal = fmt.Errorf("sweep: canceled after %d of %d configurations: %w",
						next, len(cfgs), o.err)
					break loop
				}
				ce := &ConfigError{Index: next, Config: cfgs[next], Err: o.err}
				opts.Metrics.IncErrors()
				if opts.Progress != nil {
					opts.Progress.errors.Add(1)
				}
				if opts.ErrorPolicy == ContinueOnError {
					failures = append(failures, ce)
				} else {
					terminal = ce
					break loop
				}
			} else {
				var y0 time.Time
				if opts.Metrics != nil {
					y0 = time.Now()
				}
				if err := yield(o.row); err != nil {
					terminal = fmt.Errorf("sweep: yield row %d: %w", next, err)
					break loop
				}
				if opts.Metrics != nil {
					d := time.Since(y0)
					sub += d
					opts.Metrics.StageAdd(obs.StageYield, d)
				}
				opts.Metrics.IncRows()
			}
			next++
		}
		d, err := group.through(next)
		sub += d
		if err != nil {
			terminal = err
			break loop
		}
		if opts.Metrics != nil {
			opts.Metrics.StageAdd(obs.StageReorder, time.Since(arrival)-sub)
		}
		if next == len(cfgs) {
			break
		}
	}
	// Commit what was yielded before the stop; a failed commit stays final.
	if _, err := group.through(next); err != nil && terminal == nil {
		terminal = err
	}
	cancel() // release dispatcher and any worker blocked on results
	// Wait for them: once the run returns, nothing updates Progress or
	// Metrics, so a caller's final snapshot of either is final.
	wg.Wait()

	if terminal == nil && next < len(cfgs) {
		// The result stream ended early without a terminal outcome; the
		// only way that happens is external cancellation racing the
		// workers' sctx.Done exit.
		err := ctx.Err()
		if err == nil {
			err = context.Canceled
		}
		terminal = fmt.Errorf("sweep: canceled after %d of %d configurations: %w",
			next, len(cfgs), err)
	}
	if terminal != nil {
		return terminal
	}
	if len(failures) > 0 {
		return &CampaignError{Failures: failures}
	}
	return nil
}

// groupCommit closes the emitter's groups of handled rows: the sink's
// Commit hook first, then one checkpoint append covering the group, so the
// sink's dataset is always at least as long as the sidecar claims.
type groupCommit struct {
	commit  func() error
	ck      *checkpointFile
	metrics *obs.Metrics
	done    int   // configurations [0, done) are committed
	err     error // a failed commit is final
}

// through commits the configurations handled since the last call, up to
// index next-1, and returns the time it took. The sink's write adds to the
// yield stage's time, the sidecar append is one checkpoint sample per
// configuration, so both stages keep counting configurations.
func (g *groupCommit) through(next int) (time.Duration, error) {
	if g.err != nil || next == g.done {
		return 0, g.err
	}
	var t0 time.Time
	if g.metrics != nil {
		t0 = time.Now()
	}
	if g.commit != nil {
		if g.err = g.commit(); g.err != nil {
			return 0, fmt.Errorf("sweep: commit rows %d..%d: %w", g.done, next-1, g.err)
		}
		if g.metrics != nil {
			g.metrics.StageAddN(obs.StageYield, 0, time.Since(t0))
		}
	}
	if g.ck != nil {
		var c0 time.Time
		if g.metrics != nil {
			c0 = time.Now()
		}
		if g.err = g.ck.AppendThrough(next); g.err != nil {
			return 0, g.err
		}
		if g.metrics != nil {
			g.metrics.StageAddN(obs.StageCheckpoint, int64(next-g.done), time.Since(c0))
		}
	}
	g.done = next
	if g.metrics == nil {
		return 0, nil
	}
	return time.Since(t0), nil
}
