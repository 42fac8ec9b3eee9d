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
		return errors.New("sweep: no configurations")
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return err
	}
	if yield == nil {
		yield = func(Row) error { return nil }
	}

	// The fingerprint doubles as checkpoint identity and trace-span
	// namespace; computing it unconditionally keeps both derivations in
	// one place (it is microseconds over a campaign of any size).
	fingerprint := campaignFingerprint(cfgs, opts)

	start := 0
	var ck *checkpointFile
	if opts.Checkpoint != "" {
		ck, err = openCheckpoint(opts.Checkpoint, fingerprint, len(cfgs), opts.Resume)
		if err != nil {
			return err
		}
		defer ck.Close()
		start = ck.Done()
		if start >= len(cfgs) {
			if opts.Progress != nil {
				opts.Progress.begin(len(cfgs), start)
			}
			return nil // campaign already complete
		}
	}
	if opts.Progress != nil {
		opts.Progress.begin(len(cfgs), start)
	}

	// window bounds dispatched-but-not-yet-emitted configurations, in
	// config units; with the pending reorder map this caps live rows at
	// O(Workers×BatchSize). Tokens are acquired per configuration (a block
	// acquires one per member) and released per emitted row, so block and
	// single dispatch share the same accounting.
	window := 2 * opts.Workers * opts.BatchSize

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		idx int
		row Row
		err error
	}
	jobs := make(chan int) // block start indices; block = [i, i+BatchSize)∩[0,len)
	results := make(chan outcome, opts.Workers)
	tokens := make(chan struct{}, window)

	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker batch state, allocated once on first block: the
			// kernel arena (lanes, lookup tables, result storage) and the
			// seed scratch buffer.
			var arena *sim.BatchArena
			var seeds []uint64
			for bstart := range jobs {
				n := len(cfgs) - bstart
				if n > opts.BatchSize {
					n = opts.BatchSize
				}
				if opts.BatchSize == 1 {
					var t0 time.Time
					if opts.Metrics != nil {
						t0 = time.Now()
					}
					row, err := runOne(sctx, cfgs[bstart], bstart, opts, fingerprint)
					if opts.Metrics != nil {
						d := time.Since(t0)
						opts.Metrics.ObserveConfig(d)
						opts.Metrics.StageAdd(obs.StageSimulate, d)
					}
					if opts.Progress != nil {
						opts.Progress.done.Add(1)
					}
					select {
					case results <- outcome{idx: bstart, row: row, err: err}:
					case <-sctx.Done():
						return
					}
					continue
				}
				if arena == nil {
					arena = sim.NewBatchArena()
					seeds = make([]uint64, opts.BatchSize)
				}
				for j := 0; j < n; j++ {
					seeds[j] = opts.seedFor(bstart + j)
				}
				var t0 time.Time
				if opts.Metrics != nil {
					t0 = time.Now()
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
					base := bstart
					bopts.TraceFor = func(j int) *obs.SpanContext {
						return opts.traceSpan(fingerprint, base+j)
					}
				}
				res, lerrs, berr := sim.RunBatch(sctx, cfgs[bstart:bstart+n], bopts)
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
					out := outcome{idx: bstart + j}
					switch {
					case berr != nil:
						out.err = berr
					case lerrs != nil && lerrs[j] != nil:
						out.err = lerrs[j]
					default:
						out.row = Row{
							Config:  cfgs[out.idx],
							Report:  metrics.FromResult(res[j]),
							Seed:    seeds[j],
							Packets: opts.Packets,
						}
					}
					if opts.Progress != nil {
						opts.Progress.done.Add(1)
					}
					select {
					case results <- out:
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
		for i := start; i < len(cfgs); i += opts.BatchSize {
			n := len(cfgs) - i
			if n > opts.BatchSize {
				n = opts.BatchSize
			}
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
	// contiguous prefix. pending never exceeds window entries.
	pending := make(map[int]outcome, window)
	next := start
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
		pending[out.idx] = out
		if opts.pendingGauge != nil {
			opts.pendingGauge(len(pending))
		}
		opts.Metrics.ObserveWindow(len(pending))
		for {
			o, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
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
				if opts.OnRow != nil {
					opts.OnRow(o.row)
				}
				if opts.Metrics != nil {
					d := time.Since(y0)
					sub += d
					opts.Metrics.StageAdd(obs.StageYield, d)
				}
				opts.Metrics.IncRows()
			}
			if ck != nil {
				var c0 time.Time
				if opts.Metrics != nil {
					c0 = time.Now()
				}
				if err := ck.Append(next); err != nil {
					terminal = err
					break loop
				}
				if opts.Metrics != nil {
					d := time.Since(c0)
					sub += d
					opts.Metrics.StageAdd(obs.StageCheckpoint, d)
				}
			}
			next++
		}
		if opts.Metrics != nil {
			opts.Metrics.StageAdd(obs.StageReorder, time.Since(arrival)-sub)
		}
		if next == len(cfgs) {
			break
		}
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
