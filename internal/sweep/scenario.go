package sweep

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"wsnlink/internal/obs"
	"wsnlink/internal/scenario"
	"wsnlink/internal/sim"
	"wsnlink/internal/stack"
)

// ScenarioFingerprint returns the campaign identity hash for a scenario
// campaign: the normalized scenario spec (kind plus its parameter block)
// folded in front of the same configuration/option words the link
// fingerprint hashes. Scenario fingerprints occupy a distinct namespace
// from link campaign fingerprints (a scenario magic word precedes the
// kind), so a scenario dataset can never alias a link dataset in the
// content-addressed cache even for the "link" kind, whose rows carry the
// wider scenario schema.
func ScenarioFingerprint(spec scenario.Spec, cfgs []stack.Config, opts RunOptions) (uint64, error) {
	if err := spec.Normalize(); err != nil {
		return 0, err
	}
	return scenarioFingerprint(spec, cfgs, opts), nil
}

// scenarioFingerprintMagic separates scenario campaign fingerprints from
// link campaign fingerprints ("scn" in ASCII).
const scenarioFingerprintMagic = 0x73636e

// scenarioFingerprint hashes a normalized spec with the campaign identity.
func scenarioFingerprint(spec scenario.Spec, cfgs []stack.Config, opts RunOptions) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(v float64) { wu(math.Float64bits(v)) }
	wu(scenarioFingerprintMagic)
	h.Write([]byte(spec.Kind))
	for _, w := range spec.HashWords() {
		wu(w)
	}
	wu(uint64(len(cfgs)))
	for _, c := range cfgs {
		wf(c.DistanceM)
		wu(uint64(c.TxPower))
		wu(uint64(c.MaxTries))
		wf(c.RetryDelay)
		wu(uint64(c.QueueCap))
		wf(c.PktInterval)
		wu(uint64(c.PayloadBytes))
	}
	wu(uint64(opts.Packets))
	wu(opts.BaseSeed)
	if opts.Engine == sim.EngineDES {
		wu(0)
	} else {
		wu(1)
	}
	if opts.CRN {
		wu(0x43524e) // "CRN"
	}
	if opts.IndexOffset > 0 { // shard identity, appended only when sharded
		wu(0x5348415244) // "SHARD"
		wu(uint64(opts.IndexOffset))
	}
	return h.Sum64()
}

// runOneScenario executes one scenario row at its derived seed.
func runOneScenario(ctx context.Context, spec scenario.Spec, cfg stack.Config, idx int, opts RunOptions, fingerprint uint64) (scenario.Row, error) {
	return scenario.Run(ctx, spec, cfg, scenario.RunOptions{
		Packets:    opts.Packets,
		Seed:       opts.seedFor(idx),
		FullDES:    opts.Engine == sim.EngineDES,
		ErrorModel: opts.ErrorModel,
		Channel:    opts.Channel,
		Obs:        opts.Metrics,
		Trace:      opts.traceSpan(fingerprint, idx),
	})
}

// RunScenarios is the collecting wrapper over StreamScenarios: rows in
// input order, partial work returned alongside a non-nil error.
func RunScenarios(ctx context.Context, spec scenario.Spec, cfgs []stack.Config, opts RunOptions) ([]scenario.Row, error) {
	rows := make([]scenario.Row, 0, len(cfgs))
	err := StreamScenarios(ctx, spec, cfgs, opts, func(r scenario.Row) error {
		rows = append(rows, r)
		return nil
	})
	return rows, err
}

// StreamScenarios is StreamConfigs for scenario campaigns: it runs every
// configuration through the scenario spec's simulator on a worker pool and
// yields rows in input order. Semantics match StreamConfigs — deterministic
// per-index seeding (sharing seedFor, so CRN pairing works unchanged),
// bounded in-flight work, context cancellation between packets, FailFast/
// ContinueOnError, engine metrics stages, trace spans derived from the
// campaign fingerprint, and the checkpoint sidecar with byte-identical
// resume. Scenario rows always run one configuration per worker pull (the
// batch kernel is link-only), so BatchSize does not apply.
func StreamScenarios(ctx context.Context, spec scenario.Spec, cfgs []stack.Config, opts RunOptions, yield func(scenario.Row) error) error {
	if len(cfgs) == 0 {
		return errors.New("sweep: no configurations")
	}
	if err := spec.Normalize(); err != nil {
		return err
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return err
	}
	if yield == nil {
		yield = func(scenario.Row) error { return nil }
	}

	fingerprint := scenarioFingerprint(spec, cfgs, opts)

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

	window := 2 * opts.Workers

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		idx int
		row scenario.Row
		err error
	}
	jobs := make(chan int)
	results := make(chan outcome, opts.Workers)
	tokens := make(chan struct{}, window)

	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				var t0 time.Time
				if opts.Metrics != nil {
					t0 = time.Now()
				}
				row, err := runOneScenario(sctx, spec, cfgs[i], i, opts, fingerprint)
				if opts.Metrics != nil {
					d := time.Since(t0)
					opts.Metrics.ObserveConfig(d)
					opts.Metrics.StageAdd(obs.StageSimulate, d)
				}
				if opts.Progress != nil {
					opts.Progress.done.Add(1)
				}
				select {
				case results <- outcome{idx: i, row: row, err: err}:
				case <-sctx.Done():
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // dispatcher: one token per config
		defer wg.Done()
		defer close(jobs)
		for i := start; i < len(cfgs); i++ {
			var t0 time.Time
			if opts.Metrics != nil {
				t0 = time.Now()
			}
			select {
			case tokens <- struct{}{}:
			case <-sctx.Done():
				return
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

	pending := make(map[int]outcome, window)
	next := start
	var failures []*ConfigError
	var terminal error

loop:
	for out := range results {
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
	cancel()
	// Wait for them: once the run returns, nothing updates Progress or
	// Metrics, so a caller's final snapshot of either is final.
	wg.Wait()

	if terminal == nil && next < len(cfgs) {
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
