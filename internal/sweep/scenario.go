package sweep

import (
	"context"

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
	h := newFingerprintHash()
	h.word(scenarioFingerprintMagic)
	h.Write([]byte(spec.Kind))
	for _, w := range spec.HashWords() {
		h.word(w)
	}
	h.campaign(cfgs, opts)
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
	err := StreamScenarios(ctx, spec, cfgs, opts, collectInto(&rows))
	return rows, err
}

// StreamScenarios is StreamConfigs for scenario campaigns: it runs every
// configuration through the scenario spec's simulator and yields rows in
// input order. It runs on the same engine as StreamConfigs, so the
// semantics match — deterministic per-index seeding (sharing seedFor, so
// CRN pairing works unchanged), bounded in-flight work, context
// cancellation between packets, FailFast/ContinueOnError, engine metrics
// stages, trace spans derived from the campaign fingerprint, and the
// checkpoint sidecar with byte-identical resume. Workers pull scenario
// rows in blocks of one (the batch kernel is link-only), so BatchSize does
// not apply and at most 2×Workers configurations are in flight.
func StreamScenarios(ctx context.Context, spec scenario.Spec, cfgs []stack.Config, opts RunOptions, yield func(scenario.Row) error) error {
	if len(cfgs) == 0 {
		return errNoConfigs
	}
	if err := spec.Normalize(); err != nil {
		return err
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return err
	}
	fingerprint := scenarioFingerprint(spec, cfgs, opts)
	return stream(ctx, cfgs, opts, fingerprint, 1, func() blockRunner[scenario.Row] {
		return func(ctx context.Context, i int, rows []scenario.Row, errs []error) {
			rows[0], errs[0] = runOneScenario(ctx, spec, cfgs[i], i, opts, fingerprint)
		}
	}, yield)
}
