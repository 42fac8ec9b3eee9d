package sweep

import (
	"context"
	"hash/fnv"
	"io"
	"strings"
	"testing"

	"wsnlink/internal/scenario"
	"wsnlink/internal/sim"
	"wsnlink/internal/stack"
)

// TestPinnedCampaignOutput pins literal digests of the engine's canonical
// rows and the literal campaign fingerprints. The other byte-identity tests
// compare the engine with itself; these constants catch a change that moves
// every path at once (a seed derivation, a field encoding, a fingerprint
// word). A digest is FNV-64a over each row's canonical fields joined by
// commas, one line per row.
func TestPinnedCampaignOutput(t *testing.T) {
	grid := stack.DefaultSpace().All()
	base := RunOptions{Packets: 3, BaseSeed: 7}
	withOpts := func(f func(*RunOptions)) RunOptions {
		o := base
		f(&o)
		return o
	}

	linkCases := []struct {
		name       string
		cfgs       []stack.Config
		opts       RunOptions
		digest, fp uint64
	}{
		{"grid/batch64", grid, withOpts(func(o *RunOptions) { o.BatchSize = 64 }),
			0x54294599b808d0f7, 0xf01a6f0f1fc837fa},
		{"grid/batch1", grid, withOpts(func(o *RunOptions) { o.BatchSize = 1; o.Workers = 3 }),
			0x54294599b808d0f7, 0xf01a6f0f1fc837fa},
		{"grid/crn-offset", grid, withOpts(func(o *RunOptions) { o.CRN = true; o.IndexOffset = 5 }),
			0xcacad95132bfd70f, 0xf87ed013fe9ddab8},
		{"des/512", grid[:512], withOpts(func(o *RunOptions) { o.Engine = sim.EngineDES }),
			0xf51ca711aae25b33, 0x1c21e0f97dd71fbb},
	}
	for _, tc := range linkCases {
		t.Run(tc.name, func(t *testing.T) {
			h := fnv.New64a()
			err := StreamConfigs(context.Background(), tc.cfgs, tc.opts, func(r Row) error {
				return writeDigestLine(h, r.Fields())
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := h.Sum64(); got != tc.digest {
				t.Errorf("row digest %016x, want %016x", got, tc.digest)
			}
			if got := CampaignFingerprint(tc.cfgs, tc.opts); got != tc.fp {
				t.Errorf("fingerprint %016x, want %016x", got, tc.fp)
			}
		})
	}

	scenarioCases := []struct {
		spec       scenario.Spec
		digest, fp uint64
	}{
		{scenario.LinkSpec(), 0x20bafbfa324a55a2, 0xb8e77262ff5faa33},
		{scenario.StarSpec(3), 0xe6fc469136cb331b, 0xf2b0d50da8d05d40},
		{scenario.Spec{Kind: scenario.KindInterference}, 0xb2201b81cad7edd5, 0x59dad31f578a3ec8},
		{scenario.Spec{Kind: scenario.KindLPL}, 0x4787c162be46c9a0, 0x7d1441e77c61db93},
		{scenario.Spec{Kind: scenario.KindMobility}, 0x6f3e7550bd4bf5d0, 0x8606dcdfbd9bf30a},
	}
	for _, tc := range scenarioCases {
		t.Run("scenario/"+string(tc.spec.Kind), func(t *testing.T) {
			cfgs := grid[:256]
			h := fnv.New64a()
			err := StreamScenarios(context.Background(), tc.spec, cfgs, base, func(r scenario.Row) error {
				return writeDigestLine(h, ScenarioRowFields(r))
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := h.Sum64(); got != tc.digest {
				t.Errorf("row digest %016x, want %016x", got, tc.digest)
			}
			fp, err := ScenarioFingerprint(tc.spec, cfgs, base)
			if err != nil {
				t.Fatal(err)
			}
			if fp != tc.fp {
				t.Errorf("fingerprint %016x, want %016x", fp, tc.fp)
			}
		})
	}
}

func writeDigestLine(w io.Writer, fields []string) error {
	_, err := io.WriteString(w, strings.Join(fields, ",")+"\n")
	return err
}
