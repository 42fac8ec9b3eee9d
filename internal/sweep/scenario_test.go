package sweep

import (
	"bytes"
	"context"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"wsnlink/internal/scenario"
	"wsnlink/internal/sim"
	"wsnlink/internal/stack"
)

// scenarioConfigs is a small multi-config campaign over distance × payload.
func scenarioConfigs() []stack.Config {
	var cfgs []stack.Config
	for _, d := range []float64{5, 15, 25, 30} {
		for _, pb := range []int{20, 50, 110} {
			cfgs = append(cfgs, stack.Config{
				DistanceM: d, TxPower: 11, MaxTries: 5, RetryDelay: 0.03,
				QueueCap: 5, PktInterval: 0.05, PayloadBytes: pb,
			})
		}
	}
	return cfgs
}

// scenarioSpecs enumerates one representative spec per scenario kind.
func scenarioSpecs() map[string]scenario.Spec {
	return map[string]scenario.Spec{
		"link":         scenario.LinkSpec(),
		"star":         scenario.StarSpec(3),
		"interference": {Kind: scenario.KindInterference},
		"lpl":          {Kind: scenario.KindLPL},
		"mobility":     {Kind: scenario.KindMobility},
	}
}

// TestSingleNodeStarEqualsLinkRows is the tentpole acceptance test at the
// engine layer: a one-node star campaign run through StreamScenarios yields
// rows identical to the link campaign over the same configurations — same
// derived seeds, same DES event timeline, byte-identical numeric fields.
// Only the scenario tag column differs.
func TestSingleNodeStarEqualsLinkRows(t *testing.T) {
	cfgs := scenarioConfigs()
	opts := RunOptions{Packets: 120, BaseSeed: 21, Engine: sim.EngineDES, Workers: 4}

	link, err := RunScenarios(context.Background(), scenario.LinkSpec(), cfgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	star, err := RunScenarios(context.Background(), scenario.StarSpec(1), cfgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(link) != len(cfgs) || len(star) != len(cfgs) {
		t.Fatalf("row counts %d/%d, want %d", len(link), len(star), len(cfgs))
	}
	for i := range cfgs {
		l, s := link[i], star[i]
		if s.Scenario != scenario.KindStar || l.Scenario != scenario.KindLink {
			t.Fatalf("row %d: scenario tags %q/%q", i, l.Scenario, s.Scenario)
		}
		// Erase the tag and star-only NetStats defaults; everything else
		// must match exactly.
		s.Scenario = l.Scenario
		if l != s {
			t.Fatalf("row %d: 1-node star differs from link:\nlink: %+v\nstar: %+v", i, l, s)
		}
		lf, sf := ScenarioRowFields(l), ScenarioRowFields(s)
		for j := 1; j < len(lf); j++ { // column 0 is the scenario tag
			if lf[j] != sf[j] {
				t.Fatalf("row %d column %q: link %q != star %q",
					i, ScenarioFieldNames()[j], lf[j], sf[j])
			}
		}
	}

	// The one-node star also matches the legacy link engine's rows field
	// for field, proving the scenario path adds no numeric drift.
	legacy, err := RunConfigs(context.Background(), cfgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		want := Row{Config: legacy[i].Config, Report: legacy[i].Report,
			Seed: legacy[i].Seed, Packets: legacy[i].Packets}
		got := Row{Config: star[i].Config, Report: star[i].Report,
			Seed: star[i].Seed, Packets: star[i].Packets}
		if want != got {
			t.Fatalf("row %d: star row differs from legacy link row", i)
		}
	}
}

// TestScenarioResumeByteIdentical proves kill-and-resume is byte-identical
// for every scenario kind: interrupt mid-campaign, resume from the
// checkpoint with a different worker count, and require the concatenated
// CSV to equal the uninterrupted run's bytes.
func TestScenarioResumeByteIdentical(t *testing.T) {
	cfgs := scenarioConfigs()
	for name, spec := range scenarioSpecs() {
		t.Run(name, func(t *testing.T) {
			opts := RunOptions{Packets: 40, BaseSeed: 17, Workers: 3}

			var ref bytes.Buffer
			refEnc := NewScenarioEncoder(&ref)
			if err := refEnc.WriteHeader(); err != nil {
				t.Fatal(err)
			}
			err := StreamScenarios(context.Background(), spec, cfgs, opts,
				func(r scenario.Row) error { return refEnc.Encode(r) })
			if err != nil {
				t.Fatal(err)
			}
			if err := refEnc.Flush(); err != nil {
				t.Fatal(err)
			}

			ckPath := filepath.Join(t.TempDir(), "scenario.ckpt")
			var out bytes.Buffer
			enc := NewScenarioEncoder(&out)
			if err := enc.WriteHeader(); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			interrupted := opts
			interrupted.Checkpoint = ckPath
			err = StreamScenarios(ctx, spec, cfgs, interrupted, func(r scenario.Row) error {
				if err := enc.Encode(r); err != nil {
					return err
				}
				if err := enc.Flush(); err != nil {
					return err
				}
				if enc.Rows() == 4 {
					cancel()
				}
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run: err = %v, want wrapped context.Canceled", err)
			}
			ck, err := LoadCheckpoint(ckPath)
			if err != nil {
				t.Fatal(err)
			}
			if ck.Done != enc.Rows() || ck.Done >= len(cfgs) {
				t.Fatalf("checkpoint Done = %d, encoded %d of %d", ck.Done, enc.Rows(), len(cfgs))
			}

			resumed := opts
			resumed.Checkpoint = ckPath
			resumed.Resume = true
			resumed.Workers = 5
			err = StreamScenarios(context.Background(), spec, cfgs, resumed,
				func(r scenario.Row) error { return enc.Encode(r) })
			if err != nil {
				t.Fatal(err)
			}
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
			if enc.Rows() != len(cfgs) {
				t.Fatalf("resumed run ended with %d rows, want %d", enc.Rows(), len(cfgs))
			}
			if !bytes.Equal(ref.Bytes(), out.Bytes()) {
				t.Fatal("interrupted+resumed scenario CSV differs from the uninterrupted run")
			}

			// Resuming a finished campaign yields nothing.
			calls := 0
			err = StreamScenarios(context.Background(), spec, cfgs, resumed,
				func(scenario.Row) error { calls++; return nil })
			if err != nil || calls != 0 {
				t.Fatalf("resume of finished campaign: err=%v, yields=%d", err, calls)
			}
		})
	}
}

// TestScenarioCheckpointRejectsOtherScenario: a checkpoint written by one
// scenario kind must not resume a campaign of another kind, even over the
// same configurations and options.
func TestScenarioCheckpointRejectsOtherScenario(t *testing.T) {
	cfgs := scenarioConfigs()[:4]
	ckPath := filepath.Join(t.TempDir(), "scenario.ckpt")
	opts := RunOptions{Packets: 10, BaseSeed: 1, Checkpoint: ckPath}
	if err := StreamScenarios(context.Background(), scenario.StarSpec(2), cfgs, opts, nil); err != nil {
		t.Fatal(err)
	}
	other := opts
	other.Resume = true
	err := StreamScenarios(context.Background(), scenario.StarSpec(3), cfgs, other, nil)
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("resume with different node count: err = %v, want fingerprint mismatch", err)
	}
	err = StreamScenarios(context.Background(), scenario.LinkSpec(), cfgs, other, nil)
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("resume with different kind: err = %v, want fingerprint mismatch", err)
	}
}

// TestScenarioFingerprintSensitivity: the fingerprint separates scenario
// campaigns by kind and by every scenario parameter, and never collides
// with the link campaign fingerprint namespace.
func TestScenarioFingerprintSensitivity(t *testing.T) {
	cfgs := scenarioConfigs()
	opts := RunOptions{Packets: 100, BaseSeed: 7}
	fp := func(spec scenario.Spec) uint64 {
		v, err := ScenarioFingerprint(spec, cfgs, opts)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	seen := map[uint64]string{}
	add := func(name string, v uint64) {
		if prev, ok := seen[v]; ok {
			t.Fatalf("fingerprint collision: %s == %s", name, prev)
		}
		seen[v] = name
	}
	add("link", fp(scenario.LinkSpec()))
	star2 := fp(scenario.StarSpec(2))
	add("star2", star2)
	add("star3", fp(scenario.StarSpec(3)))
	add("star2-nocapture", fp(scenario.Spec{Kind: scenario.KindStar,
		Star: &scenario.StarParams{Nodes: 2, CaptureThresholdDB: -1}}))
	add("interference", fp(scenario.Spec{Kind: scenario.KindInterference}))
	add("interference-hot", fp(scenario.Spec{Kind: scenario.KindInterference,
		Interference: &scenario.InterferenceParams{DutyCycle: 0.5}}))
	add("lpl", fp(scenario.Spec{Kind: scenario.KindLPL}))
	add("lpl-slow", fp(scenario.Spec{Kind: scenario.KindLPL,
		LPL: &scenario.LPLParams{WakeIntervalS: 1}}))
	add("mobility", fp(scenario.Spec{Kind: scenario.KindMobility}))
	// Scenario campaigns never alias the legacy link namespace.
	add("legacy-link", CampaignFingerprint(cfgs, opts))

	// Options still enter the hash.
	o2 := opts
	o2.BaseSeed = 8
	if fp2, _ := ScenarioFingerprint(scenario.StarSpec(2), cfgs, o2); fp2 == star2 {
		t.Fatal("base seed does not enter the scenario fingerprint")
	}
}

// TestStreamScenariosUnknownKind: an unknown scenario name surfaces as the
// typed *scenario.UnknownKindError before any work starts.
func TestStreamScenariosUnknownKind(t *testing.T) {
	err := StreamScenarios(context.Background(), scenario.Spec{Kind: "mesh"},
		scenarioConfigs(), RunOptions{Packets: 10}, nil)
	var uk *scenario.UnknownKindError
	if !errors.As(err, &uk) {
		t.Fatalf("err = %v, want *scenario.UnknownKindError", err)
	}
	if _, err := ScenarioFingerprint(scenario.Spec{Kind: "mesh"}, scenarioConfigs(),
		RunOptions{}); !errors.As(err, &uk) {
		t.Fatalf("fingerprint err = %v, want *scenario.UnknownKindError", err)
	}
}

// TestStreamScenariosDeterministicAcrossWorkerCounts doubles as the
// concurrent star-campaign race test: many workers share the dispatcher,
// emitter and checkpoint plumbing while the rows must not depend on the
// schedule. Run with -race this exercises the full concurrent path.
func TestStreamScenariosDeterministicAcrossWorkerCounts(t *testing.T) {
	cfgs := scenarioConfigs()
	spec := scenario.StarSpec(4)
	ref, err := RunScenarios(context.Background(), spec, cfgs,
		RunOptions{Packets: 60, BaseSeed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := RunScenarios(context.Background(), spec, cfgs,
			RunOptions{Packets: 60, BaseSeed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d row %d differs from single-worker run", workers, i)
			}
		}
	}
}

// writeScenarioCSV writes rows with a header row through a ScenarioEncoder.
func writeScenarioCSV(w io.Writer, rows []scenario.Row) error {
	e := NewScenarioEncoder(w)
	if err := e.WriteHeader(); err != nil {
		return err
	}
	for _, r := range rows {
		if err := e.Encode(r); err != nil {
			return err
		}
	}
	return e.Flush()
}

// TestScenarioCSVRoundTrip: the scenario codec is byte-stable across all
// kinds — encode, decode, re-encode reproduces identical bytes.
func TestScenarioCSVRoundTrip(t *testing.T) {
	cfgs := scenarioConfigs()[:3]
	var rows []scenario.Row
	for _, spec := range scenarioSpecs() {
		part, err := RunScenarios(context.Background(), spec, cfgs,
			RunOptions{Packets: 30, BaseSeed: 2})
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, part...)
	}
	var buf bytes.Buffer
	if err := writeScenarioCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	decoded, err := ReadScenarioCSV(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(rows) {
		t.Fatalf("decoded %d rows, want %d", len(decoded), len(rows))
	}
	for i := range rows {
		if decoded[i] != rows[i] {
			t.Fatalf("row %d changed across CSV round trip:\n%+v\n%+v", i, rows[i], decoded[i])
		}
	}
	var buf2 bytes.Buffer
	if err := writeScenarioCSV(&buf2, decoded); err != nil {
		t.Fatal(err)
	}
	if first != buf2.String() {
		t.Fatal("scenario CSV re-encoding is not byte-stable")
	}

	head, err := ReadScenarioCSVHead(strings.NewReader(first), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(head) != 2 || head[0] != rows[0] || head[1] != rows[1] {
		t.Fatalf("ReadScenarioCSVHead returned wrong prefix")
	}
}

func TestScenarioCSVRejectsBadInput(t *testing.T) {
	row := scenario.Row{Scenario: scenario.KindLink, Config: scenarioConfigs()[0],
		Seed: 1, Packets: 10}
	var buf bytes.Buffer
	if err := writeScenarioCSV(&buf, []scenario.Row{row}); err != nil {
		t.Fatal(err)
	}
	// Header from the link schema must be rejected.
	var linkBuf bytes.Buffer
	if err := WriteCSV(&linkBuf, []Row{{Config: row.Config, Seed: 1, Packets: 10}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadScenarioCSV(&linkBuf); err == nil {
		t.Fatal("link-schema CSV accepted as scenario dataset")
	}
	// A bogus scenario tag must be rejected with the typed error.
	bad := strings.Replace(buf.String(), "\nlink,", "\nmesh,", 1)
	_, err := ReadScenarioCSV(strings.NewReader(bad))
	var uk *scenario.UnknownKindError
	if !errors.As(err, &uk) {
		t.Fatalf("err = %v, want *scenario.UnknownKindError", err)
	}
}

// TestScenarioCRNPairsSeeds: CRN collapses every row onto the base seed for
// scenario campaigns too, enabling paired-contrast variance reduction.
func TestScenarioCRNPairsSeeds(t *testing.T) {
	cfgs := scenarioConfigs()[:4]
	rows, err := RunScenarios(context.Background(), scenario.StarSpec(2), cfgs,
		RunOptions{Packets: 20, BaseSeed: 77, CRN: true})
	if err != nil {
		t.Fatal(err)
	}
	want := sim.DeriveSeed(77, 0)
	for i, r := range rows {
		if r.Seed != want {
			t.Fatalf("row %d seed = %d, want the shared CRN seed %d", i, r.Seed, want)
		}
	}
}
