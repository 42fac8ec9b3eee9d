package serve

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"wsnlink/internal/adaptive"
	"wsnlink/internal/sweep"
)

// adaptiveSpec is a small adaptive campaign: a 36-cell grid explored under
// a 16-evaluation budget.
func adaptiveSpec() CampaignSpec {
	return CampaignSpec{
		Space: SpaceSpec{
			DistancesM:    []float64{10, 20, 30},
			TxPowers:      []int{3, 15, 31},
			MaxTries:      []int{1, 3},
			RetryDelaysS:  []float64{0},
			QueueCaps:     []int{1},
			PktIntervalsS: []float64{0},
			PayloadsBytes: []int{20, 80},
		},
		Packets:  120,
		BaseSeed: 42,
		Mode:     ModeAdaptive,
		Adaptive: &adaptive.Params{Budget: 16, InitialDesign: 8, RoundSize: 4},
	}
}

// refAdaptiveLines runs the campaign directly through the explorer and
// returns the canonical records the service must reproduce.
func refAdaptiveLines(t *testing.T, spec CampaignSpec) []string {
	t.Helper()
	norm, sp, err := spec.normalize(Limits{})
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	var lines []string
	if _, err := adaptive.Stream(context.Background(), sp, norm.adaptiveOptions(), func(r sweep.Row) error {
		lines = append(lines, strings.Join(r.Fields(), ","))
		return nil
	}); err != nil {
		t.Fatalf("adaptive.Stream: %v", err)
	}
	return lines
}

// TestAdaptiveSubmitStreamCompletes: an adaptive campaign runs through the
// service, streams exactly the explorer's rows in evaluation order, and a
// resubmission replays identical bytes from the cache without exploring.
func TestAdaptiveSubmitStreamCompletes(t *testing.T) {
	s := openServer(t, t.TempDir(), Options{})
	spec := adaptiveSpec()
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.CacheHit {
		t.Fatal("fresh adaptive campaign must not be a cache hit")
	}
	if st.Total != 16 {
		t.Fatalf("Total = %d, want the budget 16", st.Total)
	}
	waitFor(t, "adaptive job done", func() bool { return mustStatus(t, s, st.ID).State == StateDone })

	want := refAdaptiveLines(t, spec)
	got := collectLines(t, s, st.ID, -1)
	if len(got) != len(want) {
		t.Fatalf("streamed %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d differs:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	if fin := mustStatus(t, s, st.ID); fin.Total != int64(len(want)) {
		t.Fatalf("final Total = %d, want the dataset length %d", fin.Total, len(want))
	}

	re, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !re.CacheHit || re.State != StateDone {
		t.Fatalf("resubmission must be a completed cache hit, got %+v", re.Job)
	}
	replay := collectLines(t, s, re.ID, -1)
	if !reflect.DeepEqual(replay, got) {
		t.Fatal("cache replay differs from the live stream")
	}
}

// TestAdaptiveCancelKeepsCheckpointAndResumes: cancel a running adaptive
// campaign, resubmit the identical spec, and require the resumed dataset to
// be byte-identical to an uninterrupted explorer run — the service-level
// kill-and-resume proof for the deterministic replay contract.
func TestAdaptiveCancelKeepsCheckpointAndResumes(t *testing.T) {
	// Row 10 sits inside the first acquisition round (the seed design is
	// rows 0-7, rounds are 4 rows), so the resume replays a cut round.
	gate := sweep.NewRowGate(10)
	s := openServer(t, t.TempDir(), Options{rowGate: gate})
	spec := adaptiveSpec()
	spec.Packets = 20000
	spec.Workers = 1
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	parkedAt(t, gate)
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	waitFor(t, "job canceled", func() bool { return mustStatus(t, s, st.ID).State == StateCanceled })
	fin := mustStatus(t, s, st.ID)
	if fin.Done >= fin.Total {
		t.Fatalf("job finished (%d/%d) although it was parked at row %d", fin.Done, fin.Total, gate.At)
	}

	ck, err := sweep.LoadCheckpoint(s.Store().SpoolCheckpoint(st.Fingerprint))
	if err != nil {
		t.Fatalf("LoadCheckpoint after cancel: %v", err)
	}
	if ck.Done != gate.At {
		t.Fatalf("cancel at row %d left %d checkpointed rows, want %d", gate.At, ck.Done, gate.At)
	}

	re, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	waitFor(t, "resumed job done", func() bool { return mustStatus(t, s, re.ID).State == StateDone })
	if got := mustStatus(t, s, re.ID); got.ResumedFrom != gate.At {
		t.Fatalf("resubmission resumed from row %d, want the %d-row checkpoint", got.ResumedFrom, gate.At)
	}
	want := refAdaptiveLines(t, spec)
	got := collectLines(t, s, re.ID, -1)
	if len(got) != len(want) {
		t.Fatalf("resumed dataset: %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resumed row %d differs:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// TestAdaptiveSpecRejections: the submission-time guard rails.
func TestAdaptiveSpecRejections(t *testing.T) {
	cases := map[string]func(*CampaignSpec){
		"sharded":         func(c *CampaignSpec) { c.ShardOffset, c.ShardCount = 0, 8 },
		"trace-sample":    func(c *CampaignSpec) { c.TraceSample = 2 },
		"scenario":        func(c *CampaignSpec) { c.Scenario = "star" },
		"unknown-mode":    func(c *CampaignSpec) { c.Mode = "bayesian" },
		"foreign-block":   func(c *CampaignSpec) { c.Mode = "" },
		"bad-budget":      func(c *CampaignSpec) { c.Adaptive.Budget = -1 },
		"bad-tolerance":   func(c *CampaignSpec) { c.Adaptive.Tolerance = 1.5 },
		"grid-over-limit": nil, // handled below
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			spec := adaptiveSpec()
			lim := Limits{}
			if mutate == nil {
				lim.MaxConfigs = 10 // grid is 36
			} else {
				mutate(&spec)
			}
			if _, _, err := spec.normalize(lim); err == nil {
				t.Fatal("invalid adaptive spec accepted")
			}
		})
	}
	t.Run("sweep-alias", func(t *testing.T) {
		spec := quickSpec()
		spec.Mode = "sweep"
		norm, _, err := spec.normalize(Limits{})
		if err != nil {
			t.Fatalf("normalize: %v", err)
		}
		if norm.Mode != "" {
			t.Fatalf("mode %q, want normalized to empty", norm.Mode)
		}
	})
}

// TestAdaptiveFingerprintNamespace: the adaptive identity is distinct from
// the exhaustive campaign over the same grid, and sensitive to the
// exploration knobs.
func TestAdaptiveFingerprintNamespace(t *testing.T) {
	ad := adaptiveSpec()
	ex := ad
	ex.Mode = ""
	ex.Adaptive = nil
	ex.CRN = true // match what adaptive forces
	fpAd, err := ad.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpEx, err := ex.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpAd == fpEx {
		t.Fatal("adaptive and exhaustive campaigns share a fingerprint")
	}
	mut := adaptiveSpec()
	mut.Adaptive.Budget = 20
	fpMut, err := mut.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpMut == fpAd {
		t.Fatal("fingerprint insensitive to the exploration budget")
	}
}

// FuzzAdaptiveSpecJSON mirrors FuzzCampaignSpecJSON for the adaptive
// block: arbitrary JSON must never panic, and any adaptive spec that
// normalizes must normalize idempotently with a stable dispatched
// fingerprint — otherwise a resubmitted exploration could miss its own
// cache entry.
func FuzzAdaptiveSpecJSON(f *testing.F) {
	f.Add([]byte(`{"mode":"adaptive"}`))
	f.Add([]byte(`{"mode":"adaptive","adaptive":{"budget":16,"initial_design":8}}`))
	f.Add([]byte(`{"mode":"adaptive","space":{"distances_m":[5,30],"tx_powers":[3,31]},"adaptive":{"strategy":"halving","halving_eta":3}}`))
	f.Add([]byte(`{"mode":"adaptive","adaptive":{"tolerance":0.5,"stable_rounds":2,"round_size":4}}`))
	f.Add([]byte(`{"mode":"sweep","adaptive":{"budget":4}}`))
	f.Add([]byte(`{"adaptive":{"budget":-3}}`))
	f.Add([]byte(`{"mode":"adaptive","trace_sample":2}`))
	f.Add([]byte(`{"mode":"adaptive","shard_count":4}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec CampaignSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return // rejected input is fine; panics are not
		}
		norm, sp, err := spec.normalize(fuzzLimits)
		if err != nil {
			return
		}
		again, sp2, err := norm.normalize(fuzzLimits)
		if err != nil {
			t.Fatalf("normalized spec fails to re-normalize: %v", err)
		}
		if !reflect.DeepEqual(again, norm) {
			t.Fatalf("normalize not idempotent:\n 1st: %+v\n 2nd: %+v", norm, again)
		}
		fp1, err := norm.fingerprint(norm.shardConfigs(sp))
		if err != nil {
			t.Fatalf("fingerprint after normalize: %v", err)
		}
		fp2, err := again.fingerprint(again.shardConfigs(sp2))
		if err != nil {
			t.Fatalf("fingerprint after re-normalize: %v", err)
		}
		if fp1 != fp2 {
			t.Fatalf("fingerprint drift across normalization: %x vs %x", fp1, fp2)
		}
		if norm.Mode == ModeAdaptive && !norm.CRN {
			t.Fatal("normalized adaptive spec must force CRN")
		}
	})
}
