package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"wsnlink/internal/scenario"
	"wsnlink/internal/sweep"
)

// starSpec is a small star-topology campaign (4 configurations).
func starSpec() CampaignSpec {
	s := quickSpec()
	s.Scenario = "star"
	s.Star = &scenario.StarParams{Nodes: 3}
	return s
}

// slowStarSpec runs long enough to cancel mid-flight (star DES over many
// packets, single worker).
func slowStarSpec() CampaignSpec {
	s := slowSpec()
	s.Packets = 4000
	s.Scenario = "star"
	s.Star = &scenario.StarParams{Nodes: 4}
	return s
}

// refScenarioLines runs the campaign directly through the scenario engine
// and returns the canonical records the service must reproduce.
func refScenarioLines(t *testing.T, spec CampaignSpec) []string {
	t.Helper()
	norm, sp, err := spec.normalize(Limits{})
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	scn, err := norm.ScenarioSpec()
	if err != nil {
		t.Fatalf("ScenarioSpec: %v", err)
	}
	rows, err := sweep.RunScenarios(context.Background(), scn, sp.All(), norm.options())
	if err != nil {
		t.Fatalf("RunScenarios: %v", err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(sweep.ScenarioRowFields(r), ",")
	}
	return out
}

// TestScenarioSubmitStreamCompletes: a star campaign runs through the
// service, streams the scenario schema, and a resubmission replays the
// identical rows from the cache without simulating.
func TestScenarioSubmitStreamCompletes(t *testing.T) {
	s := openServer(t, t.TempDir(), Options{})
	spec := starSpec()
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, "star job done", func() bool { return mustStatus(t, s, st.ID).State == StateDone })

	want := refScenarioLines(t, spec)
	got := collectLines(t, s, st.ID, -1)
	if len(got) != len(want) {
		t.Fatalf("streamed %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d differs:\n got %s\nwant %s", i, got[i], want[i])
		}
	}

	re, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !re.CacheHit || re.State != StateDone {
		t.Fatalf("resubmission must be a completed cache hit, got %+v", re.Job)
	}
	replay := collectLines(t, s, re.ID, -1)
	if len(replay) != len(got) {
		t.Fatalf("cache replay has %d rows, want %d", len(replay), len(got))
	}
	for i := range got {
		if replay[i] != got[i] {
			t.Fatalf("cache replay row %d differs from live stream", i)
		}
	}
}

// TestScenarioCancelKeepsCheckpointAndResumes is the kill-and-resume proof
// for a non-link scenario inside the service: cancel a running star
// campaign, resubmit the identical spec, and require the final dataset to
// match an uninterrupted engine run exactly.
func TestScenarioCancelKeepsCheckpointAndResumes(t *testing.T) {
	gate := sweep.NewRowGate(2)
	s := openServer(t, t.TempDir(), Options{RowGate: gate})
	spec := slowStarSpec()
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
		t.Fatalf("job finished (%d/%d) before cancel landed; grow slowStarSpec", fin.Done, fin.Total)
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
	if got := mustStatus(t, s, re.ID); got.ResumedFrom == 0 {
		t.Fatalf("resubmission did not resume from the checkpoint: %+v", got.Job)
	}
	want := refScenarioLines(t, spec)
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

// TestSubmitRejectsUnknownScenario: the typed error from the scenario
// layer surfaces through submission for unknown kinds and foreign blocks.
func TestSubmitRejectsUnknownScenario(t *testing.T) {
	s := openServer(t, t.TempDir(), Options{})
	bad := quickSpec()
	bad.Scenario = "mesh"
	_, err := s.Submit(bad)
	var uk *scenario.UnknownKindError
	if !errors.As(err, &uk) {
		t.Fatalf("Submit(scenario=mesh): err = %v, want *scenario.UnknownKindError", err)
	}
	if uk.Name != "mesh" {
		t.Fatalf("UnknownKindError.Name = %q", uk.Name)
	}
	mixed := quickSpec()
	mixed.Scenario = "lpl"
	mixed.Star = &scenario.StarParams{Nodes: 2}
	if _, err := s.Submit(mixed); err == nil {
		t.Fatal("Submit accepted a foreign scenario parameter block")
	}
}

// TestScenarioFingerprintSeparatesKinds: the same space under different
// scenarios (or different scenario parameters) never shares a cache key.
func TestScenarioFingerprintSeparatesKinds(t *testing.T) {
	link := quickSpec()
	star := starSpec()
	star5 := starSpec()
	star5.Star = &scenario.StarParams{Nodes: 5}
	explicitLink := quickSpec()
	explicitLink.Scenario = "link"

	fp := func(c CampaignSpec) uint64 {
		v, err := c.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if fp(link) != fp(explicitLink) {
		t.Fatal(`"scenario":"link" must hash identically to a legacy spec`)
	}
	if fp(link) == fp(star) {
		t.Fatal("star campaign shares the link campaign fingerprint")
	}
	if fp(star) == fp(star5) {
		t.Fatal("star campaigns with different node counts share a fingerprint")
	}
}

// TestScenarioNDJSONRoundTrip: the scenario NDJSON encoding is lossless
// and byte-stable, and the streamed row reassembles the full scenario row.
func TestScenarioNDJSONRoundTrip(t *testing.T) {
	spec := starSpec()
	norm, sp, err := spec.normalize(Limits{})
	if err != nil {
		t.Fatal(err)
	}
	scn, err := norm.ScenarioSpec()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sweep.RunScenarios(context.Background(), scn, sp.All(), norm.options())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		line := appendScenarioRowJSON(nil, i, sweep.ScenarioRowFields(r))
		sr, err := parseRowLine(line)
		if err != nil {
			t.Fatalf("row %d: parse: %v\nline: %s", i, err, line)
		}
		if sr.Index != i || sr.Scenario != scenario.KindStar {
			t.Fatalf("row %d decoded as index %d scenario %q", i, sr.Index, sr.Scenario)
		}
		if sr.ScenarioRow() != r {
			t.Fatalf("row %d lost data across NDJSON:\n%+v\n%+v", i, r, sr.ScenarioRow())
		}
		again := appendScenarioRowJSON(nil, sr.Index, sweep.ScenarioRowFields(sr.ScenarioRow()))
		if !bytes.Equal(line, again) {
			t.Fatalf("row %d NDJSON encoding unstable:\n%s\n%s", i, line, again)
		}
	}
}

// FuzzScenarioSpecJSON feeds arbitrary scenario campaign specs through the
// submission path: decoding must never panic, unknown kinds must surface
// as the typed error, and any spec that normalizes must normalize
// idempotently with a stable fingerprint across every scenario kind.
func FuzzScenarioSpecJSON(f *testing.F) {
	f.Add([]byte(`{"scenario":"link"}`))
	f.Add([]byte(`{"scenario":"star","star":{"nodes":5,"capture_threshold_db":-1}}`))
	f.Add([]byte(`{"scenario":"interference","interference":{"duty_cycle":0.4,"power_at_victim_dbm":-75}}`))
	f.Add([]byte(`{"scenario":"lpl","lpl":{"wake_interval_s":0.5},"packets":100}`))
	f.Add([]byte(`{"scenario":"mobility","mobility":{"area_x_m":20,"speed_max_mps":2}}`))
	f.Add([]byte(`{"scenario":"mesh"}`))
	f.Add([]byte(`{"scenario":"star","lpl":{"wake_interval_s":1}}`))
	f.Add([]byte(`{"scenario":"star","star":{"nodes":100000}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec CampaignSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return // rejected input is fine; panics are not
		}
		norm, sp, err := spec.normalize(fuzzLimits)
		if err != nil {
			if _, kerr := scenario.ParseKind(spec.Scenario); kerr != nil {
				var uk *scenario.UnknownKindError
				if !errors.As(err, &uk) {
					t.Fatalf("unknown kind %q rejected without the typed error: %v", spec.Scenario, err)
				}
			}
			return
		}
		again, sp2, err := norm.normalize(fuzzLimits)
		if err != nil {
			t.Fatalf("normalized spec fails to re-normalize: %v", err)
		}
		if !reflect.DeepEqual(again, norm) {
			t.Fatalf("normalize not idempotent:\n 1st: %+v\n 2nd: %+v", norm, again)
		}
		fp1, err := norm.fingerprint(sp.All())
		if err != nil {
			t.Fatalf("fingerprint after normalize: %v", err)
		}
		fp2, err := again.fingerprint(sp2.All())
		if err != nil || fp1 != fp2 {
			t.Fatalf("fingerprint drift across normalization: %x vs %x (%v)", fp1, fp2, err)
		}
	})
}
