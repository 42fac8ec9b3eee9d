package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"wsnlink/internal/obs"
	"wsnlink/internal/scenario"
	"wsnlink/internal/serve"
	"wsnlink/internal/sweep"
)

// quickSpec finishes in milliseconds (4 configurations).
func quickSpec() serve.CampaignSpec {
	return serve.CampaignSpec{
		Space: serve.SpaceSpec{
			DistancesM:    []float64{35},
			TxPowers:      []int{31},
			MaxTries:      []int{1, 3},
			RetryDelaysS:  []float64{0.03},
			QueueCaps:     []int{1},
			PktIntervalsS: []float64{0.05},
			PayloadsBytes: []int{20, 110},
		},
		Packets:  60,
		BaseSeed: 3,
	}
}

// slowSpec is the campaign the kill/restart tests interrupt: 12
// configurations on one worker at a heavy packet count. The tests park it
// at a fixed row with rowGate rather than racing its run time.
func slowSpec() serve.CampaignSpec {
	return serve.CampaignSpec{
		Space: serve.SpaceSpec{
			DistancesM:    []float64{35},
			TxPowers:      []int{31},
			MaxTries:      []int{1, 3, 8},
			RetryDelaysS:  []float64{0.03},
			QueueCaps:     []int{1, 30},
			PktIntervalsS: []float64{0.05},
			PayloadsBytes: []int{20, 110},
		},
		Packets:  100000,
		BaseSeed: 7,
		Workers:  1,
		// One config per kernel call: rows (and checkpoint appends) land
		// one at a time, so every row before the gate is checkpointed when
		// the run parks. The resumed/reference runs inherit the same spec,
		// and batch size is not part of the campaign fingerprint.
		BatchSize: 1,
	}
}

// addrWriter scans the daemon's stderr for the "listening on http://…" line
// and delivers the base URL.
type addrWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	ch   chan string
	sent bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	const marker = "listening on http://"
	if !w.sent {
		s := w.buf.String()
		if i := strings.Index(s, marker); i >= 0 {
			rest := s[i+len(marker):]
			if j := strings.IndexAny(rest, " \n"); j >= 0 {
				w.ch <- "http://" + rest[:j]
				w.sent = true
			}
		}
	}
	return len(p), nil
}

// daemon is one wsnlinkd instance running in-process via run().
type daemon struct {
	t      *testing.T
	cancel context.CancelFunc
	done   chan error
	url    string
	once   sync.Once
}

func startDaemon(t *testing.T, dir string, extra ...string) *daemon {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	w := &addrWriter{ch: make(chan string, 1)}
	done := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-data-dir", dir}, extra...)
	go func() { done <- run(ctx, args, io.Discard, w) }()
	d := &daemon{t: t, cancel: cancel, done: done}
	select {
	case d.url = <-w.ch:
	case err := <-done:
		cancel()
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		cancel()
		t.Fatal("daemon never announced its address")
	}
	t.Cleanup(d.stop)
	return d
}

// startGatedDaemon starts an in-process daemon whose first local campaign
// parks after spooling row at (see sweep.RowGate).
func startGatedDaemon(t *testing.T, dir string, at int) (*daemon, *sweep.RowGate) {
	t.Helper()
	gate := sweep.NewRowGate(at)
	rowGate = gate
	// run has read rowGate by the time the daemon announces its address.
	defer func() { rowGate = nil }()
	return startDaemon(t, dir), gate
}

// awaitParked waits until a gated campaign is parked at its row.
func awaitParked(t *testing.T, ctx context.Context, gate *sweep.RowGate) {
	t.Helper()
	select {
	case <-gate.Parked():
	case <-ctx.Done():
		t.Fatalf("campaign never reached row %d", gate.At)
	}
}

// stop shuts the daemon down via its signal context (the SIGTERM path) and
// waits for the drain to complete.
func (d *daemon) stop() {
	d.once.Do(func() {
		d.cancel()
		select {
		case err := <-d.done:
			if err != nil {
				d.t.Errorf("daemon exited with error: %v", err)
			}
		case <-time.After(60 * time.Second):
			d.t.Fatal("daemon did not drain in time")
		}
	})
}

func waitJob(t *testing.T, c *serve.Client, id string, cond func(serve.JobStatus) bool, msg string) serve.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for {
		st, err := c.Status(ctx, id)
		if err == nil && cond(st) {
			return st
		}
		select {
		case <-ctx.Done():
			t.Fatalf("timed out waiting for %s (job %s: %+v, err %v)", msg, id, st.Job, err)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// rawRows fetches the complete NDJSON stream of a finished job as raw bytes.
func rawRows(t *testing.T, baseURL, id string) []byte {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/campaigns/" + id + "/rows")
	if err != nil {
		t.Fatalf("GET rows: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET rows: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("rows Content-Type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read rows: %v", err)
	}
	return data
}

func TestDaemonVersionFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-version"}, &out, io.Discard); err != nil {
		t.Fatalf("run -version: %v", err)
	}
	if !strings.HasPrefix(out.String(), "wsnlinkd ") {
		t.Fatalf("version output = %q", out.String())
	}
}

// TestDaemonCacheHit pins the cache contract end to end: submitting the same
// campaign twice answers the second submission from the result cache —
// without running the simulator — and streams byte-identical NDJSON.
func TestDaemonCacheHit(t *testing.T) {
	d := startDaemon(t, t.TempDir())
	c := serve.NewClient(d.url)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	spec := quickSpec()
	first, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if first.CacheHit {
		t.Fatal("fresh campaign must not be a cache hit")
	}
	waitJob(t, c, first.ID, func(st serve.JobStatus) bool { return st.State == serve.StateDone }, "first campaign")
	raw1 := rawRows(t, d.url, first.ID)

	second, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !second.CacheHit || second.State != serve.StateDone {
		t.Fatalf("resubmission must be a completed cache hit, got %+v", second.Job)
	}
	if second.StartedMs != 0 {
		t.Fatal("cache hit must not have invoked the simulator")
	}
	raw2 := rawRows(t, d.url, second.ID)
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("cache replay is not byte-identical:\n first %d bytes\nsecond %d bytes", len(raw1), len(raw2))
	}
	if n := bytes.Count(raw1, []byte("\n")); n != first.Configs {
		t.Fatalf("stream has %d rows, campaign has %d configurations", n, first.Configs)
	}

	lr, err := c.List(ctx)
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if lr.Stats.CacheHits != 1 || lr.Stats.CacheMisses != 1 || len(lr.Jobs) != 2 {
		t.Fatalf("stats = %+v (%d jobs)", lr.Stats, len(lr.Jobs))
	}

	// The diagnostics endpoints ride on the same listener.
	for _, path := range []string{"/debug/vars", "/debug/campaign/status.json"} {
		resp, err := http.Get(d.url + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		if path == "/debug/vars" && !bytes.Contains(body, []byte(`"wsnlinkd"`)) {
			t.Fatalf("/debug/vars does not export the service counters")
		}
	}
}

// TestDaemonKillRestartResume pins the durability contract: a daemon killed
// mid-campaign leaves a fingerprint-matched checkpoint, and a restart on the
// same data directory resumes the job to completion with output
// byte-identical to an uninterrupted daemon's.
func TestDaemonKillRestartResume(t *testing.T) {
	dir := t.TempDir()
	spec := slowSpec()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// The job parks after spooling row 2, so the stop lands strictly
	// mid-run at the same row every time.
	d1, gate := startGatedDaemon(t, dir, 2)
	c1 := serve.NewClient(d1.url)
	st, err := c1.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	awaitParked(t, ctx, gate)
	d1.stop()

	store, err := serve.OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	ckPath := store.SpoolCheckpoint(st.Fingerprint)

	// The interrupted prefix must be checkpointed under the campaign
	// fingerprint the job advertises.
	ck, err := sweep.LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatalf("LoadCheckpoint after kill: %v", err)
	}
	if obs.FormatFingerprint(ck.Fingerprint) != st.Fingerprint {
		t.Fatalf("checkpoint fingerprint %016x does not match job %s", ck.Fingerprint, st.Fingerprint)
	}
	if ck.Done != gate.At {
		t.Fatalf("checkpoint Done = %d, want the %d rows before the gate", ck.Done, gate.At)
	}

	// Restart on the same data directory: the queued job resumes by itself.
	d2 := startDaemon(t, dir)
	c2 := serve.NewClient(d2.url)
	fin := waitJob(t, c2, st.ID, func(s serve.JobStatus) bool { return s.State == serve.StateDone }, "resumed campaign")
	if fin.ResumedFrom == 0 {
		t.Fatalf("restart did not resume from the checkpoint: %+v", fin.Job)
	}
	resumed := rawRows(t, d2.url, st.ID)

	// Reference: the same campaign on a fresh daemon, never interrupted.
	d3 := startDaemon(t, t.TempDir())
	c3 := serve.NewClient(d3.url)
	ref, err := c3.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit reference: %v", err)
	}
	waitJob(t, c3, ref.ID, func(s serve.JobStatus) bool { return s.State == serve.StateDone }, "reference campaign")
	fresh := rawRows(t, d3.url, ref.ID)

	if !bytes.Equal(resumed, fresh) {
		t.Fatalf("resumed dataset is not byte-identical to an uninterrupted run (%d vs %d bytes)",
			len(resumed), len(fresh))
	}
	if n := bytes.Count(resumed, []byte("\n")); n != st.Configs {
		t.Fatalf("resumed stream has %d rows, want %d", n, st.Configs)
	}
}

// TestDaemonStarScenarioResumeAndCacheReplay is the scenario-campaign e2e:
// a star (non-link) campaign submitted to the daemon runs under the scenario
// row schema, survives a mid-campaign kill with a fingerprint-matched
// checkpoint, resumes byte-identically after restart, and replays
// byte-identically from the result cache on resubmission.
func TestDaemonStarScenarioResumeAndCacheReplay(t *testing.T) {
	dir := t.TempDir()
	spec := slowSpec()
	spec.Packets = 8000
	spec.Scenario = "star"
	spec.Star = &scenario.StarParams{Nodes: 4}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Stop mid-campaign at row 2, as TestDaemonKillRestartResume does.
	d1, gate := startGatedDaemon(t, dir, 2)
	c1 := serve.NewClient(d1.url)
	st, err := c1.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	awaitParked(t, ctx, gate)
	d1.stop()

	store, err := serve.OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	ckPath := store.SpoolCheckpoint(st.Fingerprint)

	ck, err := sweep.LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatalf("LoadCheckpoint after kill: %v", err)
	}
	if obs.FormatFingerprint(ck.Fingerprint) != st.Fingerprint {
		t.Fatalf("checkpoint fingerprint %016x does not match job %s", ck.Fingerprint, st.Fingerprint)
	}
	if ck.Done != gate.At {
		t.Fatalf("checkpoint Done = %d, want the %d rows before the gate", ck.Done, gate.At)
	}

	// Restart on the same data directory: the star campaign resumes itself.
	d2 := startDaemon(t, dir)
	c2 := serve.NewClient(d2.url)
	fin := waitJob(t, c2, st.ID, func(s serve.JobStatus) bool { return s.State == serve.StateDone }, "resumed star campaign")
	if fin.ResumedFrom == 0 {
		t.Fatalf("restart did not resume from the checkpoint: %+v", fin.Job)
	}
	resumed := rawScenarioRows(t, d2.url, st.ID, "star")

	// Reference: the same star campaign on a fresh daemon, never interrupted.
	d3 := startDaemon(t, t.TempDir())
	c3 := serve.NewClient(d3.url)
	ref, err := c3.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit reference: %v", err)
	}
	waitJob(t, c3, ref.ID, func(s serve.JobStatus) bool { return s.State == serve.StateDone }, "reference star campaign")
	fresh := rawScenarioRows(t, d3.url, ref.ID, "star")
	if !bytes.Equal(resumed, fresh) {
		t.Fatalf("resumed star dataset is not byte-identical to an uninterrupted run (%d vs %d bytes)",
			len(resumed), len(fresh))
	}

	// Resubmission answers from the cache — no simulation — with identical
	// bytes: the cache-replay proof for a non-link scenario.
	second, err := c2.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !second.CacheHit || second.State != serve.StateDone {
		t.Fatalf("resubmission must be a completed cache hit, got %+v", second.Job)
	}
	if second.StartedMs != 0 {
		t.Fatal("cache hit must not have invoked the simulator")
	}
	replay := rawScenarioRows(t, d2.url, second.ID, "star")
	if !bytes.Equal(resumed, replay) {
		t.Fatalf("cache replay is not byte-identical (%d vs %d bytes)", len(resumed), len(replay))
	}
	if n := bytes.Count(replay, []byte(`"scenario":"star"`)); n != st.Configs {
		t.Fatalf("stream tags %d rows as star, campaign has %d configurations", n, st.Configs)
	}
}

// rawScenarioRows fetches a finished scenario job's NDJSON stream and checks
// the scenario response header.
func rawScenarioRows(t *testing.T, baseURL, id, kind string) []byte {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/campaigns/" + id + "/rows")
	if err != nil {
		t.Fatalf("GET rows: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET rows: %s", resp.Status)
	}
	if got := resp.Header.Get("X-Campaign-Scenario"); got != kind {
		t.Fatalf("X-Campaign-Scenario = %q, want %q", got, kind)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read rows: %v", err)
	}
	return data
}

// TestDaemonClientRunReconnects drives Client.Run against a daemon and
// checks the one-shot convenience path sees every row exactly once.
func TestDaemonClientRun(t *testing.T) {
	d := startDaemon(t, t.TempDir())
	c := serve.NewClient(d.url)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	var rows []serve.StreamedRow
	st, err := c.Run(ctx, quickSpec(), func(r serve.StreamedRow) error {
		rows = append(rows, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.State != serve.StateDone {
		t.Fatalf("terminal state = %q", st.State)
	}
	if len(rows) != st.Configs {
		t.Fatalf("Run yielded %d rows, want %d", len(rows), st.Configs)
	}
	for i, r := range rows {
		if r.Index != i {
			t.Fatalf("row %d has index %d", i, r.Index)
		}
	}
}
