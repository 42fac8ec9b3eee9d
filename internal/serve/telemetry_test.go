package serve

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wsnlink/internal/obs"
	"wsnlink/internal/sweep"
)

// syncBuffer makes a bytes.Buffer safe for the runner goroutines that emit
// structured log records concurrently with test assertions.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// scrape fetches url and returns the body.
func scrape(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestServiceTelemetryEndToEnd drives the instrumented HTTP surface through
// a full campaign lifecycle — submit, stream, cache-hit resubmit — and then
// asserts the /metrics exposition reflects every layer: request counters,
// job lifecycle, cache effectiveness, row streaming.
func TestServiceTelemetryEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	var logBuf syncBuffer
	s := openServer(t, t.TempDir(), Options{
		Registry: reg,
		Logger:   obs.NewLogger(&logBuf, slog.LevelInfo),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	st, err := c.Submit(ctx, quickSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	rows := 0
	if _, err := c.StreamRows(ctx, st.ID, -1, func(StreamedRow) error { rows++; return nil }); err != nil {
		t.Fatalf("StreamRows: %v", err)
	}
	if rows != st.Configs {
		t.Fatalf("streamed %d rows, want %d", rows, st.Configs)
	}
	waitFor(t, "job done", func() bool { return mustStatus(t, s, st.ID).State == StateDone })

	// Identical resubmission: answered from the cache, no simulation.
	st2, err := c.Submit(ctx, quickSpec())
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !st2.CacheHit {
		t.Fatalf("resubmit not a cache hit: %+v", st2)
	}

	code, body := scrape(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"wsnlinkd_jobs_submitted_total 2",
		"wsnlinkd_cache_hits_total 1",
		"wsnlinkd_cache_misses_total 1",
		"wsnlinkd_cache_promotes_total 1",
		"wsnlinkd_rows_streamed_total 4",
		`wsnlinkd_http_requests_total{route="/v1/campaigns",method="POST",code="2xx"} 2`,
		`wsnlinkd_http_requests_total{route="/v1/campaigns/{id}/rows",method="GET",code="2xx"} 1`,
		"wsnlinkd_jobs_queue_depth 0",
		"wsnlinkd_http_inflight_requests 0",
		`wsnlinkd_http_request_seconds_count{route="/v1/campaigns"} 2`,
		"wsnlinkd_job_run_seconds_count 1",
		"wsnlinkd_job_queue_wait_seconds_count 1",
		"# TYPE wsnlinkd_cache_size_bytes gauge",
		`wsnlinkd_tailers_active{job="` + st.ID + `"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(body, "wsnlinkd_cache_size_bytes 0\n") {
		t.Error("cache size gauge still zero after a promote")
	}

	// The lifecycle left a structured audit trail with canonical keys.
	logs := logBuf.String()
	for _, want := range []string{
		`"msg":"campaign submitted"`,
		`"msg":"campaign started"`,
		`"msg":"campaign finished"`,
		`"job":"` + st.ID + `"`,
		`"fingerprint":"` + st.Fingerprint + `"`,
		`"cache_hit":true`,
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("structured log missing %q in:\n%s", want, logs)
		}
	}

	// Unknown-route and error responses land in the right status class.
	if st, _ := scrape(t, ts.URL+"/v1/campaigns/zzz"); st != http.StatusNotFound {
		t.Fatalf("bogus id = %d, want 404", st)
	}
	_, body = scrape(t, ts.URL+"/metrics")
	if !strings.Contains(body, `wsnlinkd_http_requests_total{route="/v1/campaigns/{id}",method="GET",code="4xx"} 1`) {
		t.Error("/metrics missing the 4xx status-class counter")
	}
}

// TestHealthReadyDrainTransition pins the probe contract: /healthz stays
// 200 for the process's whole life, /readyz flips to 503 the moment a
// drain starts, and a draining server still answers status reads.
func TestHealthReadyDrainTransition(t *testing.T) {
	s := openServer(t, t.TempDir(), Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, body := scrape(t, ts.URL+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q", code, body)
	}
	if code, body := scrape(t, ts.URL+"/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("readyz = %d %q", code, body)
	}

	st, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, "job done", func() bool { return mustStatus(t, s, st.ID).State == StateDone })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	if code, _ := scrape(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz during drain = %d, want 200", code)
	}
	if code, body := scrape(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("readyz after drain = %d %q, want 503 draining", code, body)
	}
	// Reads keep working so attached clients can observe requeued state.
	if code, _ := scrape(t, ts.URL+"/v1/campaigns"); code != http.StatusOK {
		t.Fatalf("list during drain = %d, want 200", code)
	}
	// New submissions are refused with 503.
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json",
		strings.NewReader(`{"space":{"distances_m":[35]}}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", resp.StatusCode)
	}
}

// TestDrainLogsRequeuedCheckpoints pins the SIGTERM audit trail: draining
// a mid-flight campaign logs its job ID and the checkpoint index it will
// resume from, with the canonical keys.
func TestDrainLogsRequeuedCheckpoints(t *testing.T) {
	var logBuf syncBuffer
	dir := t.TempDir()
	gate := sweep.NewRowGate(1)
	s := openServer(t, dir, Options{Logger: obs.NewLogger(&logBuf, slog.LevelInfo), RowGate: gate})

	// Widen slowSpec to ~10x the configurations: the drain must land while
	// the single worker is still mid-campaign, and the requeue happens at a
	// per-row checkpoint boundary so the extra rows don't slow the drain.
	spec := slowSpec()
	spec.Space.DistancesM = []float64{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	parkedAt(t, gate)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := mustStatus(t, s, st.ID).State; got != StateQueued {
		t.Fatalf("state after drain = %s, want queued", got)
	}

	logs := logBuf.String()
	for _, want := range []string{
		`"msg":"drain started"`,
		`"msg":"job requeued with checkpoint"`,
		`"job":"` + st.ID + `"`,
		`"fingerprint":"` + st.Fingerprint + `"`,
		`"checkpoint":`,
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("drain log missing %q in:\n%s", want, logs)
		}
	}
	if strings.Contains(logs, `"checkpoint":0,`) && !strings.Contains(logs, `"checkpoint":`) {
		t.Error("checkpoint index missing")
	}
}

// BenchmarkStreamRowsTelemetry measures the full row streaming path —
// spool tail, telemetry wrapper, NDJSON render — with the registry on and
// off, pinning that enabled telemetry stays within a few percent of the
// plain path (the wrapper adds two clock reads and three atomic ops/row).
func BenchmarkStreamRowsTelemetry(b *testing.B) {
	for _, enabled := range []bool{false, true} {
		name := "off"
		var opts Options
		if enabled {
			name = "on"
			opts.Registry = obs.NewRegistry()
		}
		b.Run(name, func(b *testing.B) {
			s, err := Open(b.TempDir(), opts)
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				defer cancel()
				s.Drain(ctx) //nolint:errcheck
			}()
			st, err := s.Submit(quickSpec())
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			deadline, cancel := context.WithTimeout(ctx, 30*time.Second)
			defer cancel()
			for {
				cur, _ := s.Status(st.ID)
				if cur.State == StateDone {
					break
				}
				if deadline.Err() != nil {
					b.Fatal("campaign did not finish")
				}
				time.Sleep(time.Millisecond)
			}
			var buf []byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := s.StreamRows(ctx, st.ID, -1, func(index int, fields []string) error {
					buf = appendRowJSON(buf[:0], index, fields)
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTelemetryDisabledSurface pins the nil-registry behavior: the routes
// exist, /metrics answers 503, and handlers are served unwrapped.
func TestTelemetryDisabledSurface(t *testing.T) {
	s := openServer(t, t.TempDir(), Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := scrape(t, ts.URL+"/metrics"); code != http.StatusServiceUnavailable {
		t.Fatalf("/metrics without registry = %d, want 503", code)
	}
	if code, _ := scrape(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}

	// A campaign still runs and streams byte-identically with telemetry off
	// (the instrumented and plain paths share every data-plane byte).
	st, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, "job done", func() bool { return mustStatus(t, s, st.ID).State == StateDone })
	if got, want := collectLines(t, s, st.ID, -1), refLines(t, quickSpec()); len(got) != len(want) {
		t.Fatalf("streamed %d rows, want %d", len(got), len(want))
	}
}
