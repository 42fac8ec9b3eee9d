package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// testRegistry builds a registry with deterministic contents covering all
// three family types, label escaping, and multi-series ordering.
func testRegistry() *Registry {
	r := NewRegistry()
	req := r.Counter("wsnlinkd_http_requests_total", "HTTP requests by route, method and status class.",
		"route", "method", "code")
	req.With("/v1/campaigns", "POST", "2xx").Add(7)
	req.With("/v1/campaigns", "GET", "2xx").Add(3)
	req.With("/v1/campaigns/{id}/rows", "GET", "5xx").Inc()

	depth := r.Gauge("wsnlinkd_jobs_queue_depth", "Jobs waiting for a worker slot.")
	depth.With().Set(5)
	depth.With().Set(2)

	lat := r.Histogram("wsnlinkd_http_request_seconds", "Request latency.",
		[]float64{0.001, 0.01, 0.1}, "route")
	h := lat.With("/v1/campaigns")
	h.Observe(0.0005)
	h.Observe(0.02)
	h.Observe(5) // overflow bucket

	esc := r.Counter("wsnlinkd_escapes_total", "Escaping: backslash \\ and\nnewline.", "path")
	esc.With("a\\b\"c\nd").Inc()
	return r
}

// TestRegistryExpositionGolden pins the /metrics byte layout: family and
// series order, label escaping, histogram bucket/sum/count rendering and
// float formatting are all part of the scrape contract.
func TestRegistryExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := testRegistry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "metrics.golden", buf.Bytes())
}

func TestRegistryWithReturnsSameSeries(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("x_total", "", "a")
	c1 := v.With("1")
	c1.Inc()
	c2 := v.With("1")
	if c1 != c2 {
		t.Fatal("With with identical values must return the same series")
	}
	if c2.Load() != 1 {
		t.Fatalf("count = %d, want 1", c2.Load())
	}
	if v.With("2") == c1 {
		t.Fatal("distinct label values must be distinct series")
	}
	// Re-registering an identical schema shares the family.
	if r.Counter("x_total", "", "a").With("1") != c1 {
		t.Fatal("re-registered family must resolve the same series")
	}
}

func TestGaugeVecDeleteDropsSeries(t *testing.T) {
	r := NewRegistry()
	v := r.Gauge("y", "", "job")
	old := v.With("c1")
	old.Set(3)
	v.With("c2").Set(4)
	v.Delete("c1")
	v.Delete("c9") // unknown values: no-op
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); strings.Contains(out, `job="c1"`) || !strings.Contains(out, `y{job="c2"} 4`) {
		t.Fatalf("after Delete(c1):\n%s", out)
	}
	old.Add(-3) // a handle resolved before the delete stays usable
	if fresh := v.With("c1"); fresh == old || fresh.Load() != 0 {
		t.Fatal("With after Delete must start a fresh series")
	}
	var nilVec *GaugeVec
	nilVec.Delete("c1")
}

func TestRegistrySchemaCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "", "a")
	for name, fn := range map[string]func(){
		"type change":   func() { r.Gauge("x_total", "", "a") },
		"label change":  func() { r.Counter("x_total", "", "b") },
		"label count":   func() { r.Counter("x_total", "") },
		"bad name":      func() { r.Counter("1bad", "") },
		"bad label":     func() { r.Counter("ok_total", "", "la-bel") },
		"value count":   func() { r.Counter("y_total", "", "a").With() },
		"bad histogram": func() { r.Histogram("h", "", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestRegistryNilPath proves the disabled path is safe and free: a nil
// registry yields nil vecs, nil vecs yield nil handles, and recording
// through them performs zero allocations.
func TestRegistryNilPath(t *testing.T) {
	var r *Registry
	cv := r.Counter("x_total", "")
	gv := r.Gauge("y", "")
	hv := r.Histogram("z", "", []float64{1})
	c, g, h := cv.With(), gv.With(), hv.With()
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must resolve nil handles")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(7)
		g.Add(-1)
		h.Observe(0.5)
	})
	if allocs != 0 {
		t.Fatalf("nil-registry record path allocates %.1f/op, want 0", allocs)
	}
	if err := r.WriteText(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteText: %v", err)
	}
	if r.Snapshot() != nil {
		t.Fatal("nil Snapshot must be nil")
	}
}

// TestRegistryHotPathZeroAlloc pins that recording through pre-resolved
// enabled handles allocates nothing — the property that keeps the row hot
// path within budget with telemetry on.
func TestRegistryHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "", "l").With("v")
	g := r.Gauge("g", "").With()
	h := r.Histogram("h", "", ExpBuckets(1e-4, 2, 10)).With()
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Add(1)
		h.Observe(0.01)
	})
	if allocs != 0 {
		t.Fatalf("enabled record path allocates %.1f/op, want 0", allocs)
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	snap := testRegistry().Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d families, want 4", len(snap))
	}
	// Deterministic family order (sorted by name).
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("families out of order: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
	var reqs *FamilySnapshot
	for i := range snap {
		if snap[i].Name == "wsnlinkd_http_requests_total" {
			reqs = &snap[i]
		}
	}
	if reqs == nil || len(reqs.Series) != 3 {
		t.Fatalf("requests family missing or wrong arity: %+v", reqs)
	}
	if reqs.Series[0].Labels["method"] != "GET" {
		t.Fatalf("series not sorted by label values: %+v", reqs.Series[0].Labels)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("snapshot must be JSON-serializable: %v", err)
	}
	if !strings.Contains(string(data), `"histogram"`) {
		t.Fatal("histogram series must embed the HistogramSnapshot")
	}
}

// TestRegistryConcurrentWith races registration, resolution and recording;
// run under -race this proves the locking story.
func TestRegistryConcurrentWith(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := r.Counter("con_total", "", "worker")
			lbl := string(rune('a' + w%4))
			for i := 0; i < 200; i++ {
				v.With(lbl).Inc()
				if i%50 == 0 {
					r.WriteText(&bytes.Buffer{}) //nolint:errcheck
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, s := range r.Snapshot()[0].Series {
		total += s.Value
	}
	if total != 8*200 {
		t.Fatalf("lost increments: %d, want %d", total, 8*200)
	}
}
