package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry is a collection of labeled metric families — counters, gauges
// and fixed-bucket histograms — exposable in the Prometheus text format
// (see Handler / WriteText) and as a JSON snapshot (see Snapshot, which
// feeds the /debug/daemon panel).
//
// The design splits registration from recording: a family is registered
// once (Counter/Gauge/Histogram — cheap, mutex-guarded), a labeled series
// is resolved once (With — mutex-guarded map lookup), and the returned
// *Counter/*Gauge/*Histogram handle is then recorded through with plain
// atomics, so hot paths never touch the registry locks.
//
// A nil *Registry is a valid no-op sink: every method is nil-safe, nil
// vecs resolve to nil handles, and the nil handles are themselves no-op
// (see Counter/Gauge/Histogram) — the disabled path costs one predictable
// branch and zero allocations.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// MetricType tags a family's kind in snapshots and exposition.
type MetricType string

// The metric family kinds.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric family: a type, a label schema, and the set
// of labeled series materialized so far.
type family struct {
	name   string
	help   string
	typ    MetricType
	labels []string
	bounds []float64 // histogram bucket bounds (nil otherwise)

	mu       sync.Mutex
	children map[string]*series
}

// series is one labeled instance of a family. Exactly one of the metric
// pointers is set, matching the family type.
type series struct {
	values  []string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// register returns the named family, creating it on first sight. A name
// collision with a different type, label schema or bucket layout panics:
// that is a programming error on the level of a duplicate expvar name,
// not a runtime condition.
func (r *Registry) register(name, help string, typ MetricType, bounds []float64, labels []string) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validMetricName(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) || !equalFloats(f.bounds, bounds) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different schema", name))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   append([]string(nil), labels...),
		bounds:   append([]float64(nil), bounds...),
		children: make(map[string]*series),
	}
	r.families[name] = f
	return f
}

// Counter registers (or returns) a counter family with the given label
// schema. Resolve series with With; zero labels make a singleton family.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.register(name, help, TypeCounter, nil, labels)}
}

// Gauge registers (or returns) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.register(name, help, TypeGauge, nil, labels)}
}

// Histogram registers (or returns) a histogram family over the given
// strictly increasing bucket bounds (shared by every series, so merged
// views stay well defined). Invalid bounds panic, mirroring NewHistogram's
// error for statically known layouts.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	mustHistogram(bounds) // validate once; panics on a bad layout
	return &HistogramVec{f: r.register(name, help, TypeHistogram, bounds, labels)}
}

// CounterVec is a labeled counter family handle.
type CounterVec struct{ f *family }

// GaugeVec is a labeled gauge family handle.
type GaugeVec struct{ f *family }

// HistogramVec is a labeled histogram family handle.
type HistogramVec struct{ f *family }

// With resolves the series for the given label values (one per label, in
// schema order), creating it on first use. Resolving the same values
// returns the same *Counter. A nil vec resolves to a nil (no-op) handle.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(values).counter
}

// With resolves the gauge series for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.child(values).gauge
}

// Delete drops the series for the given label values, so a family keyed by
// a short-lived identity (a job) does not keep one series per identity
// forever. A handle resolved earlier keeps working but is no longer
// exported; a later With starts a fresh series.
func (v *GaugeVec) Delete(values ...string) {
	if v == nil {
		return
	}
	key := strings.Join(values, "\xff")
	v.f.mu.Lock()
	delete(v.f.children, key)
	v.f.mu.Unlock()
}

// With resolves the histogram series for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.child(values).hist
}

// child returns the series for the given label values, creating it on
// first use.
func (f *family) child(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.children[key]; ok {
		return s
	}
	s := &series{values: append([]string(nil), values...)}
	switch f.typ {
	case TypeCounter:
		s.counter = &Counter{}
	case TypeGauge:
		s.gauge = &Gauge{}
	case TypeHistogram:
		s.hist = mustHistogram(f.bounds)
	}
	f.children[key] = s
	return s
}

// sortedFamilies returns the families ordered by name — the deterministic
// exposition and snapshot order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sortedSeries returns a family's series ordered by label values — the
// deterministic per-family order.
func (f *family) sortedSeries() []*series {
	f.mu.Lock()
	out := make([]*series, 0, len(f.children))
	for _, s := range f.children {
		out = append(out, s)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].values, out[j].values
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// WriteText renders the registry in the Prometheus text exposition format
// (version 0.0.4): families sorted by name, series sorted by label values,
// histograms as cumulative _bucket/_sum/_count series with an explicit
// +Inf bucket. The output is byte-deterministic for a given registry
// state, which the golden test pins.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	var buf []byte
	for _, f := range r.sortedFamilies() {
		buf = buf[:0]
		buf = append(buf, "# HELP "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = appendEscapedHelp(buf, f.help)
		buf = append(buf, "\n# TYPE "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, string(f.typ)...)
		buf = append(buf, '\n')
		for _, s := range f.sortedSeries() {
			switch f.typ {
			case TypeCounter:
				buf = appendSample(buf, f.name, "", f.labels, s.values, "", "",
					strconv.FormatInt(s.counter.Load(), 10))
			case TypeGauge:
				buf = appendSample(buf, f.name, "", f.labels, s.values, "", "",
					strconv.FormatInt(s.gauge.Load(), 10))
			case TypeHistogram:
				snap := s.hist.Snapshot()
				var cum int64
				for i, c := range snap.Counts {
					cum += c
					le := "+Inf"
					if i < len(snap.Bounds) {
						le = formatFloat(snap.Bounds[i])
					}
					buf = appendSample(buf, f.name, "_bucket", f.labels, s.values, "le", le,
						strconv.FormatInt(cum, 10))
				}
				buf = appendSample(buf, f.name, "_sum", f.labels, s.values, "", "",
					formatFloat(snap.Sum))
				buf = appendSample(buf, f.name, "_count", f.labels, s.values, "", "",
					strconv.FormatInt(snap.Count, 10))
			}
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// appendSample renders one exposition line: name[suffix]{labels...} value.
// extraName/extraValue append a trailing synthetic label (the histogram
// "le") after the schema labels.
func appendSample(dst []byte, name, suffix string, labels, values []string, extraName, extraValue, value string) []byte {
	dst = append(dst, name...)
	dst = append(dst, suffix...)
	if len(labels) > 0 || extraName != "" {
		dst = append(dst, '{')
		for i, l := range labels {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, l...)
			dst = append(dst, '=', '"')
			dst = appendEscapedLabel(dst, values[i])
			dst = append(dst, '"')
		}
		if extraName != "" {
			if len(labels) > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, extraName...)
			dst = append(dst, '=', '"')
			dst = appendEscapedLabel(dst, extraValue)
			dst = append(dst, '"')
		}
		dst = append(dst, '}')
	}
	dst = append(dst, ' ')
	dst = append(dst, value...)
	return append(dst, '\n')
}

// appendEscapedLabel escapes a label value per the exposition format:
// backslash, double quote and newline.
func appendEscapedLabel(dst []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '"':
			dst = append(dst, '\\', '"')
		case '\n':
			dst = append(dst, '\\', 'n')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// appendEscapedHelp escapes help text: backslash and newline.
func appendEscapedHelp(dst []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\n':
			dst = append(dst, '\\', 'n')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// formatFloat renders a float the shortest way that round-trips — the
// byte-stable encoding the golden test locks.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns the /metrics exposition endpoint. A nil registry answers
// 503 so the route can be wired unconditionally.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if r == nil {
			http.Error(w, "no metrics registry", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w) //nolint:errcheck // nothing left to tell this scraper
	})
}

// SeriesPoint is one labeled series in a registry snapshot.
type SeriesPoint struct {
	Labels map[string]string `json:"labels,omitempty"`
	// Value carries the counter count or gauge level; histograms use the
	// Histogram field instead.
	Value int64 `json:"value"`
	// Max is the gauge's high-water mark (gauges only).
	Max       int64              `json:"max,omitempty"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// FamilySnapshot is one family in a registry snapshot.
type FamilySnapshot struct {
	Name   string        `json:"name"`
	Type   MetricType    `json:"type"`
	Help   string        `json:"help,omitempty"`
	Series []SeriesPoint `json:"series"`
}

// Snapshot captures every family and series in the deterministic
// exposition order — the JSON view behind /debug/daemon. Nil yields nil.
func (r *Registry) Snapshot() []FamilySnapshot {
	if r == nil {
		return nil
	}
	fams := r.sortedFamilies()
	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Type: f.typ, Help: f.help}
		for _, s := range f.sortedSeries() {
			p := SeriesPoint{}
			if len(f.labels) > 0 {
				p.Labels = make(map[string]string, len(f.labels))
				for i, l := range f.labels {
					p.Labels[l] = s.values[i]
				}
			}
			switch f.typ {
			case TypeCounter:
				p.Value = s.counter.Load()
			case TypeGauge:
				p.Value = s.gauge.Load()
				p.Max = s.gauge.Max()
			case TypeHistogram:
				snap := s.hist.Snapshot()
				p.Histogram = &snap
				p.Value = snap.Count
			}
			fs.Series = append(fs.Series, p)
		}
		out = append(out, fs)
	}
	return out
}

// validMetricName reports whether s matches the Prometheus metric/label
// name charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
