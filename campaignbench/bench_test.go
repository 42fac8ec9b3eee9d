package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"wsnlink/internal/serve"
	"wsnlink/internal/sweep"
)

func TestPercentileIsExactOrderStatistic(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	s := sortedCopy(xs)
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.q*100, got, c.want)
		}
	}
	if got := percentile([]float64{1, 2, 3}, 0.5); got != 2 {
		t.Errorf("median of 1,2,3 = %v, want 2", got)
	}
	if got := percentile([]float64{1, 10}, 0.5); got != 1 {
		t.Errorf("median of 1,10 = %v, want the sample 1 (no interpolation)", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if xs[0] != 100 {
		t.Error("sortedCopy reordered the caller's slice")
	}
}

func TestTailSupport(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{100, 0.9, 10}, {99, 0.9, 9}, {1000, 0.99, 10}, {999, 0.99, 9}, {10, 0.5, 5}, {0, 0.9, 0}} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
		if tailOK(c.n, c.q) != (c.want >= minBeyond) {
			t.Errorf("tailOK(%d, %v) disagrees with beyond", c.n, c.q)
		}
	}
}

func TestFitLine(t *testing.T) {
	xs := []float64{4, 4, 64, 1024}
	var ys []float64
	for _, x := range xs {
		ys = append(ys, 2.5+0.075*x)
	}
	a, b := fitLine(xs, ys)
	if abs(a-2.5) > 1e-9 || abs(b-0.075) > 1e-12 {
		t.Errorf("fit = %v + %v·x, want 2.5 + 0.075·x", a, b)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "campaign", StartUs: 0, EndUs: 100},
		{ID: 2, Parent: 1, Name: "a", StartUs: 10, EndUs: 30},
		{ID: 3, Parent: 1, Name: "a", StartUs: 20, EndUs: 50},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "b", StartUs: 90, EndUs: 120}, // sticks out of the parent
	}
	self := selfTimes(spans)
	if got := self["campaign"]; got != 50*time.Microsecond {
		t.Errorf("parent self = %v, want 50µs (100 minus the union [10,50)+[90,100))", got)
	}
	if got := self["a"]; got != 50*time.Microsecond {
		t.Errorf("children a self = %v, want 50µs", got)
	}
}

func TestGeneratorIsPureFunctionOfWorkloadAndSeed(t *testing.T) {
	take := func(w workload, seed uint64, client int) []byte {
		s := newStream(w, seed, client)
		var subs []any
		for i := 0; i < 64; i++ {
			sub := s.next()
			subs = append(subs, sub.spec, sub.hit)
		}
		data, err := json.Marshal(subs)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, w := range workloads {
		a, b := take(w, 7, 0), take(w, 7, 0)
		if string(a) != string(b) {
			t.Errorf("%s: two streams with the same seed differ", w.name)
		}
		if string(a) == string(take(w, 8, 0)) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.name)
		}
		if !reflect.DeepEqual(warmSpecs(w, 7), warmSpecs(w, 7)) {
			t.Errorf("%s: warm-up specs are not deterministic", w.name)
		}
		if w.clients > 1 && string(a) == string(take(w, 7, 1)) {
			t.Errorf("%s: clients 0 and 1 submit the same stream", w.name)
		}
	}
}

func TestSmallMixedShares(t *testing.T) {
	w, err := lookupWorkload("small-mixed")
	if err != nil {
		t.Fatal(err)
	}
	s := newStream(w, 3, 0)
	hot := make(map[string]bool)
	for _, spec := range warmSpecs(w, 3) {
		fp, err := spec.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		hot[fmt.Sprintf("%016x", fp)] = true
	}
	const n = 800
	hits, stars := 0, 0
	for i := 0; i < n; i++ {
		sub := s.next()
		if sub.hit {
			hits++
			fp, _ := sub.spec.Fingerprint()
			if !hot[fmt.Sprintf("%016x", fp)] {
				t.Fatalf("submission %d is a hit outside the hot pool", i)
			}
		}
		if sub.spec.Scenario == "star" {
			stars++
		}
	}
	if hits != 3*n/8 || stars != n/4 {
		t.Errorf("over %d submissions: %d hits, %d star; want exactly %d and %d", n, hits, stars, 3*n/8, n/4)
	}
}

// streamedRows reproduces what a client receives for a link campaign: the
// engine's rows, rendered to canonical fields and decoded back.
func streamedRows(t *testing.T, spec serve.CampaignSpec) []serve.StreamedRow {
	t.Helper()
	norm, err := spec.Normalized(serve.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sweep.RunConfigs(context.Background(), norm.Space.Space().All(),
		sweep.RunOptions{Packets: norm.Packets, BaseSeed: norm.BaseSeed})
	if err != nil {
		t.Fatal(err)
	}
	var out []serve.StreamedRow
	for i, r := range rows {
		back, err := sweep.RowFromFields(r.Fields())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, serve.StreamedRow{Index: i, Row: back})
	}
	return out
}

func TestOracleCatchesATamperedField(t *testing.T) {
	spec := smallSpec(42, false)
	ref, err := referenceDigest(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	rows := streamedRows(t, spec)
	digest := func(rows []serve.StreamedRow) uint64 {
		d := newDigester()
		for _, r := range rows {
			d.addStreamed(r)
		}
		return d.sum()
	}
	if got := digest(rows); got != ref {
		t.Fatalf("untampered stream digest %016x != reference %016x", got, ref)
	}

	// One field of one row changes on the wire: the last digit of its last
	// canonical column.
	fields := rows[2].Row.Fields()
	f := []byte(fields[len(fields)-1])
	if f[len(f)-1] == '9' {
		f[len(f)-1] = '8'
	} else {
		f[len(f)-1]++
	}
	fields[len(fields)-1] = string(f)
	tampered, err := sweep.RowFromFields(fields)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]serve.StreamedRow(nil), rows...)
	bad[2].Row = tampered
	if digest(bad) == ref {
		t.Error("oracle accepted a stream with one tampered field")
	}

	// The same rows at shifted indices are a different stream.
	shifted := append([]serve.StreamedRow(nil), rows...)
	shifted[0].Index, shifted[1].Index = 1, 0
	if digest(shifted) == ref {
		t.Error("oracle accepted a stream with two rows swapped")
	}
}

func TestStarReferenceMatchesItself(t *testing.T) {
	spec := smallSpec(5, true)
	a, err := referenceDigest(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := referenceDigest(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	link, err := referenceDigest(context.Background(), smallSpec(5, false))
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a == link {
		t.Errorf("star digests %016x/%016x, link %016x: want repeatable and distinct", a, b, link)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkDoc reads the repository's BENCHMARK.json.
func benchmarkDoc(t *testing.T) (e2e, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct{ Name string }      `json:"end_to_end"`
		PerLayer  []struct{ Name string }      `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("BENCHMARK.json workload %d = %q (%q), benchmark has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, m := range d.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range d.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return e2e, perLayer
}

func TestMetricNames(t *testing.T) {
	e2e, perLayer := benchmarkDoc(t)
	seen := make(map[string]bool)
	for _, n := range append(append([]string(nil), e2e...), perLayer...) {
		if !nameRE.MatchString(n) {
			t.Errorf("metric name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("metric name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q does not match %s", w.name, nameRE)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload briefly, untraced
// and traced, and checks that the result carries exactly the metrics
// BENCHMARK.json names, with every row verified.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, perLayer := benchmarkDoc(t)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd) //nolint:errcheck // best effort for later tests
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := bench(w, 1, time.Second, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed", w.name, traced, res.correct, res.failed, res.attempted)
			}
			want := e2e
			if traced {
				want = perLayer
			}
			got := make(map[string]bool)
			for _, m := range res.metrics {
				if got[m.name] {
					t.Errorf("%s traced=%v: %s reported twice", w.name, traced, m.name)
				}
				got[m.name] = true
				if !unitRE.MatchString(m.unit) {
					t.Errorf("%s: %s has unit %q", w.name, m.name, m.unit)
				}
			}
			for _, n := range want {
				if !got[n] {
					t.Errorf("%s traced=%v: missing %s", w.name, traced, n)
				}
				delete(got, n)
			}
			for n := range got {
				t.Errorf("%s traced=%v: reports %s, which BENCHMARK.json does not list", w.name, traced, n)
			}
		}
	}
}
