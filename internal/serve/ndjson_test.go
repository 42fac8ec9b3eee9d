package serve

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"wsnlink/internal/sweep"
)

// canonicalLines returns one real link line and one real star line, in the
// exact form the server emits (without the trailing newline).
func canonicalLines(tb testing.TB) (link, star []byte) {
	tb.Helper()
	norm, sp, err := quickSpec().normalize(Limits{})
	if err != nil {
		tb.Fatal(err)
	}
	rows, err := sweep.RunConfigs(context.Background(), sp.All(), norm.options())
	if err != nil {
		tb.Fatal(err)
	}
	link = appendRowJSON(nil, 3, rows[len(rows)-1].Fields())

	norm, sp, err = starSpec().normalize(Limits{})
	if err != nil {
		tb.Fatal(err)
	}
	scn, err := norm.ScenarioSpec()
	if err != nil {
		tb.Fatal(err)
	}
	srows, err := sweep.RunScenarios(context.Background(), scn, sp.All(), norm.options())
	if err != nil {
		tb.Fatal(err)
	}
	star = appendScenarioRowJSON(nil, 2, sweep.ScenarioRowFields(srows[1]))
	return bytes.TrimSuffix(link, []byte("\n")), bytes.TrimSuffix(star, []byte("\n"))
}

// canonicalOf re-encodes a decoded row to its canonical line, the
// NaN-safe identity the differential checks compare.
func canonicalOf(sr StreamedRow) []byte {
	if sr.Scenario != "" {
		return appendScenarioRowJSON(nil, sr.Index, sweep.ScenarioRowFields(sr.ScenarioRow()))
	}
	return appendRowJSON(nil, sr.Index, sr.Row.Fields())
}

// replaceField swaps one `"name":value` pair of a canonical line for
// `"name":repl`.
func replaceField(tb testing.TB, line []byte, name, repl string) []byte {
	tb.Helper()
	key := []byte(`"` + name + `":`)
	i := bytes.Index(line, key)
	if i < 0 {
		tb.Fatalf("line has no field %q", name)
	}
	start := i + len(key)
	end := start + bytes.IndexAny(line[start:], ",}")
	out := append([]byte{}, line[:start]...)
	out = append(out, repl...)
	return append(out, line[end:]...)
}

// swapFirstFields moves a canonical link line's distance_m pair after its
// tx_power pair: the same object with its keys out of schema order.
func swapFirstFields(line []byte) []byte {
	i := bytes.Index(line, []byte(`,"distance_m":`))
	j := bytes.Index(line, []byte(`,"tx_power":`))
	k := j + 1 + bytes.IndexByte(line[j+1:], ',')
	out := append([]byte{}, line[:i]...)
	out = append(out, line[j:k]...)
	out = append(out, line[i:j]...)
	return append(out, line[k:]...)
}

// fastPathSeeds are the differential fuzzer's seed lines: canonical link
// and star lines, every non-finite token, and the near-canonical variants
// the fast path must hand to the generic decoder (or reject exactly as it
// does).
func fastPathSeeds(tb testing.TB) [][]byte {
	link, star := canonicalLines(tb)
	seeds := [][]byte{link, star}
	for _, tok := range []string{`"+Inf"`, `"-Inf"`, `"Inf"`, `"NaN"`} {
		seeds = append(seeds, replaceField(tb, link, "energy_per_bit_uj", tok))
	}
	for _, num := range []string{"-0", "01", "1e5", "1E+5", "1.", "-", `"1.5"`} {
		seeds = append(seeds, replaceField(tb, link, "mean_delay_s", num))
	}
	seeds = append(seeds,
		swapFirstFields(link),
		bytes.Replace(link, []byte(`,"per":`), []byte(`, "per" : `), 1),
		append(bytes.TrimSuffix(append([]byte{}, link...), []byte("}")), `,"per":0.5}`...),
		append(bytes.TrimSuffix(append([]byte{}, link...), []byte("}")), `,"extra":1}`...),
		replaceField(tb, star, "scenario", `"st\u0061r"`),
		replaceField(tb, link, "index", "-0"),
		replaceField(tb, link, "index", "2147483648"),
		replaceField(tb, link, "index", "99999999999999999999"),
		link[:len(link)/2],
		[]byte(`{"index":0}`),
		[]byte(`{"index":`),
	)
	return seeds
}

// FuzzNDJSONRowsFastPath is the differential check between the two row
// decoders: for every line the single-pass scan accepts, the generic
// map-based decoder must accept it too, recover the same index and
// record, and so return an identical StreamedRow. Lines the scan declines
// are the generic decoder's alone.
func FuzzNDJSONRowsFastPath(f *testing.F) {
	for _, seed := range fastPathSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		index, rec, ok := scanCanonicalRow(data)
		if !ok {
			return
		}
		gIndex, gRec, err := decodeRecordGeneric(data)
		if err != nil {
			t.Fatalf("fast path accepted a line the generic decoder rejects (%v):\n%s", err, data)
		}
		if index != gIndex || !reflect.DeepEqual(rec, gRec) {
			t.Fatalf("decoders disagree on %s:\n fast    %d %q\n generic %d %q", data, index, rec, gIndex, gRec)
		}
		fast, ferr := rowFromRecord(index, rec)
		gen, gerr := parseRowLine(data)
		if (ferr == nil) != (gerr == nil) {
			t.Fatalf("decode outcome differs: fast %v, parseRowLine %v", ferr, gerr)
		}
		if ferr == nil && (fast.Scenario != gen.Scenario || !bytes.Equal(canonicalOf(fast), canonicalOf(gen))) {
			t.Fatalf("decoded rows differ:\n fast    %s\n generic %s", canonicalOf(fast), canonicalOf(gen))
		}
	})
}

// TestScanCanonicalRowCoverage pins which seed lines the fast path takes:
// both canonical schemas and every non-finite token, but none of the
// variants outside the emitted layout — and every seed decodes through
// parseRowLine exactly as through the generic decoder.
func TestScanCanonicalRowCoverage(t *testing.T) {
	link, star := canonicalLines(t)
	for _, line := range [][]byte{link, star} {
		if _, _, ok := scanCanonicalRow(line); !ok {
			t.Fatalf("canonical line not on the fast path: %s", line)
		}
	}
	for _, tok := range []string{"+Inf", "-Inf", "Inf", "NaN"} {
		line := replaceField(t, link, "energy_per_bit_uj", `"`+tok+`"`)
		_, rec, ok := scanCanonicalRow(line)
		if !ok || rec[15] != tok {
			t.Fatalf("non-finite %s: ok=%v field=%q", tok, ok, rec)
		}
	}
	for _, num := range []string{"-0", "1e5", "1E+5", "0.25", "-1.5e-7"} {
		if _, _, ok := scanCanonicalRow(replaceField(t, link, "mean_delay_s", num)); !ok {
			t.Errorf("valid JSON number %s left the fast path", num)
		}
	}
	for _, num := range []string{"01", "1.", "-", "+1", ".5", "1e", "0x1", `"1.5"`, `"Infinity"`} {
		if _, _, ok := scanCanonicalRow(replaceField(t, link, "mean_delay_s", num)); ok {
			t.Errorf("fast path accepted %s, which the canonical encoder never writes", num)
		}
	}
	for _, seed := range fastPathSeeds(t) {
		got, gotErr := parseRowLine(seed)
		index, rec, err := decodeRecordGeneric(seed)
		var want StreamedRow
		if err == nil {
			want, err = rowFromRecord(index, rec)
		}
		if (gotErr == nil) != (err == nil) {
			t.Fatalf("%s: parseRowLine err %v, generic err %v", seed, gotErr, err)
		}
		if err == nil && !bytes.Equal(canonicalOf(got), canonicalOf(want)) {
			t.Fatalf("%s: parseRowLine and generic decoder disagree", seed)
		}
	}
	if _, err := parseRowLine(replaceField(t, link, "index", "2147483648")); err != nil {
		t.Errorf("index past int32 must decode: %v", err)
	}
}

var rowSink StreamedRow

// BenchmarkParseRowLine prices the client's per-row decode on a real link
// and star line: the fast path (parseRowLine) next to the generic
// map-based decoder it falls back to.
func BenchmarkParseRowLine(b *testing.B) {
	link, star := canonicalLines(b)
	generic := func(line []byte) (StreamedRow, error) {
		index, rec, err := decodeRecordGeneric(line)
		if err != nil {
			return StreamedRow{}, err
		}
		return rowFromRecord(index, rec)
	}
	for _, bc := range []struct {
		name   string
		line   []byte
		decode func([]byte) (StreamedRow, error)
	}{
		{"link", link, parseRowLine},
		{"scenario", star, parseRowLine},
		{"link-generic", link, generic},
		{"scenario-generic", star, generic},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.line)))
			for i := 0; i < b.N; i++ {
				row, err := bc.decode(bc.line)
				if err != nil {
					b.Fatal(err)
				}
				rowSink = row
			}
		})
	}
}

// TestSpliceLineDoesNotAllocate: the coordinator's per-row splice checks
// and copies in place; only growing the spool buffer may allocate.
func TestSpliceLineDoesNotAllocate(t *testing.T) {
	link, star := canonicalLines(t)
	dst := make([]byte, 0, 4096)
	for _, tc := range []struct {
		line   []byte
		layout *rowLayout
	}{{link, &linkLayout}, {star, &scenarioLayout}} {
		if n := testing.AllocsPerRun(100, func() {
			var ok bool
			if dst, ok = spliceLine(dst[:0], 123456, tc.line, tc.layout); !ok {
				t.Fatal("canonical line rejected")
			}
		}); n != 0 {
			t.Fatalf("spliceLine allocates %.1f times per line", n)
		}
	}
}

// BenchmarkSpliceLine prices the coordinator's per-row merge on a real link
// and star line: the layout check, the index rewrite and the copy into the
// spool buffer. It must not allocate once the buffer has grown.
func BenchmarkSpliceLine(b *testing.B) {
	link, star := canonicalLines(b)
	for _, bc := range []struct {
		name   string
		line   []byte
		layout *rowLayout
	}{
		{"link", link, &linkLayout},
		{"scenario", star, &scenarioLayout},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var dst []byte
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.line)))
			for i := 0; i < b.N; i++ {
				var ok bool
				if dst, ok = spliceLine(dst[:0], 1000+i, bc.line, bc.layout); !ok {
					b.Fatal("canonical line rejected")
				}
			}
		})
	}
}
