package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"wsnlink/internal/phy"
	"wsnlink/internal/scenario"
	"wsnlink/internal/stack"
	"wsnlink/internal/sweep"
)

// lostSpec is quickSpec with a second, out-of-range transmit power: its
// fully-lost configurations put +Inf and NaN into their rows.
func lostSpec() CampaignSpec {
	s := quickSpec()
	s.Space.TxPowers = []int{3, 31}
	return s
}

// specRows runs a link spec straight through the engine.
func specRows(tb testing.TB, spec CampaignSpec) []sweep.Row {
	tb.Helper()
	norm, sp, err := spec.normalize(Limits{})
	if err != nil {
		tb.Fatal(err)
	}
	rows, err := sweep.RunConfigs(context.Background(), sp.All(), norm.options())
	if err != nil {
		tb.Fatal(err)
	}
	return rows
}

// specScenarioRows runs a scenario spec straight through the engine.
func specScenarioRows(tb testing.TB, spec CampaignSpec) []scenario.Row {
	tb.Helper()
	norm, sp, err := spec.normalize(Limits{})
	if err != nil {
		tb.Fatal(err)
	}
	scn, err := norm.ScenarioSpec()
	if err != nil {
		tb.Fatal(err)
	}
	rows, err := sweep.RunScenarios(context.Background(), scn, sp.All(), norm.options())
	if err != nil {
		tb.Fatal(err)
	}
	return rows
}

// TestRowAppenderMatchesReference pins the spool's direct row renderer to
// the reference encoding of the canonical fields on real rows, fully-lost
// configurations included.
func TestRowAppenderMatchesReference(t *testing.T) {
	rows := specRows(t, lostSpec())
	nonFinite := false
	var a rowAppender
	for i := range rows {
		fields := rows[i].Fields()
		nonFinite = nonFinite || strings.Contains(strings.Join(fields, ","), "Inf")
		a.buf = a.buf[:0]
		a.link(i, &rows[i])
		if want := appendRowJSON(nil, i, fields); !bytes.Equal(a.buf, want) {
			t.Fatalf("row %d:\n got %s\nwant %s", i, a.buf, want)
		}
	}
	if !nonFinite {
		t.Fatal("lostSpec produced no non-finite field; the corner is untested")
	}
	for i, r := range specScenarioRows(t, starSpec()) {
		a.buf = a.buf[:0]
		a.scenario(i, &r)
		if want := appendScenarioRowJSON(nil, i, sweep.ScenarioRowFields(r)); !bytes.Equal(a.buf, want) {
			t.Fatalf("star row %d:\n got %s\nwant %s", i, a.buf, want)
		}
	}
}

// rowsFromBits builds a link and a scenario row whose every column comes
// from data, eight bytes at a time: floats as raw IEEE-754 bits, so NaN,
// ±Inf, -0 and subnormals all occur; integers as the same words.
func rowsFromBits(data []byte) (sweep.Row, scenario.Row) {
	pos := 0
	word := func() uint64 {
		var b [8]byte
		if pos < len(data) {
			copy(b[:], data[pos:])
		}
		pos += 8
		return binary.LittleEndian.Uint64(b[:])
	}
	f := func() float64 { return math.Float64frombits(word()) }
	d := func() int { return int(int64(word())) }
	r := sweep.Row{Config: stack.Config{
		DistanceM: f(), TxPower: phy.PowerLevel(d()), MaxTries: d(),
		RetryDelay: f(), QueueCap: d(), PktInterval: f(), PayloadBytes: d(),
	}}
	r.Seed, r.Packets = word(), d()
	rep := &r.Report
	for _, p := range []*float64{
		&rep.MeanSNR, &rep.SDSNR, &rep.MeanRSSI, &rep.SDRSSI, &rep.PER, &rep.MeanTries,
		&rep.EnergyPerBitMicroJ, &rep.ListenEnergyMicroJ, &rep.RadioEnergyPerBitMicroJ,
		&rep.GoodputKbps, &rep.MeanDelay, &rep.MeanServiceTime, &rep.MeanQueueDelay,
		&rep.PLR, &rep.PLRQueue, &rep.PLRRadio, &rep.Utilization,
	} {
		*p = f()
	}
	rep.Generated, rep.Delivered, rep.QueueDrops, rep.RadioDrops = d(), d(), d(), d()
	kinds := scenario.Kinds()
	sr := scenario.Row{Scenario: kinds[int(word()%uint64(len(kinds)))],
		Config: r.Config, Seed: r.Seed, Packets: r.Packets, Report: r.Report}
	n := &sr.Net
	n.Nodes = d()
	for _, p := range []*float64{
		&n.OfferedLoadPPS, &n.AggGoodputKbps, &n.CollisionRate, &n.CCAFailRate,
		&n.DutyCycle, &n.WakeIntervalS, &n.LatencyS, &n.InterfererDuty,
		&n.SNRPenaltyDB, &n.SpeedMPS, &n.MeanDistanceM,
	} {
		*p = f()
	}
	return r, sr
}

// FuzzRowAppender: for any column values, the direct renderer writes what
// the reference encoding of the row's canonical fields writes.
func FuzzRowAppender(f *testing.F) {
	nonFinite := make([]byte, 0, 64)
	for _, v := range []float64{math.Inf(1), math.NaN(), math.Inf(-1), math.Copysign(0, -1), 5e-324, 1e21, 0.1} {
		nonFinite = binary.LittleEndian.AppendUint64(nonFinite, math.Float64bits(v))
	}
	f.Add(0, nonFinite)
	f.Add(7, []byte{})
	f.Add(-1, bytes.Repeat([]byte{0xff}, 400))
	f.Fuzz(func(t *testing.T, index int, data []byte) {
		r, sr := rowsFromBits(data)
		var a rowAppender
		a.link(index, &r)
		if want := appendRowJSON(nil, index, r.Fields()); !bytes.Equal(a.buf, want) {
			t.Fatalf("link row:\n got %s\nwant %s", a.buf, want)
		}
		a.buf = a.buf[:0]
		a.scenario(index, &sr)
		if want := appendScenarioRowJSON(nil, index, sweep.ScenarioRowFields(sr)); !bytes.Equal(a.buf, want) {
			t.Fatalf("scenario row:\n got %s\nwant %s", a.buf, want)
		}
	})
}

// FuzzSpliceLine pins the coordinator's line splice: a line rowAppender
// rendered at index i, spliced to index j, is exactly the line rendered at
// j, for link and scenario rows alike. Every line outside the canonical
// layout of the spool's schema — a strict prefix of the line (torn or
// empty), JSON whitespace between tokens, an escaped key or tag, two
// columns swapped, the other schema — is rejected and leaves the spool's
// buffer and row count as they were. Arbitrary bytes the splice accepts
// read back through the stream decoder's fast path as a row of that
// schema at index j.
func FuzzSpliceLine(f *testing.F) {
	f.Add(0, 0, []byte{}, false, uint8(0), uint16(0))
	f.Add(3, 1024, bytes.Repeat([]byte{0x40}, 400), true, uint8(1), uint16(77))
	f.Add(-1, 7, bytes.Repeat([]byte{0xff}, 400), false, uint8(2), uint16(500))
	f.Add(12, 5, bytes.Repeat([]byte{0x7f, 0xf0, 0, 0, 0, 0, 0, 0}, 60), true, uint8(3), uint16(3))
	f.Fuzz(func(t *testing.T, i, j int, data []byte, star bool, mut uint8, at uint16) {
		r, sr := rowsFromBits(data)
		render := func(index int) []byte {
			var a rowAppender
			if star {
				a.scenario(index, &sr)
			} else {
				a.link(index, &r)
			}
			return a.buf
		}
		layout, other := &linkLayout, &scenarioLayout
		if star {
			layout, other = other, layout
		}
		const prior = "prior\n"
		splice := func(line []byte, layout *rowLayout) (spoolWriter, bool) {
			w := spoolWriter{next: j}
			w.rows.buf = append(w.rows.buf, prior...)
			return w, w.splice(line, layout)
		}

		src := render(i)
		line := src[:len(src)-1]
		w, ok := splice(line, layout)
		if want := render(j); !ok || string(w.rows.buf) != prior+string(want) || w.next != j+1 {
			t.Fatalf("splice %d -> %d (ok %v, next %d):\n got %q\nwant %q", i, j, ok, w.next, w.rows.buf, prior+string(want))
		}

		// Column starts, and the bytes a rejected line is cut from.
		starts := make([]int, 0, len(layout.keys)+1)
		for _, key := range layout.keys {
			starts = append(starts, bytes.Index(line, []byte(key)))
		}
		starts = append(starts, len(line)-1) // the closing brace
		n := int(at)
		k := n % len(layout.keys)
		join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
		var bad []byte
		switch mut % 5 {
		case 0: // torn, down to empty
			bad = line[:n%len(line)]
		case 1: // whitespace before or after a ':' or ',' token, or inside the braces
			var cuts []int
			for p, c := range line {
				if c == ':' || c == ',' {
					cuts = append(cuts, p, p+1)
				}
			}
			cuts = append(cuts, 1, len(line)-1)
			p := cuts[n%len(cuts)]
			bad = join(line[:p], []byte{" \t\r\n"[int(mut/5)%4]}, line[p:])
		case 2: // a key's first letter escaped
			p := starts[k] + 2
			bad = join(line[:p], []byte(fmt.Sprintf(`\u%04x`, line[p])), line[p+1:])
		case 3: // columns k and k+1 swapped
			if k == len(layout.keys)-1 {
				k--
			}
			a, b, c := starts[k], starts[k+1], starts[k+2]
			bad = join(line[:a], line[b:c], line[a:b], line[c:])
		case 4: // the scenario tag's first letter escaped, or a link line under the star schema
			if !star {
				bad = line
				layout = other
				break
			}
			p := starts[0] + len(layout.keys[0]) + 1
			bad = join(line[:p], []byte(fmt.Sprintf(`\u%04x`, line[p])), line[p+1:])
		}
		if w, ok := splice(bad, layout); ok || string(w.rows.buf) != prior || w.next != j {
			t.Fatalf("mutation %d accepted or spooled (ok %v, next %d):\n%q", mut%5, ok, w.next, bad)
		}
		if _, ok := splice(line, other); ok {
			t.Fatalf("%q spliced under the other schema", line)
		}

		// Arbitrary bytes: whatever the splice takes decodes as a row of
		// the expected schema at index j.
		for _, layout := range []*rowLayout{&linkLayout, &scenarioLayout} {
			out, ok := spliceLine(nil, j, data, layout)
			if !ok {
				continue
			}
			index, rec, ok := scanCanonicalRow(out[:len(out)-1])
			if !ok || index != j || len(rec) != len(layout.keys) {
				t.Fatalf("spliced %q to %q, which does not scan as a row at %d", data, out, j)
			}
		}
	})
}

// spoolLines renders link rows (or, with star set, star rows) into the
// spool's line format, line i carrying row i.
func spoolLines(tb testing.TB, star bool) [][]byte {
	tb.Helper()
	var out [][]byte
	var a rowAppender
	if star {
		for i, r := range specScenarioRows(tb, starSpec()) {
			a.buf = nil
			a.scenario(i, &r)
			out = append(out, a.buf)
		}
		return out
	}
	rows := specRows(tb, lostSpec())
	for i := range rows {
		a.buf = nil
		a.link(i, &rows[i])
		out = append(out, a.buf)
	}
	return out
}

// FuzzSpoolPrefix feeds the resume path's prefix reader a spool of k
// canonical lines followed by an arbitrary tail — torn, garbled, or more
// lines — and a checkpoint count n. The reader must return exactly the
// file's first n lines, each a whole canonical row carrying its own index,
// or fail so the campaign restarts clean; it never returns a partial or
// renumbered row. n ≤ k always succeeds.
func FuzzSpoolPrefix(f *testing.F) {
	schemas := [2][][]byte{spoolLines(f, false), spoolLines(f, true)}
	link := schemas[0]
	f.Add(false, uint8(3), uint8(3), link[3][:17])                            // torn next line
	f.Add(false, uint8(2), uint8(3), link[2])                                 // the next line, whole
	f.Add(false, uint8(2), uint8(3), link[3])                                 // the line after: renumbered
	f.Add(false, uint8(2), uint8(3), bytes.TrimSuffix(link[2], []byte("\n"))) // no newline
	f.Add(false, uint8(1), uint8(2), replaceField(f, link[1], "per", "1.50"))
	f.Add(true, uint8(2), uint8(2), []byte("garbage\n"))
	f.Add(true, uint8(0), uint8(1), link[0]) // a link line in a star spool
	f.Fuzz(func(t *testing.T, star bool, k, n uint8, tail []byte) {
		lines := schemas[0]
		if star {
			lines = schemas[1]
		}
		kk := int(k) % (len(lines) + 1)
		nn := int(n) % (len(lines) + 3)
		file := append(bytes.Join(lines[:kk], nil), tail...)
		got, err := readSpoolPrefix(bytes.NewReader(file), nn, star)
		if err != nil {
			if nn <= kk {
				t.Fatalf("prefix of %d of %d whole canonical lines rejected: %v", nn, kk, err)
			}
			return
		}
		if nn <= kk {
			if want := bytes.Join(lines[:nn], nil); !bytes.Equal(got, want) {
				t.Fatalf("prefix of %d lines:\n got %q\nwant %q", nn, got, want)
			}
		}
		if !bytes.HasPrefix(file, got) {
			t.Fatalf("prefix is not the file's leading bytes:\n got %q", got)
		}
		rest := got
		for i := 0; i < nn; i++ {
			nl := bytes.IndexByte(rest, '\n')
			if nl < 0 {
				t.Fatalf("prefix holds %d whole lines, want %d", i, nn)
			}
			index, _, ok := scanCanonicalRow(rest[:nl])
			if !ok || index != i {
				t.Fatalf("prefix line %d is not canonical row %d: %q", i, i, rest[:nl])
			}
			rest = rest[nl+1:]
		}
		if len(rest) != 0 {
			t.Fatalf("prefix runs %d bytes past line %d", len(rest), nn)
		}
	})
}

// rowsBody GETs a job's rows endpoint, resuming after lastRow when it is
// not empty.
func rowsBody(t *testing.T, base, id, lastRow string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/campaigns/"+id+"/rows", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastRow != "" {
		req.Header.Set(LastRowIndexHeader, lastRow)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET rows: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read rows: %v", err)
	}
	return body
}

// TestRowsBodyIsTheCacheFile: the rows endpoint is a byte copy of the
// cached dataset — the whole file from the start, and the suffix after
// line k+1 when resuming with Last-Row-Index k.
func TestRowsBodyIsTheCacheFile(t *testing.T) {
	s := openServer(t, t.TempDir(), Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	st, err := s.Submit(lostSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st = waitTerminal(t, s, st.ID); st.State != StateDone {
		t.Fatalf("state = %s (%q)", st.State, st.Error)
	}
	file, err := os.ReadFile(s.Store().CachePath(st.Fingerprint))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(file, []byte("\n"))
	lines = lines[:len(lines)-1] // after the final newline
	if len(lines) != int(st.Total) || !bytes.HasPrefix(file, []byte(`{"index":0,`)) {
		t.Fatalf("cache file holds %d lines (want %d, no header):\n%s", len(lines), st.Total, file)
	}
	if body := rowsBody(t, ts.URL, st.ID, ""); !bytes.Equal(body, file) {
		t.Fatalf("rows body differs from the cache file:\n got %q\nwant %q", body, file)
	}
	for k := -1; k < len(lines); k++ {
		want := bytes.Join(lines[k+1:], nil)
		if body := rowsBody(t, ts.URL, st.ID, strconv.Itoa(k)); !bytes.Equal(body, want) {
			t.Fatalf("Last-Row-Index %d: body differs from the file after line %d:\n got %q\nwant %q", k, k+1, body, want)
		}
	}
	entries, err := os.ReadDir(filepath.Dir(s.Store().CachePath(st.Fingerprint)))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".ndjson" {
			t.Fatalf("cache holds %s, want only .ndjson datasets", e.Name())
		}
	}
}

// TestLiveStreamEqualsReplay: a stream attached while the campaign runs
// gets the same bytes as the later cache-hit replay, for link and
// scenario campaigns.
func TestLiveStreamEqualsReplay(t *testing.T) {
	for _, spec := range []CampaignSpec{lostSpec(), starSpec()} {
		gate := sweep.NewRowGate(2)
		s := openServer(t, t.TempDir(), Options{RowGate: gate})
		ts := httptest.NewServer(s.Handler())
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		parkedAt(t, gate)
		resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/rows")
		if err != nil {
			t.Fatalf("GET rows: %v", err)
		}
		if mustStatus(t, s, st.ID).State != StateRunning {
			t.Fatal("the live stream did not start while the job ran")
		}
		gate.Release()
		live, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read live rows: %v", err)
		}
		hit, err := s.Submit(spec)
		if err != nil || !hit.CacheHit {
			t.Fatalf("resubmit: cache hit %v, err %v", hit.CacheHit, err)
		}
		replay := rowsBody(t, ts.URL, hit.ID, "")
		ts.Close()
		if len(live) == 0 || !bytes.Equal(live, replay) {
			t.Fatalf("%s: live stream differs from the cache-hit replay:\n live %q\nreplay %q", spec.ScenarioKind(), live, replay)
		}
	}
}

// TestLegacyCSVDatasetsAreIgnored: a CSV cache entry an older daemon left
// is a miss, and its CSV spool with a checkpoint is a fresh start; either
// way the rows match a fresh run.
func TestLegacyCSVDatasetsAreIgnored(t *testing.T) {
	spec := quickSpec()
	ref := openServer(t, t.TempDir(), Options{})
	refSt, err := ref.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, ref, refSt.ID)
	want, err := os.ReadFile(ref.Store().CachePath(refSt.Fingerprint))
	if err != nil {
		t.Fatal(err)
	}
	fp := refSt.Fingerprint
	fingerprint, err := strconv.ParseUint(fp, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := sweep.WriteCSV(&csv, specRows(t, spec)); err != nil {
		t.Fatal(err)
	}

	run := func(t *testing.T, dir string) JobStatus {
		t.Helper()
		s := openServer(t, dir, Options{})
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if st.CacheHit {
			t.Fatal("a CSV dataset answered as a cache hit")
		}
		if st = waitTerminal(t, s, st.ID); st.State != StateDone {
			t.Fatalf("state = %s (%q)", st.State, st.Error)
		}
		got, err := os.ReadFile(s.Store().CachePath(fp))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("dataset differs from a fresh run:\n got %q\nwant %q", got, want)
		}
		return st
	}

	t.Run("cache entry", func(t *testing.T) {
		dir := t.TempDir()
		writeFile(t, filepath.Join(dir, "cache", fp+".csv"), csv.Bytes())
		run(t, dir)
	})
	t.Run("spool and checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		lines := bytes.SplitAfter(csv.Bytes(), []byte("\n"))
		writeFile(t, filepath.Join(dir, "spool", fp+".csv"), bytes.Join(lines[:3], nil)) // header + 2 rows
		ck, err := sweep.OpenCheckpointWriter(filepath.Join(dir, "spool", fp+".ckpt"), fingerprint, 4, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := ck.AppendThrough(2); err != nil {
			t.Fatal(err)
		}
		ck.Close()
		if st := run(t, dir); st.ResumedFrom != 0 {
			t.Fatalf("resumed from %d rows of a CSV spool, want a fresh start", st.ResumedFrom)
		}
	})
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// stallingExecutor emits precomputed rows and never calls Commit; it parks
// before its last row until the test lets it go. Each row is rendered at
// index 0, as a one-row shard's runner would stream it, so the splice's
// renumbering is on the byte-identity path.
type stallingExecutor struct {
	rows  []sweep.Row
	stall chan struct{}
}

func (x *stallingExecutor) ExecuteCampaign(ctx context.Context, job *ExecJob) error {
	var a rowAppender
	for i := job.Resume; i < len(x.rows); i++ {
		if i == len(x.rows)-1 {
			select {
			case <-x.stall:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		a.buf = a.buf[:0]
		a.link(0, &x.rows[i])
		if err := job.EmitLine(i, a.buf[:len(a.buf)-1]); err != nil {
			return err
		}
	}
	return nil
}

// TestExecutorRowsCommitWithoutWaiting: an executor that emits a long run
// without ever waiting still has its rows committed and streamed as they
// accumulate, not only once it returns, and the result stays
// byte-identical to a local run.
func TestExecutorRowsCommitWithoutWaiting(t *testing.T) {
	spec := quickSpec()
	spec.Space.TxPowers = []int{23, 27, 31}
	spec.Space.MaxTries = []int{1, 2, 3, 4, 5}
	spec.Space.PayloadsBytes = []int{20, 50, 80, 110}
	spec.Space.PktIntervalsS = []float64{0.05, 0.1}
	spec.Packets = 20
	rows := specRows(t, spec) // 120 rows, ~88 KB of lines
	x := &stallingExecutor{rows: rows, stall: make(chan struct{})}
	s := openServer(t, t.TempDir(), Options{Executor: x})
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var got []string
	err = s.StreamRows(ctx, st.ID, -1, func(_ int, fields []string) error {
		if len(got) == 0 {
			close(x.stall) // a row arrived while the executor is parked
		}
		got = append(got, strings.Join(fields, ","))
		return nil
	})
	if err != nil {
		t.Fatalf("StreamRows: %v (rows before the executor returned: %d)", err, len(got))
	}
	want := refLines(t, spec)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("streamed %d rows, differing from the %d of a local run", len(got), len(want))
	}
}
