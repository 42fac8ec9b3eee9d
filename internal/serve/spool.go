package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"wsnlink/internal/scenario"
	"wsnlink/internal/sweep"
)

// The daemon's spool and cache files hold a campaign's rows in the wire
// format itself: one canonical NDJSON line per row (see ndjson.go), line k
// carrying row k, no header. A live stream and a cache-hit replay are then
// both byte copies of the same file, and byte-identical by construction.

// rowAppender renders canonical NDJSON row lines straight from the row
// values, as the sweep.ColumnWriter the row types feed their columns to:
// a finite float as a raw JSON number, a non-finite one JSON-quoted, the
// scenario tag as a JSON string. Its output is byte for byte the wire
// encoding of the row's canonical fields (FuzzRowAppender pins it).
type rowAppender struct {
	buf  []byte
	keys []string // the schema's `,"name":` prefixes, in column order
	col  int
}

func (a *rowAppender) key() {
	a.buf = append(a.buf, a.keys[a.col]...)
	a.col++
}

func (a *rowAppender) Float(v float64) {
	a.key()
	if math.IsInf(v, 0) || math.IsNaN(v) {
		a.buf = append(strconv.AppendFloat(append(a.buf, '"'), v, 'g', -1, 64), '"')
		return
	}
	a.buf = strconv.AppendFloat(a.buf, v, 'g', -1, 64)
}

func (a *rowAppender) Int(v int) {
	a.key()
	a.buf = strconv.AppendInt(a.buf, int64(v), 10)
}

func (a *rowAppender) Uint(v uint64) {
	a.key()
	a.buf = strconv.AppendUint(a.buf, v, 10)
}

func (a *rowAppender) Text(s string) {
	a.key()
	a.buf = strconv.AppendQuote(a.buf, s)
}

// begin opens a line: the index field, then columns under layout's keys.
func (a *rowAppender) begin(index int, layout *rowLayout) {
	a.buf = strconv.AppendInt(append(a.buf, `{"index":`...), int64(index), 10)
	a.keys, a.col = layout.keys, 0
}

// link appends the NDJSON line of a link row.
func (a *rowAppender) link(index int, r *sweep.Row) {
	a.begin(index, &linkLayout)
	r.WriteColumns(a)
	a.buf = append(a.buf, '}', '\n')
}

// scenario appends the NDJSON line of a scenario row.
func (a *rowAppender) scenario(index int, r *scenario.Row) {
	a.begin(index, &scenarioLayout)
	sweep.WriteScenarioColumns(r, a)
	a.buf = append(a.buf, '}', '\n')
}

// spoolWriter appends a campaign's rows to its spool file: each row is
// rendered into one reused buffer, and commit writes the buffered lines
// out in one write — the group commit the engine calls once per emitted
// run, before it checkpoints the run.
type spoolWriter struct {
	f    file
	rows rowAppender
	next int   // index of the next row
	err  error // a failed write is final: a torn group is never rewritten
}

func (w *spoolWriter) addLink(r *sweep.Row) {
	w.rows.link(w.next, r)
	w.next++
}

func (w *spoolWriter) addScenario(r *scenario.Row) {
	w.rows.scenario(w.next, r)
	w.next++
}

// splice appends a row line another daemon rendered for the same
// configuration, renumbered to the next index (see spliceLine).
func (w *spoolWriter) splice(line []byte, layout *rowLayout) bool {
	buf, ok := spliceLine(w.rows.buf, w.next, line, layout)
	if ok {
		w.rows.buf = buf
		w.next++
	}
	return ok
}

// commit writes the rows added since the last commit.
func (w *spoolWriter) commit() error {
	if w.err != nil || len(w.rows.buf) == 0 {
		return w.err
	}
	if _, err := w.f.Write(w.rows.buf); err != nil {
		w.err = fmt.Errorf("serve: spool write: %w", err)
		return w.err
	}
	w.rows.buf = w.rows.buf[:0]
	return nil
}

// prepareSpool opens a campaign's spool positioned after its checkpointed
// prefix, and returns that prefix's lines. With a valid sidecar the spool is
// rewritten to exactly the checkpointed lines — a crash can leave a torn or
// unacknowledged tail — and the run resumes; corrupt or mismatched
// leftovers are discarded and the campaign starts fresh. One reader serves
// link and scenario rows; scenarioRows selects the schema every prefix line
// must have.
func prepareSpool(store *Store, fp string, fingerprint uint64, configs int, scenarioRows bool) (w *spoolWriter, resume bool, prefix []byte, err error) {
	path := store.SpoolCSV(fp)
	ck, err := sweep.LoadCheckpoint(store.SpoolCheckpoint(fp))
	switch {
	case err == nil && ck.Fingerprint == fingerprint && ck.Configs == configs:
		prefix, err = openSpoolPrefix(store, path, ck.Done, scenarioRows)
		if err == nil {
			resume = true
		} else {
			store.DropSpool(fp) // unusable dataset: start over
		}
	case errors.Is(err, os.ErrNotExist):
		// fresh campaign
	default:
		// corrupt or foreign sidecar: start over
		store.DropSpool(fp)
	}

	f, err := store.fs.Create(path)
	if err != nil {
		return nil, false, nil, err
	}
	w = &spoolWriter{f: f}
	if len(prefix) > 0 {
		if _, err := f.Write(prefix); err != nil {
			f.Close()
			return nil, false, nil, err
		}
		w.next = ck.Done
	}
	return w, resume, prefix, nil
}

// openSpoolPrefix reads the first done lines of the spool; a missing file
// is fine when nothing was checkpointed yet.
func openSpoolPrefix(store *Store, path string, done int, scenarioRows bool) ([]byte, error) {
	f, err := store.fs.Open(path)
	if errors.Is(err, os.ErrNotExist) && done == 0 {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readSpoolPrefix(f, done, scenarioRows)
}

// maxRowLine bounds one spool line; a canonical row is well under 2 KB.
const maxRowLine = 64 << 10

// readSpoolPrefix returns the first n lines of a spool, exactly as they are
// in the file, after checking each: newline-terminated, in the canonical
// layout of the expected schema, carrying its own index, and re-rendering
// to the same bytes. Anything else — a torn, garbled, renumbered or foreign
// line, or fewer than n lines — is an error, and the caller starts the
// campaign over rather than resume from a prefix it cannot trust.
func readSpoolPrefix(r io.Reader, n int, scenarioRows bool) ([]byte, error) {
	br := bufio.NewReaderSize(r, maxRowLine)
	var prefix []byte
	var check rowAppender
	for i := 0; i < n; i++ {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return nil, fmt.Errorf("serve: spool has %d whole rows, checkpoint records %d", i, n)
		}
		index, rec, ok := scanCanonicalRow(line[:len(line)-1])
		if !ok || index != i {
			return nil, fmt.Errorf("serve: spool line %d is not canonical row %d", i, i)
		}
		row, err := rowFromRecord(index, rec)
		if err != nil {
			return nil, fmt.Errorf("serve: spool line %d: %w", i, err)
		}
		check.buf = check.buf[:0]
		if scenarioRows {
			sr := row.ScenarioRow()
			check.scenario(i, &sr)
		} else {
			check.link(i, &row.Row)
		}
		if !bytes.Equal(check.buf, line) {
			return nil, fmt.Errorf("serve: spool line %d does not re-render to itself", i)
		}
		prefix = append(prefix, line...)
	}
	return prefix, nil
}

// spoolRows decodes validated spool lines back into link rows.
func spoolRows(lines []byte) ([]sweep.Row, error) {
	var rows []sweep.Row
	for len(lines) > 0 {
		nl := bytes.IndexByte(lines, '\n')
		r, err := parseRowLine(lines[:nl])
		if err != nil {
			return nil, err
		}
		rows = append(rows, r.Row)
		lines = lines[nl+1:]
	}
	return rows, nil
}
