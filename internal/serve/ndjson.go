package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"wsnlink/internal/sweep"
)

// The NDJSON row wire format: one JSON object per line, an "index" field
// followed by the dataset columns in schema order, each carrying the
// canonical field encoding as a raw JSON number (non-finite values, which
// JSON numbers cannot express, travel as JSON strings; the scenario kind
// tag is a JSON string). The daemon's spool and cache files hold these
// lines (spool.go renders them straight from the row values), so a live
// stream and a cache-hit replay copy the same bytes — the property the
// cache-hit e2e pins — and a decode/re-encode round trip is lossless.

// fieldNames is the dataset schema, shared with the CSV layer;
// scenarioFieldNames is the wider scenario schema (its first column,
// "scenario", is a string and travels JSON-quoted).
var (
	fieldNames         = sweep.FieldNames()
	scenarioFieldNames = sweep.ScenarioFieldNames()
)

// parseRowLine decodes one NDJSON line back into a row, detecting the
// scenario schema by its "scenario" field. The canonical field strings are
// recovered verbatim from the raw JSON values, so re-encoding a parsed
// line reproduces it byte for byte.
//
// Lines in the exact layout rowAppender emits take a single-pass scan
// (scanCanonicalRow); any other line — reordered keys, whitespace,
// escapes, unknown or duplicate keys — goes through decodeRecordGeneric,
// which stays the reference semantics: every valid JSON object line with
// an "index" and the schema's fields decodes.
func parseRowLine(line []byte) (StreamedRow, error) {
	index, rec, ok := scanCanonicalRow(line)
	if !ok {
		var err error
		if index, rec, err = decodeRecordGeneric(line); err != nil {
			return StreamedRow{}, err
		}
	}
	return rowFromRecord(index, rec)
}

// rowLayout is one schema's canonical line shape: the bytes preceding each
// value (`,"name":`) and the column, if any, that carries the quoted
// scenario kind tag.
type rowLayout struct {
	keys []string
	tag  int // -1: every column is numeric
}

func newRowLayout(names []string, tag int) rowLayout {
	keys := make([]string, len(names))
	for i, name := range names {
		keys[i] = `,"` + name + `":`
	}
	return rowLayout{keys: keys, tag: tag}
}

var (
	linkLayout     = newRowLayout(fieldNames, -1)
	scenarioLayout = newRowLayout(scenarioFieldNames, 0)
)

// scanCanonicalRow is parseRowLine's fast path: one pass over the layout
// rowAppender writes — `{"index":N`, every schema key in schema order, each
// value a JSON number, a quoted non-finite token or (the scenario column) a
// quoted escape-free tag, then `}`. It returns the row index and the
// canonical record; ok is false for any line outside that layout. For every
// line it accepts, the generic decoder recovers the same index and record,
// so rowFromRecord yields the same result on both paths
// (FuzzNDJSONRowsFastPath pins this).
func scanCanonicalRow(line []byte) (index int, rec []string, ok bool) {
	if !bytes.HasPrefix(line, []byte(rowHead)) || line[len(line)-1] != '}' {
		return 0, nil, false
	}
	// One copy of the line; every field is a substring of it.
	s := string(line[:len(line)-1])
	pos := len(rowHead)
	end := scanJSONNumber(s, pos, true)
	if end < 0 {
		return 0, nil, false
	}
	index, err := strconv.Atoi(s[pos:end])
	if err != nil { // out of int range: the generic decoder reports it
		return 0, nil, false
	}
	layout := &linkLayout
	if strings.HasPrefix(s[end:], scenarioLayout.keys[0]) {
		layout = &scenarioLayout
	}
	rec = make([]string, len(layout.keys))
	if !scanColumns(s, end, layout, rec) {
		return 0, nil, false
	}
	return index, rec, true
}

// rowHead opens every canonical row line; the index value follows it.
const rowHead = `{"index":`

// text is what a row line is scanned as: the decoder's one string copy of
// it, or the splice's bytes in place.
type text interface{ ~string | ~[]byte }

// scanColumns walks a canonical line's columns from pos to the end of s:
// every key of layout in order, each followed by its value. When rec is
// not nil it receives the canonical field strings; the walk itself
// allocates nothing.
func scanColumns[T text](s T, pos int, layout *rowLayout, rec []string) bool {
	for i, key := range layout.keys {
		if len(s)-pos < len(key) || string(s[pos:pos+len(key)]) != key {
			return false
		}
		pos += len(key)
		if pos >= len(s) {
			return false
		}
		var end int
		switch {
		case i == layout.tag:
			end = scanPlainString(s, pos)
			if end >= 0 && rec != nil {
				rec[i] = string(s[pos+1 : end-1])
			}
		case s[pos] == '"':
			var tok string
			tok, end = nonFiniteToken(s, pos)
			if rec != nil {
				rec[i] = tok
			}
		default:
			end = scanJSONNumber(s, pos, false)
			if end >= 0 && rec != nil {
				rec[i] = string(s[pos:end])
			}
		}
		if end < 0 {
			return false
		}
		pos = end
	}
	return pos == len(s)
}

// spliceLine appends line — one row line without its newline — to dst,
// renumbered to index and newline-terminated: the `{"index":N` head is
// rewritten, every other byte is the line's own. The line must be in the
// canonical layout of layout's schema (see scanCanonicalRow); its values
// are checked for form, not re-rendered. For any other line — reordered
// keys, whitespace, escapes, the other schema, a torn or empty line —
// ok is false and dst comes back unchanged. It allocates only to grow dst.
func spliceLine(dst []byte, index int, line []byte, layout *rowLayout) (out []byte, ok bool) {
	if !bytes.HasPrefix(line, []byte(rowHead)) || line[len(line)-1] != '}' {
		return dst, false
	}
	body := line[:len(line)-1]
	end := scanJSONNumber(body, len(rowHead), true)
	if end < 0 || !scanColumns(body, end, layout, nil) {
		return dst, false
	}
	dst = strconv.AppendInt(append(dst, rowHead...), int64(index), 10)
	return append(append(dst, line[end:]...), '\n'), true
}

// rowIndex reads the index a row line leads with: straight off the
// canonical `{"index":N,` head, through the reference decoder for any
// other layout.
func rowIndex(line []byte) (int, error) {
	if bytes.HasPrefix(line, []byte(rowHead)) {
		end := scanJSONNumber(line, len(rowHead), true)
		if end > 0 && end < len(line) && line[end] == ',' {
			if index, err := strconv.Atoi(string(line[len(rowHead):end])); err == nil {
				return index, nil
			}
		}
	}
	index, _, err := decodeRecordGeneric(line)
	return index, err
}

// scanJSONNumber returns the end of the JSON number starting at s[pos]
// (RFC 8259 grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?), or -1
// if there is none. intOnly rejects the fraction and exponent parts.
func scanJSONNumber[T text](s T, pos int, intOnly bool) int {
	i := pos
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i >= len(s):
		return -1
	case s[i] == '0':
		i++
	case '1' <= s[i] && s[i] <= '9':
		i = skipDigits(s, i+1)
	default:
		return -1
	}
	if intOnly {
		return i
	}
	if i < len(s) && s[i] == '.' {
		j := skipDigits(s, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		j := skipDigits(s, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

func skipDigits[T text](s T, i int) int {
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
}

// nonFiniteToken matches one of the wire format's quoted non-finite tokens
// at s[pos], returning the canonical field string and the end offset (-1
// when the quoted value is anything else).
func nonFiniteToken[T text](s T, pos int) (string, int) {
	for _, tok := range [...]string{"+Inf", "-Inf", "Inf", "NaN"} {
		if n := len(tok) + 2; len(s)-pos >= n && s[pos+n-1] == '"' && string(s[pos+1:pos+n-1]) == tok {
			return tok, pos + n
		}
	}
	return "", -1
}

// scanPlainString returns the end of the JSON string starting at s[pos]
// when its content is printable ASCII without escapes — the only strings
// whose JSON decoding is their raw bytes — or -1 otherwise.
func scanPlainString[T text](s T, pos int) int {
	if s[pos] != '"' {
		return -1
	}
	for i := pos + 1; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			return i + 1
		case c == '\\' || c < 0x20 || c > 0x7e:
			return -1
		}
	}
	return -1
}

// rowFromRecord builds the streamed row from a decoded index and canonical
// record; the record's width selects the schema.
func rowFromRecord(index int, rec []string) (StreamedRow, error) {
	out := StreamedRow{Index: index}
	if len(rec) == len(scenarioFieldNames) {
		row, err := sweep.ScenarioRowFromFields(rec)
		if err != nil {
			return StreamedRow{}, err
		}
		out.Row = sweep.Row{Config: row.Config, Report: row.Report,
			Seed: row.Seed, Packets: row.Packets}
		out.Scenario = row.Scenario
		out.Net = row.Net
		return out, nil
	}
	row, err := sweep.RowFromFields(rec)
	if err != nil {
		return StreamedRow{}, err
	}
	out.Row = row
	return out, nil
}

// fieldFromJSON recovers one canonical field string from its raw JSON
// value: numbers verbatim, string-quoted non-finite values unquoted.
func fieldFromJSON(v json.RawMessage) (string, error) {
	if len(v) > 0 && v[0] == '"' {
		return strconv.Unquote(string(v))
	}
	return string(v), nil
}

// decodeRecordGeneric is the reference decoder: it unmarshals the line
// into a map and recovers the index and the canonical record from the raw
// values, whatever the key order, spacing or escaping.
func decodeRecordGeneric(line []byte) (int, []string, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(line, &m); err != nil {
		return 0, nil, fmt.Errorf("serve: bad row line: %w", err)
	}
	raw, ok := m["index"]
	if !ok {
		return 0, nil, fmt.Errorf("serve: row line has no index")
	}
	var index int
	if err := json.Unmarshal(raw, &index); err != nil {
		return 0, nil, fmt.Errorf("serve: bad row index: %w", err)
	}
	names := fieldNames
	if _, scenarioRow := m["scenario"]; scenarioRow {
		names = scenarioFieldNames
	}
	rec := make([]string, len(names))
	for i, name := range names {
		v, ok := m[name]
		if !ok {
			return 0, nil, fmt.Errorf("serve: row line missing field %q", name)
		}
		if name == "scenario" { // the scenario kind is a string
			if err := json.Unmarshal(v, &rec[i]); err != nil {
				return 0, nil, fmt.Errorf("serve: bad scenario tag: %w", err)
			}
			continue
		}
		f, err := fieldFromJSON(v)
		if err != nil {
			return 0, nil, fmt.Errorf("serve: bad field %q: %w", name, err)
		}
		rec[i] = f
	}
	return index, rec, nil
}
