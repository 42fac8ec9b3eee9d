package serve

import "strconv"

// The reference wire encoding of a canonical record — the []string that
// sweep.Row.Fields and sweep.ScenarioRowFields return — which the daemon's
// direct row renderer (rowAppender) must reproduce byte for byte.

// appendFieldJSON appends one canonical field value as a JSON value.
// Finite numbers travel as raw JSON numbers; the non-finite encodings a
// fully-lost configuration produces ("+Inf" energy-per-bit, "NaN" means)
// are not valid JSON numbers and travel as JSON strings instead —
// parseRowLine unquotes them back to the same canonical bytes.
func appendFieldJSON(dst []byte, field string) []byte {
	switch field {
	case "+Inf", "-Inf", "Inf", "NaN":
		return strconv.AppendQuote(dst, field)
	}
	return append(dst, field...)
}

// appendRowJSON renders one NDJSON line (including the trailing newline)
// from a canonical record.
func appendRowJSON(dst []byte, index int, fields []string) []byte {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(index), 10)
	for i, name := range fieldNames {
		dst = append(dst, ',', '"')
		dst = append(dst, name...)
		dst = append(dst, '"', ':')
		dst = appendFieldJSON(dst, fields[i])
	}
	return append(dst, '}', '\n')
}

// appendScenarioRowJSON renders one scenario NDJSON line. Every column but
// the scenario tag carries the canonical numeric encoding verbatim; the
// tag itself is a JSON string.
func appendScenarioRowJSON(dst []byte, index int, fields []string) []byte {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(index), 10)
	for i, name := range scenarioFieldNames {
		dst = append(dst, ',', '"')
		dst = append(dst, name...)
		dst = append(dst, '"', ':')
		if i == 0 { // the scenario kind is a string
			dst = strconv.AppendQuote(dst, fields[i])
			continue
		}
		dst = appendFieldJSON(dst, fields[i])
	}
	return append(dst, '}', '\n')
}
