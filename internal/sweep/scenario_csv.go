package sweep

import (
	"encoding/csv"
	"fmt"
	"io"

	"wsnlink/internal/scenario"
)

// scenarioNetHeader names the per-scenario network columns appended after
// the link schema. Every scenario kind writes all of them; columns a kind
// does not model are zero.
var scenarioNetHeader = []string{
	"nodes", "offered_load_pps", "agg_goodput_kbps",
	"collision_rate", "cca_fail_rate",
	"duty_cycle", "wake_interval_s", "lpl_latency_s",
	"interferer_duty", "snr_penalty_db",
	"speed_mps", "mean_distance_m",
}

// scenarioCSVHeader is the scenario dataset schema: the scenario kind,
// the full link row schema, then the network columns.
var scenarioCSVHeader = buildScenarioHeader()

func buildScenarioHeader() []string {
	out := make([]string, 0, 1+len(csvHeader)+len(scenarioNetHeader))
	out = append(out, "scenario")
	out = append(out, csvHeader...)
	out = append(out, scenarioNetHeader...)
	return out
}

// ScenarioFieldNames returns the scenario dataset column names in schema
// order. The returned slice is a copy; callers may keep or mutate it.
func ScenarioFieldNames() []string {
	out := make([]string, len(scenarioCSVHeader))
	copy(out, scenarioCSVHeader)
	return out
}

// ScenarioRowFields renders one scenario row using the canonical field
// encoding, aligned with ScenarioFieldNames. Like the link encoding it is
// byte-stable: ScenarioRowFromFields followed by ScenarioRowFields
// reproduces the input exactly.
func ScenarioRowFields(r scenario.Row) []string {
	rec := make(recordWriter, 0, len(scenarioCSVHeader))
	WriteScenarioColumns(&r, &rec)
	return rec
}

// WriteScenarioColumns feeds a scenario row's columns to w in schema
// order: the kind tag, the link row's columns, then the network columns.
func WriteScenarioColumns(r *scenario.Row, w ColumnWriter) {
	w.Text(string(r.Scenario))
	base := Row{Config: r.Config, Report: r.Report, Seed: r.Seed, Packets: r.Packets}
	base.WriteColumns(w)
	n := &r.Net
	w.Int(n.Nodes)
	for _, v := range [...]float64{
		n.OfferedLoadPPS, n.AggGoodputKbps,
		n.CollisionRate, n.CCAFailRate,
		n.DutyCycle, n.WakeIntervalS, n.LatencyS,
		n.InterfererDuty, n.SNRPenaltyDB,
		n.SpeedMPS, n.MeanDistanceM,
	} {
		w.Float(v)
	}
}

// ScenarioRowFromFields parses one canonical scenario record.
func ScenarioRowFromFields(rec []string) (scenario.Row, error) {
	if len(rec) != len(scenarioCSVHeader) {
		return scenario.Row{}, fmt.Errorf("sweep: scenario record has %d fields, want %d",
			len(rec), len(scenarioCSVHeader))
	}
	kind, err := scenario.ParseKind(rec[0])
	if err != nil {
		return scenario.Row{}, err
	}
	base, err := RowFromFields(rec[1 : 1+len(csvHeader)])
	if err != nil {
		return scenario.Row{}, err
	}
	p := recParser{rec: rec[1+len(csvHeader):]}
	net := scenario.NetStats{
		Nodes:          p.i(),
		OfferedLoadPPS: p.f(),
		AggGoodputKbps: p.f(),
		CollisionRate:  p.f(),
		CCAFailRate:    p.f(),
		DutyCycle:      p.f(),
		WakeIntervalS:  p.f(),
		LatencyS:       p.f(),
		InterfererDuty: p.f(),
		SNRPenaltyDB:   p.f(),
		SpeedMPS:       p.f(),
		MeanDistanceM:  p.f(),
	}
	if p.err != nil {
		return scenario.Row{}, p.err
	}
	return scenario.Row{
		Scenario: kind,
		Config:   base.Config,
		Seed:     base.Seed,
		Packets:  base.Packets,
		Report:   base.Report,
		Net:      net,
	}, nil
}

// ScenarioEncoder streams scenario dataset rows to CSV one at a time — the
// scenario counterpart of Encoder, with the same durability contract
// (flush in yield to keep the CSV ahead of the checkpoint).
type ScenarioEncoder struct {
	cw   *csv.Writer
	rows int
}

// NewScenarioEncoder wraps w for streaming scenario row encoding.
func NewScenarioEncoder(w io.Writer) *ScenarioEncoder {
	return &ScenarioEncoder{cw: csv.NewWriter(w)}
}

// WriteHeader emits the scenario dataset schema row.
func (e *ScenarioEncoder) WriteHeader() error {
	if err := e.cw.Write(scenarioCSVHeader); err != nil {
		return fmt.Errorf("sweep: write scenario header: %w", err)
	}
	return nil
}

// Encode appends one scenario row.
func (e *ScenarioEncoder) Encode(r scenario.Row) error {
	if err := e.cw.Write(ScenarioRowFields(r)); err != nil {
		return fmt.Errorf("sweep: write scenario row %d: %w", e.rows, err)
	}
	e.rows++
	return nil
}

// Rows returns the number of rows encoded so far.
func (e *ScenarioEncoder) Rows() int { return e.rows }

// Flush forces buffered rows to the underlying writer.
func (e *ScenarioEncoder) Flush() error {
	e.cw.Flush()
	return e.cw.Error()
}

// WriteScenarioCSV writes a scenario dataset with a header row.
func WriteScenarioCSV(w io.Writer, rows []scenario.Row) error {
	e := NewScenarioEncoder(w)
	if err := e.WriteHeader(); err != nil {
		return err
	}
	for _, r := range rows {
		if err := e.Encode(r); err != nil {
			return err
		}
	}
	return e.Flush()
}

// ReadScenarioCSV parses a scenario dataset written by WriteScenarioCSV.
func ReadScenarioCSV(r io.Reader) ([]scenario.Row, error) {
	return readScenarioCSV(r, -1)
}

// ReadScenarioCSVHead parses at most n scenario rows and ignores anything
// after them — including torn trailing data, for checkpoint realignment.
func ReadScenarioCSVHead(r io.Reader, n int) ([]scenario.Row, error) {
	if n < 0 {
		return nil, fmt.Errorf("sweep: ReadScenarioCSVHead: negative row count %d", n)
	}
	return readScenarioCSV(r, n)
}

func readScenarioCSV(r io.Reader, limit int) ([]scenario.Row, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(scenarioCSVHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("sweep: read scenario header: %w", err)
	}
	for i, h := range header {
		if h != scenarioCSVHeader[i] {
			return nil, fmt.Errorf("sweep: scenario header column %d is %q, want %q",
				i, h, scenarioCSVHeader[i])
		}
	}
	var rows []scenario.Row
	for line := 2; ; line++ {
		if limit >= 0 && len(rows) == limit {
			break
		}
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("sweep: line %d: %w", line, err)
		}
		row, err := ScenarioRowFromFields(rec)
		if err != nil {
			return nil, fmt.Errorf("sweep: line %d: %w", line, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
