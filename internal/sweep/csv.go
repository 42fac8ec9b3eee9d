package sweep

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"wsnlink/internal/metrics"
	"wsnlink/internal/phy"
	"wsnlink/internal/scenario"
	"wsnlink/internal/stack"
)

// csvHeader defines the dataset schema. Field order is the on-disk contract;
// ReadCSV validates it.
var csvHeader = []string{
	"distance_m", "tx_power", "max_tries", "retry_delay_s", "queue_cap",
	"pkt_interval_s", "payload_bytes",
	"seed", "packets",
	"mean_snr_db", "sd_snr_db", "mean_rssi_dbm", "sd_rssi_dbm",
	"per", "mean_tries",
	"energy_per_bit_uj", "listen_energy_uj", "radio_energy_per_bit_uj",
	"goodput_kbps",
	"mean_delay_s", "mean_service_time_s", "mean_queue_delay_s",
	"plr", "plr_queue", "plr_radio", "utilization",
	"generated", "delivered", "queue_drops", "radio_drops",
}

// FieldNames returns the dataset column names in schema order — the same
// identifiers the CSV header and the campaign service's NDJSON rows use.
// The returned slice is a copy; callers may keep or mutate it.
func FieldNames() []string {
	out := make([]string, len(csvHeader))
	copy(out, csvHeader)
	return out
}

// Fields renders the row's canonical field encoding, aligned with
// FieldNames. The encoding is byte-stable: RowFromFields followed by Fields
// reproduces the input exactly, which is what lets the service stream
// cached results byte-identically to live ones.
func (r Row) Fields() []string { return rowRecord(r) }

// RowFromFields parses one canonical record (as produced by Fields or read
// from a dataset CSV).
func RowFromFields(rec []string) (Row, error) {
	if len(rec) != len(csvHeader) {
		return Row{}, fmt.Errorf("sweep: record has %d fields, want %d", len(rec), len(csvHeader))
	}
	return parseRow(rec)
}

// ColumnWriter receives a row's columns in schema order (FieldNames, or
// ScenarioFieldNames for a scenario row), each as its native value. The
// canonical encoding of a Float column is strconv.FormatFloat(v, 'g', -1,
// 64) and of an Int or Uint column its decimal form, so an encoder can
// render the canonical fields straight from the values, without the
// []string record Fields builds.
type ColumnWriter interface {
	Float(v float64)
	Int(v int)
	Uint(v uint64)
	Text(s string)
}

// WriteColumns feeds the row's columns to w in schema order: the one place
// the link schema's column order is spelled out.
func (r *Row) WriteColumns(w ColumnWriter) {
	c, rep := &r.Config, &r.Report
	w.Float(c.DistanceM)
	w.Int(int(c.TxPower))
	w.Int(c.MaxTries)
	w.Float(c.RetryDelay)
	w.Int(c.QueueCap)
	w.Float(c.PktInterval)
	w.Int(c.PayloadBytes)
	w.Uint(r.Seed)
	w.Int(r.Packets)
	for _, v := range [...]float64{
		rep.MeanSNR, rep.SDSNR, rep.MeanRSSI, rep.SDRSSI,
		rep.PER, rep.MeanTries,
		rep.EnergyPerBitMicroJ, rep.ListenEnergyMicroJ,
		rep.RadioEnergyPerBitMicroJ, rep.GoodputKbps,
		rep.MeanDelay, rep.MeanServiceTime, rep.MeanQueueDelay,
		rep.PLR, rep.PLRQueue, rep.PLRRadio, rep.Utilization,
	} {
		w.Float(v)
	}
	w.Int(rep.Generated)
	w.Int(rep.Delivered)
	w.Int(rep.QueueDrops)
	w.Int(rep.RadioDrops)
}

// recordWriter collects the canonical field strings of a row.
type recordWriter []string

func (r *recordWriter) Float(v float64) { *r = append(*r, strconv.FormatFloat(v, 'g', -1, 64)) }
func (r *recordWriter) Int(v int)       { *r = append(*r, strconv.Itoa(v)) }
func (r *recordWriter) Uint(v uint64)   { *r = append(*r, strconv.FormatUint(v, 10)) }
func (r *recordWriter) Text(s string)   { *r = append(*r, s) }

// rowRecord formats one row using the canonical field encoding; the output
// is byte-stable, so re-encoding a parsed dataset reproduces it exactly.
func rowRecord(r Row) []string {
	rec := make(recordWriter, 0, len(csvHeader))
	r.WriteColumns(&rec)
	return rec
}

// csvSchema is one dataset schema: its header, the canonical record of a
// row and the parser of a record. The link and scenario datasets differ
// only in these, so one encoder and one reader serve both.
type csvSchema[R any] struct {
	label  string // prefix naming the schema in errors: "" or "scenario "
	header []string
	record func(R) []string
	parse  func([]string) (R, error)
}

var (
	linkCSV     = &csvSchema[Row]{header: csvHeader, record: Row.Fields, parse: RowFromFields}
	scenarioCSV = &csvSchema[scenario.Row]{label: "scenario ", header: scenarioCSVHeader,
		record: ScenarioRowFields, parse: ScenarioRowFromFields}
)

// csvEncoder streams dataset rows to CSV one at a time — the writing half
// of the streaming sweep pipeline. Call WriteHeader for a fresh dataset
// (skip it when appending to an existing file on resume), Encode per row,
// and Flush whenever the rows written so far must be durable (the
// streaming engine checkpoints a row only after its yield returned, so
// flushing in yield keeps the CSV ahead of the checkpoint).
type csvEncoder[R any] struct {
	schema *csvSchema[R]
	cw     *csv.Writer
	rows   int
}

// Encoder streams link dataset rows to CSV.
type Encoder = csvEncoder[Row]

// ScenarioEncoder streams scenario dataset rows to CSV.
type ScenarioEncoder = csvEncoder[scenario.Row]

// NewEncoder wraps w for streaming link row encoding.
func NewEncoder(w io.Writer) *Encoder { return linkCSV.newEncoder(w) }

// NewScenarioEncoder wraps w for streaming scenario row encoding.
func NewScenarioEncoder(w io.Writer) *ScenarioEncoder { return scenarioCSV.newEncoder(w) }

func (s *csvSchema[R]) newEncoder(w io.Writer) *csvEncoder[R] {
	return &csvEncoder[R]{schema: s, cw: csv.NewWriter(w)}
}

// WriteHeader emits the dataset schema row.
func (e *csvEncoder[R]) WriteHeader() error {
	if err := e.cw.Write(e.schema.header); err != nil {
		return fmt.Errorf("sweep: write %sheader: %w", e.schema.label, err)
	}
	return nil
}

// Encode appends one row.
func (e *csvEncoder[R]) Encode(r R) error {
	if err := e.cw.Write(e.schema.record(r)); err != nil {
		return fmt.Errorf("sweep: write %srow %d: %w", e.schema.label, e.rows, err)
	}
	e.rows++
	return nil
}

// Rows returns the number of rows encoded so far.
func (e *csvEncoder[R]) Rows() int { return e.rows }

// Flush forces buffered rows to the underlying writer.
func (e *csvEncoder[R]) Flush() error {
	e.cw.Flush()
	return e.cw.Error()
}

// WriteCSV writes the dataset with a header row — the batch convenience
// over Encoder.
func WriteCSV(w io.Writer, rows []Row) error {
	e := NewEncoder(w)
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

// ReadCSV parses a dataset written by WriteCSV.
func ReadCSV(r io.Reader) ([]Row, error) { return linkCSV.read(r, -1) }

// ReadScenarioCSV parses a scenario dataset written by a ScenarioEncoder.
func ReadScenarioCSV(r io.Reader) ([]scenario.Row, error) { return scenarioCSV.read(r, -1) }

// ReadCSVHead parses at most n rows and ignores anything after them —
// including torn trailing data. It is used to realign a dataset with its
// checkpoint after an interrupted run, where only the checkpointed prefix
// is trusted.
func ReadCSVHead(r io.Reader, n int) ([]Row, error) { return linkCSV.readHead(r, n) }

// ReadScenarioCSVHead parses at most n scenario rows and ignores anything
// after them — including torn trailing data, for checkpoint realignment.
func ReadScenarioCSVHead(r io.Reader, n int) ([]scenario.Row, error) {
	return scenarioCSV.readHead(r, n)
}

func (s *csvSchema[R]) readHead(r io.Reader, n int) ([]R, error) {
	if n < 0 {
		return nil, fmt.Errorf("sweep: read %sCSV head: negative row count %d", s.label, n)
	}
	return s.read(r, n)
}

// read parses the header and then at most limit rows (all rows when limit
// is negative).
func (s *csvSchema[R]) read(r io.Reader, limit int) ([]R, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(s.header)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("sweep: read %sheader: %w", s.label, err)
	}
	for i, h := range header {
		if h != s.header[i] {
			return nil, fmt.Errorf("sweep: %sheader column %d is %q, want %q", s.label, i, h, s.header[i])
		}
	}
	var rows []R
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
		row, err := s.parse(rec)
		if err != nil {
			return nil, fmt.Errorf("sweep: line %d: %w", line, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func parseRow(rec []string) (Row, error) {
	var row Row
	p := recParser{rec: rec}
	row.Config = stack.Config{
		DistanceM:    p.f(),
		TxPower:      phy.PowerLevel(p.i()),
		MaxTries:     p.i(),
		RetryDelay:   p.f(),
		QueueCap:     p.i(),
		PktInterval:  p.f(),
		PayloadBytes: p.i(),
	}
	row.Seed = p.u()
	row.Packets = p.i()
	row.Report = metrics.Report{
		Config:                  row.Config,
		MeanSNR:                 p.f(),
		SDSNR:                   p.f(),
		MeanRSSI:                p.f(),
		SDRSSI:                  p.f(),
		PER:                     p.f(),
		MeanTries:               p.f(),
		EnergyPerBitMicroJ:      p.f(),
		ListenEnergyMicroJ:      p.f(),
		RadioEnergyPerBitMicroJ: p.f(),
		GoodputKbps:             p.f(),
		MeanDelay:               p.f(),
		MeanServiceTime:         p.f(),
		MeanQueueDelay:          p.f(),
		PLR:                     p.f(),
		PLRQueue:                p.f(),
		PLRRadio:                p.f(),
		Utilization:             p.f(),
		Generated:               p.i(),
		Delivered:               p.i(),
		QueueDrops:              p.i(),
		RadioDrops:              p.i(),
	}
	if p.err != nil {
		return Row{}, p.err
	}
	// EnergyEfficiency is derived (1/U_eng) and not a schema column;
	// restore it so a decoded row equals the simulated one.
	if e := row.Report.EnergyPerBitMicroJ; e > 0 && !math.IsInf(e, 1) {
		row.Report.EnergyEfficiency = 1 / e
	}
	return row, nil
}

// recParser consumes CSV fields left to right, capturing the first error.
type recParser struct {
	rec []string
	pos int
	err error
}

func (p *recParser) next() string {
	s := p.rec[p.pos]
	p.pos++
	return s
}

func (p *recParser) f() float64 {
	s := p.next()
	if p.err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		p.err = fmt.Errorf("field %d: %w", p.pos, err)
	}
	return v
}

func (p *recParser) i() int {
	s := p.next()
	if p.err != nil {
		return 0
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		p.err = fmt.Errorf("field %d: %w", p.pos, err)
	}
	return v
}

func (p *recParser) u() uint64 {
	s := p.next()
	if p.err != nil {
		return 0
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		p.err = fmt.Errorf("field %d: %w", p.pos, err)
	}
	return v
}
