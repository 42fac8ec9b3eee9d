package sweep

import (
	"fmt"

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
