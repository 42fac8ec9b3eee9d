package wsnlink_test

import (
	"bytes"
	"context"
	"testing"

	"wsnlink"
)

func TestFacadeTraceRoundTrip(t *testing.T) {
	cfg := wsnlink.Config{
		DistanceM: 30, TxPower: 11, MaxTries: 3, QueueCap: 10,
		PktInterval: 0.05, PayloadBytes: 80,
	}
	res, err := wsnlink.Simulate(context.Background(), cfg, wsnlink.SimOptions{
		Packets: 300, Seed: 2, RecordPackets: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wsnlink.WriteTrace(&buf, res.Records); err != nil {
		t.Fatal(err)
	}
	back, err := wsnlink.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 300 {
		t.Fatalf("trace rows = %d", len(back))
	}
	runs, err := wsnlink.AnalyzeLossRuns(back)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Total != 300 {
		t.Errorf("loss-run total = %d", runs.Total)
	}
	if _, err := wsnlink.FitGilbertElliott(back); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeEstimator(t *testing.T) {
	e, err := wsnlink.NewEWMA(0.2)
	if err != nil {
		t.Fatal(err)
	}
	e.Update(10)
	e.Update(12)
	if e.Value() <= 10 || e.Value() >= 12 {
		t.Errorf("EWMA value = %v", e.Value())
	}
	r, err := wsnlink.NewRetuner(wsnlink.PaperModels(), wsnlink.RetunerConfig{
		CooldownSamples: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p, _ := r.Current()
		r.Observe(30 + p.DBm())
	}
	if p, _ := r.Current(); p == 31 {
		t.Error("strong link should have dropped power")
	}
}

func TestFacadeInterferenceAndStar(t *testing.T) {
	jam, err := wsnlink.NewBurstyInterferer(wsnlink.InterferenceParams{
		DutyCycle: 0.3, MeanBurstTx: 4, PowerAtVictimDBm: -85, NoiseFloorDBm: -95,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if per := jam.DataPER(20, 110); per < 0 || per > 1 {
		t.Errorf("PER = %v", per)
	}

	nodes := []wsnlink.Config{
		{DistanceM: 10, TxPower: 31, MaxTries: 3, QueueCap: 5,
			PktInterval: 0.05, PayloadBytes: 50},
		{DistanceM: 20, TxPower: 31, MaxTries: 3, QueueCap: 5,
			PktInterval: 0.05, PayloadBytes: 50},
	}
	res, err := wsnlink.SimulateStar(nodes, wsnlink.StarOptions{
		PacketsPerNode: 200, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 2 || res.AggregateGoodputKbps <= 0 {
		t.Errorf("star result: %+v", res)
	}
}

func TestFacadeLPLAndMobility(t *testing.T) {
	lplCfg := wsnlink.LPLConfig{
		WakeInterval: 0.5, TxPower: 31, PayloadBytes: 50, MsgRatePerS: 0.1,
	}
	if err := lplCfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if lplCfg.EnergyPerMsg() <= 0 {
		t.Error("LPL energy should be positive")
	}

	path, err := wsnlink.NewMobilePath([]wsnlink.Waypoint{
		{Pos: wsnlink.Point{X: 0, Y: 0}, Time: 0},
		{Pos: wsnlink.Point{X: 30, Y: 0}, Time: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if path.Duration() != 30 {
		t.Errorf("Duration = %v", path.Duration())
	}
}

func TestFacadeSimulateFast(t *testing.T) {
	cfg := wsnlink.Config{
		DistanceM: 20, TxPower: 19, MaxTries: 3, QueueCap: 10,
		PktInterval: 0.05, PayloadBytes: 80,
	}
	res, err := wsnlink.Simulate(context.Background(), cfg, wsnlink.SimOptions{Packets: 200, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if wsnlink.Measure(res).Generated != 200 {
		t.Error("fast path facade broken")
	}
	if wsnlink.DefaultChannel().PathLossExponent != 2.19 {
		t.Error("default channel facade broken")
	}
}
