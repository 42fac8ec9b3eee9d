package sweep

import (
	"context"
	"testing"

	"wsnlink/internal/mac"
	"wsnlink/internal/obs"
	"wsnlink/internal/sim"
)

// recordStagesPerPacket is the reference accounting the simulators' lane
// accumulators must reproduce: every packet's stage split recorded on the
// hub one sample at a time, recomputed from the packet log.
func recordStagesPerPacket(m *obs.Metrics, res sim.Result) {
	frameTime := mac.FrameAirTime(res.Config.PayloadBytes)
	for _, rec := range res.Records {
		m.StageAddSim(obs.StageGenerator, 0)
		if rec.QueueDrop {
			continue
		}
		air := float64(rec.Tries) * frameTime
		rx := float64(rec.Tries) * mac.AckWaitTimeout
		if rec.Acked {
			rx = mac.AckTime + float64(rec.Tries-1)*mac.AckWaitTimeout
		}
		m.StageAddSim(obs.StageQueue, rec.ServiceStart-rec.GenTime)
		m.StageAddSim(obs.StageChannel, air)
		m.StageAddSim(obs.StageRX, rx)
		m.StageAddSim(obs.StageMAC, rec.ServiceEnd-rec.ServiceStart-air-rx)
	}
}

// TestSimStagesMatchPerPacketRecording: the simulator-stage counts and
// nanosecond totals a StreamConfigs run leaves in its Metrics hub — flushed
// once per configuration from each lane's accumulator — equal a reference
// that records every packet's stages on the hub individually, on the batch
// kernel, the single-configuration fast path and the DES.
func TestSimStagesMatchPerPacketRecording(t *testing.T) {
	space := smallSpace()
	space.QueueCaps = []int{1, 30}          // queue drops (no stage split)
	space.PktIntervals = []float64{0, 0.01} // saturated and congested
	cfgs := space.All()
	for _, tc := range []struct {
		name      string
		engine    sim.EngineKind
		batchSize int
	}{
		{"batch", sim.EngineFast, 0},
		{"fast-single", sim.EngineFast, 1},
		{"des", sim.EngineDES, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := RunOptions{Packets: 120, BaseSeed: 5, Workers: 2, Engine: tc.engine,
				BatchSize: tc.batchSize, Metrics: obs.New()}
			if _, err := RunConfigs(context.Background(), cfgs, opts); err != nil {
				t.Fatal(err)
			}
			ref := obs.New()
			for i, cfg := range cfgs {
				res, err := sim.Simulate(context.Background(), cfg, sim.Options{
					Packets: opts.Packets, Seed: opts.seedFor(i), Engine: tc.engine,
					RecordPackets: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				recordStagesPerPacket(ref, res)
			}
			got, want := opts.Metrics.Snapshot(), ref.Snapshot()
			for _, st := range want.Stages {
				if st.Clock != "sim" {
					continue
				}
				g := got.Stage(st.Name)
				if g.Count != st.Count || g.Seconds != st.Seconds {
					t.Errorf("stage %s: got %d samples / %v s, per-packet reference %d / %v s",
						st.Name, g.Count, g.Seconds, st.Count, st.Seconds)
				}
				if st.Count == 0 {
					t.Errorf("stage %s: reference recorded nothing", st.Name)
				}
			}
		})
	}
}
