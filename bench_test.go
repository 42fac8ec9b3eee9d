package wsnlink_test

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating the underlying data via internal/experiments),
// plus ablation benchmarks for the design choices DESIGN.md calls out
// (event-driven vs Monte-Carlo simulation, model evaluation and MOP solve
// cost, sweep throughput).
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks use a reduced packet count per configuration so
// the whole suite completes in minutes; `wsnbench -packets 4500` reproduces
// the campaign-scale statistics.

import (
	"context"
	"fmt"
	"io"
	"testing"

	"wsnlink"
	"wsnlink/internal/experiments"
	"wsnlink/internal/models"
	"wsnlink/internal/netsim"
	"wsnlink/internal/optimize"
	"wsnlink/internal/scenario"
	"wsnlink/internal/sim"
	"wsnlink/internal/stack"
	"wsnlink/internal/sweep"
)

// benchOpts keeps per-iteration work bounded.
func benchOpts() experiments.Options {
	return experiments.Options{Packets: 150, Seed: 1}
}

func benchExperiment[T experiments.Renderer](b *testing.B, run func(experiments.Options) (T, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := run(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

// --- One benchmark per paper table/figure -----------------------------------

func BenchmarkFig1TradeoffFront(b *testing.B) { benchExperiment(b, experiments.RunTableIV) }
func BenchmarkFig3PathLoss(b *testing.B)      { benchExperiment(b, experiments.RunFig3) }
func BenchmarkFig4RSSIDeviation(b *testing.B) { benchExperiment(b, experiments.RunFig4) }
func BenchmarkFig5NoiseFloor(b *testing.B)    { benchExperiment(b, experiments.RunFig5) }
func BenchmarkFig6PER(b *testing.B)           { benchExperiment(b, experiments.RunFig6) }
func BenchmarkFig7EnergyVsPower(b *testing.B) { benchExperiment(b, experiments.RunFig7) }
func BenchmarkFig8EnergyVsPayload(b *testing.B) {
	benchExperiment(b, experiments.RunFig8)
}
func BenchmarkFig9EnergyModel(b *testing.B)   { benchExperiment(b, experiments.RunFig9) }
func BenchmarkFig10Goodput(b *testing.B)      { benchExperiment(b, experiments.RunFig10) }
func BenchmarkFig11NtriesFit(b *testing.B)    { benchExperiment(b, experiments.RunFig11) }
func BenchmarkFig12RadioLossFit(b *testing.B) { benchExperiment(b, experiments.RunFig12) }
func BenchmarkFig13MaxGoodput(b *testing.B)   { benchExperiment(b, experiments.RunFig13) }
func BenchmarkFig15Delay(b *testing.B)        { benchExperiment(b, experiments.RunFig15) }
func BenchmarkFig16PLR(b *testing.B)          { benchExperiment(b, experiments.RunFig16) }
func BenchmarkFig17LossTradeoff(b *testing.B) { benchExperiment(b, experiments.RunFig17) }
func BenchmarkTableII(b *testing.B)           { benchExperiment(b, experiments.RunTableII) }
func BenchmarkTableIV(b *testing.B)           { benchExperiment(b, experiments.RunTableIV) }

// Extension experiments (the paper's Sec. VIII-D future-work factors).

func BenchmarkExtContention(b *testing.B)   { benchExperiment(b, experiments.RunExtContention) }
func BenchmarkExtInterference(b *testing.B) { benchExperiment(b, experiments.RunExtInterference) }
func BenchmarkExtLPL(b *testing.B)          { benchExperiment(b, experiments.RunExtLPL) }
func BenchmarkExtMobility(b *testing.B)     { benchExperiment(b, experiments.RunExtMobility) }

// --- Ablation and substrate benchmarks --------------------------------------

func benchConfig() stack.Config {
	return stack.Config{
		DistanceM:    25,
		TxPower:      15,
		MaxTries:     3,
		RetryDelay:   0.030,
		QueueCap:     30,
		PktInterval:  0.030,
		PayloadBytes: 110,
	}
}

// BenchmarkSimDES measures the event-driven simulator's per-run cost.
func BenchmarkSimDES(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg, sim.Options{Packets: 1000, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimFast measures the Monte-Carlo fast path on the same workload —
// the ablation DESIGN.md calls out for campaign-scale sweeps.
func BenchmarkSimFast(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunFast(cfg, sim.Options{Packets: 1000, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunFast measures a single fast-path run through the public
// facade — the per-configuration cost a campaign pays — on the same
// workload as BenchmarkSimFast, so facade overhead is directly visible.
func BenchmarkRunFast(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wsnlink.Simulate(context.Background(), cfg, wsnlink.SimOptions{
			Packets: 1000, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// batchBenchConfigs samples n configurations evenly from the Table I space,
// so the batch workload mixes distances, powers, payloads and queue shapes
// the way a real campaign does instead of hammering one easy configuration.
func batchBenchConfigs(n int) []wsnlink.Config {
	all := stack.DefaultSpace().All()
	cfgs := make([]wsnlink.Config, n)
	stride := len(all) / n
	for i := range cfgs {
		cfgs[i] = all[i*stride]
	}
	return cfgs
}

// BenchmarkRunBatch is the campaign headline committed to BENCH_2.json: 64
// configurations sampled from the Table I space per batch-kernel call, 250
// packets each under CRN seed pairing, with a reused arena. 250 packets is
// the CRN campaign operating point — paired contrasts reach the confidence
// of independent 500-packet runs with roughly half the packets
// (TestCRNReducesContrastVariance measures a ~2× contrast-variance
// reduction). The interesting numbers are configs/s and the allocation
// count, which must be zero in steady state.
func BenchmarkRunBatch(b *testing.B) {
	cfgs := batchBenchConfigs(64)
	seeds := make([]uint64, len(cfgs))
	for i := range seeds {
		seeds[i] = sim.DeriveSeed(1, 0) // CRN: every lane shares the index-0 seed
	}
	arena := wsnlink.NewSimBatchArena()
	opts := wsnlink.SimBatchOptions{Packets: 250, Seeds: seeds, Arena: arena}
	// A cancelable context, as every sweep worker runs under: the kernel's
	// per-packet cancellation poll takes its Done-channel branch, not the
	// Err fallback a never-canceled context selects.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, _, err := wsnlink.SimulateBatch(ctx, cfgs, opts); err != nil {
		b.Fatal(err) // warm the arena so the loop measures steady state
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := wsnlink.SimulateBatch(ctx, cfgs, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(cfgs))*float64(b.N)/b.Elapsed().Seconds(), "configs/s")
}

// BenchmarkSweep16 measures parallel sweep throughput over 16 configurations.
func BenchmarkSweep16(b *testing.B) {
	space := stack.Space{
		DistancesM:    []float64{25, 35},
		TxPowers:      []wsnlink.PowerLevel{7, 31},
		MaxTries:      []int{1, 3},
		RetryDelays:   []float64{0},
		QueueCaps:     []int{1},
		PktIntervals:  []float64{0.05},
		PayloadsBytes: []int{20, 110},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.RunSpace(context.Background(), space, sweep.RunOptions{
			Packets: 200, BaseSeed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepStreaming measures the streaming engine on the same
// 16-configuration space as BenchmarkSweep16. The allocation figure is the
// interesting number: streaming holds only O(workers) rows live, so the
// per-iteration footprint must not grow with the space size. Its 16
// configurations fit in one 64-configuration block, so only one worker ever
// runs; BenchmarkStreamConfigsWorkers measures how the engine scales.
func BenchmarkSweepStreaming(b *testing.B) {
	space := stack.Space{
		DistancesM:    []float64{25, 35},
		TxPowers:      []wsnlink.PowerLevel{7, 31},
		MaxTries:      []int{1, 3},
		RetryDelays:   []float64{0},
		QueueCaps:     []int{1},
		PktIntervals:  []float64{0.05},
		PayloadsBytes: []int{20, 110},
	}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := 0
		err := sweep.StreamSpace(ctx, space, sweep.RunOptions{
			Packets: 200, BaseSeed: uint64(i),
		}, func(sweep.Row) error { rows++; return nil })
		if err != nil {
			b.Fatal(err)
		}
		if rows != 16 {
			b.Fatalf("rows = %d", rows)
		}
	}
}

// BenchmarkStreamConfigsWorkers measures how the streaming engine scales
// with its worker count on campaignbench's fresh-large campaign: 1024
// configurations (4 distances × 8 powers × 2 retry limits × 2 packet
// intervals × 8 payloads) at 250 packets, 16 blocks of 64. Run it with
// -cpu 2 or more: Workers 2 on one CPU only interleaves.
func BenchmarkStreamConfigsWorkers(b *testing.B) {
	cfgs := stack.Space{
		DistancesM:    []float64{5, 15, 25, 35},
		TxPowers:      []wsnlink.PowerLevel{3, 7, 11, 15, 19, 23, 27, 31},
		MaxTries:      []int{1, 3},
		RetryDelays:   []float64{0.03},
		QueueCaps:     []int{30},
		PktIntervals:  []float64{0.03, 0.1},
		PayloadsBytes: []int{5, 20, 35, 50, 65, 80, 95, 110},
	}.All()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("Workers=%d", workers), func(b *testing.B) {
			ctx := context.Background()
			rows := 0
			for i := 0; i < b.N; i++ {
				err := sweep.StreamConfigs(ctx, cfgs, sweep.RunOptions{
					Packets: 250, BaseSeed: uint64(i), Workers: workers,
				}, func(sweep.Row) error { rows++; return nil })
				if err != nil {
					b.Fatal(err)
				}
			}
			if rows != b.N*len(cfgs) {
				b.Fatalf("rows = %d, want %d", rows, b.N*len(cfgs))
			}
			b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkSmallCampaign measures the engine's fixed cost per job on
// campaignbench's small-mixed job shape: 4 configurations at 120 packets
// on 2 workers, as a link campaign and as a 3-node star campaign. At this
// size set-up, not simulation, dominates, so B/op and allocs/op are the
// numbers to watch.
func BenchmarkSmallCampaign(b *testing.B) {
	cfgs := stack.Space{
		DistancesM:    []float64{35},
		TxPowers:      []wsnlink.PowerLevel{31},
		MaxTries:      []int{1, 3},
		RetryDelays:   []float64{0.03},
		QueueCaps:     []int{1},
		PktIntervals:  []float64{0.05},
		PayloadsBytes: []int{20, 110},
	}.All()
	ctx := context.Background()
	opts := func(i int) sweep.RunOptions {
		return sweep.RunOptions{Packets: 120, BaseSeed: uint64(i), Workers: 2}
	}
	b.Run("link", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows := 0
			if err := sweep.StreamConfigs(ctx, cfgs, opts(i), func(sweep.Row) error { rows++; return nil }); err != nil {
				b.Fatal(err)
			}
			if rows != len(cfgs) {
				b.Fatalf("rows = %d", rows)
			}
		}
	})
	b.Run("star", func(b *testing.B) {
		star := scenario.StarSpec(3)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows := 0
			if err := sweep.StreamScenarios(ctx, star, cfgs, opts(i), func(scenario.Row) error { rows++; return nil }); err != nil {
				b.Fatal(err)
			}
			if rows != len(cfgs) {
				b.Fatalf("rows = %d", rows)
			}
		}
	})
}

// BenchmarkModelEval measures one full four-metric model evaluation.
func BenchmarkModelEval(b *testing.B) {
	ev := optimize.NewEvaluator(models.Paper(), 23, 3)
	cand := optimize.Candidate{
		TxPower: 31, PayloadBytes: 80, MaxTries: 3,
		RetryDelay: 0.030, QueueCap: 30, PktInterval: 0.030,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Evaluate(cand); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMOPSolve measures the Sec. VIII epsilon-constraint solve over the
// default candidate grid, including grid evaluation.
func BenchmarkMOPSolve(b *testing.B) {
	ev := optimize.NewEvaluator(models.Paper(), 23, 3)
	cands := optimize.DefaultGrid().Candidates()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		evals, err := ev.EvaluateAll(cands)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := optimize.EpsilonConstraint(evals, optimize.MetricGoodput,
			[]optimize.Constraint{{Metric: optimize.MetricEnergy, Bound: 0.5}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParetoFront measures front extraction over the default grid.
func BenchmarkParetoFront(b *testing.B) {
	ev := optimize.NewEvaluator(models.Paper(), 23, 3)
	evals, err := ev.EvaluateAll(optimize.DefaultGrid().Candidates())
	if err != nil {
		b.Fatal(err)
	}
	ms := []optimize.Metric{optimize.MetricEnergy, optimize.MetricGoodput}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if front := optimize.ParetoFront(evals, ms); len(front) == 0 {
			b.Fatal("empty front")
		}
	}
}

// BenchmarkStarSim8 measures the contention simulator with 8 senders.
func BenchmarkStarSim8(b *testing.B) {
	var cfgs []stack.Config
	for i := 0; i < 8; i++ {
		cfgs = append(cfgs, stack.Config{
			DistanceM: 5 + float64(i)*4, TxPower: 31, MaxTries: 3,
			RetryDelay: 0.010, QueueCap: 10, PktInterval: 0.060,
			PayloadBytes: 50,
		})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := netsim.RunStar(cfgs, netsim.Options{
			PacketsPerNode: 250, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngine measures raw event-engine throughput.
func BenchmarkEngine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < 10000 {
				if _, err := e.Schedule(0.001, tick); err != nil {
					b.Fatal(err)
				}
			}
		}
		if _, err := e.Schedule(0, tick); err != nil {
			b.Fatal(err)
		}
		e.RunUntilIdle()
		if n != 10000 {
			b.Fatalf("ran %d events", n)
		}
	}
}
