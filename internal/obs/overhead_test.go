package obs

import (
	"testing"
	"time"
)

// instrumentationSequence is one configuration's worth of engine-side
// telemetry calls — the exact call-site mix the sweep engine and simulator
// issue per configuration. The overhead benchmarks and the zero-allocation
// test run this same sequence so the numbers describe the real hot path.
func instrumentationSequence(m *Metrics) {
	m.StageAdd(StageDispatch, 5*time.Microsecond)
	m.ObserveConfig(2 * time.Millisecond)
	m.StageAdd(StageSimulate, 2*time.Millisecond)
	var st SimStages // a simulator lane's accumulator, flushed per configuration
	st.Add(StageGenerator, 0)
	st.Add(StageQueue, 0.004)
	st.Add(StageMAC, 0.002)
	st.Add(StageChannel, 0.003)
	st.Add(StageRX, 0.001)
	st.Flush(m)
	m.AddPackets(400)
	m.ObserveWindow(3)
	m.StageAdd(StageReorder, time.Microsecond)
	m.StageAdd(StageYield, 10*time.Microsecond)
	m.IncRows()
}

// TestNilPathZeroAlloc pins the disabled-instrumentation contract: with a
// nil *Metrics the full per-configuration call sequence must not allocate.
// BenchmarkObsNilOverhead reports the same property as allocs/op.
func TestNilPathZeroAlloc(t *testing.T) {
	var m *Metrics
	if got := testing.AllocsPerRun(1000, func() { instrumentationSequence(m) }); got != 0 {
		t.Errorf("nil instrumentation path allocates %.1f times per sequence, want 0", got)
	}
}

// TestEnabledPathZeroAlloc: the enabled path is also allocation-free — all
// state is preallocated at New, so a campaign's steady state never touches
// the heap for telemetry.
func TestEnabledPathZeroAlloc(t *testing.T) {
	m := New()
	if got := testing.AllocsPerRun(1000, func() { instrumentationSequence(m) }); got != 0 {
		t.Errorf("enabled instrumentation path allocates %.1f times per sequence, want 0", got)
	}
}

// BenchmarkObsNilOverhead measures the per-configuration cost of the
// telemetry call sites when instrumentation is disabled (nil *Metrics) —
// the price every un-instrumented sweep pays. Must report 0 allocs/op; the
// ns/op figure is the total added per configuration, which is noise next to
// a millisecond-scale simulation (<< 2%).
func BenchmarkObsNilOverhead(b *testing.B) {
	var m *Metrics
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		instrumentationSequence(m)
	}
}

// BenchmarkObsEnabledOverhead measures the same call sequence against a live
// Metrics — the marginal cost of turning telemetry on.
func BenchmarkObsEnabledOverhead(b *testing.B) {
	m := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		instrumentationSequence(m)
	}
}

// BenchmarkObsEnabledParallel is the contended variant: many workers hitting
// one Metrics, as a parallel sweep does.
func BenchmarkObsEnabledParallel(b *testing.B) {
	m := New()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			instrumentationSequence(m)
		}
	})
}

// BenchmarkSnapshot measures the poll cost (CLI tickers, expvar GETs).
func BenchmarkSnapshot(b *testing.B) {
	m := New()
	for i := 0; i < 1000; i++ {
		instrumentationSequence(m)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Snapshot()
	}
}
