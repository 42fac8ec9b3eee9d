package models

import (
	"math"
	"testing"
)

// paperDelay is the delay model with the published constants.
func paperDelay() DelayModel { return DelayModel{Service: PaperService()} }

func TestDelayEstimateSaturated(t *testing.T) {
	m := paperDelay()
	est := m.Estimate(110, 20, 0.030, 3, 30, 0)
	if !math.IsInf(est.Utilization, 1) {
		t.Errorf("saturated utilization = %v, want +Inf", est.Utilization)
	}
	if est.QueueWait != 0 || est.QueueLoss != 0 {
		t.Errorf("saturated queue stats = %+v, want zero", est)
	}
	if est.Total != est.ServiceTime {
		t.Error("saturated delay must equal service time")
	}
}

func TestDelayEstimateStableRegime(t *testing.T) {
	m := paperDelay()
	// Table II SNR 20 row: ρ ≈ 0.713 at T_pkt = 30 ms.
	est := m.Estimate(110, 20, 0.030, 3, 30, 0.030)
	if est.Utilization >= 1 || est.Utilization < 0.6 {
		t.Errorf("rho = %v, want ≈0.713", est.Utilization)
	}
	if est.QueueLoss != 0 {
		t.Errorf("stable queue loss = %v, want 0", est.QueueLoss)
	}
	// M/D/1 wait: rho·Ts/(2(1-rho)).
	wantWait := est.Utilization * est.ServiceTime / (2 * (1 - est.Utilization))
	if math.Abs(est.QueueWait-wantWait) > 1e-12 {
		t.Errorf("wait = %v, want %v", est.QueueWait, wantWait)
	}
	if est.Total != est.ServiceTime+est.QueueWait {
		t.Error("Total must be the sum of components")
	}
}

func TestDelayEstimateOverload(t *testing.T) {
	m := paperDelay()
	// Table II SNR 10 row: ρ ≈ 1.236.
	est := m.Estimate(110, 10, 0.030, 3, 30, 0.030)
	if est.Utilization <= 1 {
		t.Fatalf("rho = %v, want > 1", est.Utilization)
	}
	if est.QueueWait != 30*est.ServiceTime {
		t.Errorf("overload wait = %v, want full queue %v", est.QueueWait, 30*est.ServiceTime)
	}
	wantLoss := 1 - 1/est.Utilization
	if math.Abs(est.QueueLoss-wantLoss) > 1e-12 {
		t.Errorf("queue loss = %v, want fluid limit %v", est.QueueLoss, wantLoss)
	}
}

func TestDelayEstimateNearSaturationBlowup(t *testing.T) {
	// The paper: delay "increases extremely quickly when ρ → 1". The wait
	// at ρ = 0.95 must dwarf the wait at ρ = 0.5 (same service time, vary
	// the interval), until the finite queue caps it.
	m := paperDelay()
	ts := m.Service.ExpectedCapped(110, 25, 0, 3)
	waitAt := func(rho float64) float64 {
		return m.Estimate(110, 25, 0, 3, 1000, ts/rho).QueueWait
	}
	if waitAt(0.95) < 5*waitAt(0.5) {
		t.Errorf("no blow-up: wait(0.95)=%v wait(0.5)=%v", waitAt(0.95), waitAt(0.5))
	}
	// A small queue caps the wait.
	capped := m.Estimate(110, 25, 0, 3, 2, ts/0.99).QueueWait
	if capped > 2*ts+1e-12 {
		t.Errorf("queue cap not applied: %v > %v", capped, 2*ts)
	}
}

func TestDelayEstimateQueueCapFloor(t *testing.T) {
	m := paperDelay()
	a := m.Estimate(110, 20, 0, 3, 0, 0.030) // illegal cap clamps to 1
	b := m.Estimate(110, 20, 0, 3, 1, 0.030)
	if a != b {
		t.Error("queueCap < 1 should clamp to 1")
	}
}

func TestDelayStable(t *testing.T) {
	m := paperDelay()
	// Table II: SNR 20 stable, SNR 10 unstable at T_pkt 30 ms.
	if !m.Stable(110, 20, 0.030, 3, 0.030) {
		t.Error("SNR 20 should be stable")
	}
	if m.Stable(110, 10, 0.030, 3, 0.030) {
		t.Error("SNR 10 should be unstable")
	}
	if m.Stable(110, 30, 0, 3, 0) {
		t.Error("saturated sender is never 'stable'")
	}
}

func TestSuiteDelayWired(t *testing.T) {
	s := Paper()
	if s.Delay.Service.Ntries != s.Ntries {
		t.Error("suite delay model must share the Ntries model")
	}
	// Calibrated suite too.
	res, err := Calibrate(synthObservations(0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Suite.Delay.Service.Ntries != res.Suite.Ntries {
		t.Error("calibrated suite delay model not wired")
	}
}
