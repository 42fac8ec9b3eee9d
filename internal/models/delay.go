package models

import "math"

// DelayModel is the D of Table III: the expected per-packet delay under an
// arrival process, combining the service-time model (Eqs. 5–6) with the
// queueing regimes the paper establishes through the utilization ρ (Eq. 9
// and Table II): negligible queueing for ρ ≪ 1, rapid blow-up as ρ → 1,
// unbounded growth (bounded only by the finite queue) for ρ ≥ 1.
//
// Within the stable regime the waiting time uses the M/D/1 approximation
// W = ρ·T_s/(2(1−ρ)) capped by the finite queue; in overload the queue
// stays full, so waiting ≈ Q_max·T_s and the fluid-limit loss 1−1/ρ
// applies. The regime boundary is the paper's; the in-regime interpolation
// is this library's.
type DelayModel struct {
	Service ServiceModel
}

// Estimate holds the model's delay decomposition for one operating point.
type DelayEstimate struct {
	// ServiceTime is the capped expected T_service in seconds.
	ServiceTime float64
	// QueueWait is the expected time spent waiting in the queue.
	QueueWait float64
	// Total = ServiceTime + QueueWait.
	Total float64
	// Utilization is ρ (Inf for a saturated sender).
	Utilization float64
	// QueueLoss is the expected queue-overflow loss rate (0 when stable).
	QueueLoss float64
}

// Estimate computes the delay decomposition. pktInterval <= 0 denotes a
// saturated sender: no arrival queue, delay equals the service time.
func (m DelayModel) Estimate(payloadBytes int, snrDB, retryDelay float64,
	maxTries, queueCap int, pktInterval float64) DelayEstimate {
	ts := m.Service.ExpectedCapped(payloadBytes, snrDB, retryDelay, maxTries)
	est := DelayEstimate{ServiceTime: ts}
	if queueCap < 1 {
		queueCap = 1
	}
	if pktInterval <= 0 {
		est.Utilization = math.Inf(1)
		est.Total = ts
		return est
	}
	rho := ts / pktInterval
	est.Utilization = rho
	switch {
	case rho < 1:
		wait := rho * ts / (2 * (1 - rho))
		if maxWait := float64(queueCap) * ts; wait > maxWait {
			wait = maxWait
		}
		est.QueueWait = wait
	default:
		est.QueueWait = float64(queueCap) * ts
		est.QueueLoss = 1 - 1/rho
	}
	est.Total = est.ServiceTime + est.QueueWait
	return est
}

// Stable reports whether the operating point keeps ρ < 1 — the paper's
// Sec. VI-B guideline for avoiding the queueing-delay blow-up.
func (m DelayModel) Stable(payloadBytes int, snrDB, retryDelay float64,
	maxTries int, pktInterval float64) bool {
	if pktInterval <= 0 {
		return false
	}
	ts := m.Service.ExpectedCapped(payloadBytes, snrDB, retryDelay, maxTries)
	return ts/pktInterval < 1
}
