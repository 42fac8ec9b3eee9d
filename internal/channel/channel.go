// Package channel models the radio environment of the paper's 2 m × 40 m
// hallway: log-normal shadowing path loss with the paper's own fitted
// parameters (path-loss exponent n = 2.19, shadowing deviation σ = 3.2 dB,
// Fig. 3), slowly varying temporal fading, human-shadowing bursts near the
// 35 m position (Fig. 4), and a non-constant noise floor whose distribution
// mimics the ~24 million noise samples of Fig. 5 (a quiet Gaussian component
// around −95 dBm plus occasional interference bumps).
//
// All randomness is drawn from an injected *rand.Rand so that experiments
// are reproducible; the package has no global state.
package channel

import (
	"errors"
	"math"
	"math/rand/v2"

	"wsnlink/internal/phy"
	"wsnlink/internal/units"
)

// Params configures the channel model. The defaults reproduce the statistics
// the paper reports for its hallway.
type Params struct {
	// PathLossExponent is the log-distance exponent n (paper: 2.19).
	PathLossExponent float64
	// ShadowingSigmaDB is the location-to-location log-normal shadowing
	// deviation σ in dB (paper: 3.2).
	ShadowingSigmaDB float64
	// RefLossDB is the path loss at RefDistanceM in dB. 34.2 dB at 1 m
	// places the grey-zone/low-loss boundaries at the power levels the
	// paper reports for 35 m (optimal P_tx 7–11, P_tx 3 near sensitivity).
	RefLossDB float64
	// RefDistanceM is the reference distance for RefLossDB (1 m).
	RefDistanceM float64

	// NoiseFloorMeanDBm and NoiseFloorSigmaDB describe the quiet
	// component of the noise floor (paper: average −95 dBm).
	NoiseFloorMeanDBm float64
	NoiseFloorSigmaDB float64
	// InterferenceProb is the probability that a noise sample comes from
	// the interference component instead of the quiet component.
	InterferenceProb float64
	// InterferenceMeanDB / InterferenceSigmaDB describe how far above the
	// quiet floor interference bumps sit.
	InterferenceMeanDB  float64
	InterferenceSigmaDB float64

	// TemporalSigmaDB is the standard deviation of the AR(1) fast-fading
	// component around the location mean.
	TemporalSigmaDB float64
	// TemporalTauSeconds is the correlation time of the AR(1) process.
	TemporalTauSeconds float64

	// HumanShadowDistM enables the human-shadowing burst process for
	// links at or beyond this distance (paper: strongest at 35 m, where a
	// kitchen and a meeting room adjoin the hallway).
	HumanShadowDistM float64
	// HumanShadowRatePerS is the burst arrival rate.
	HumanShadowRatePerS float64
	// HumanShadowMeanDB / HumanShadowSigmaDB describe burst depth.
	HumanShadowMeanDB  float64
	HumanShadowSigmaDB float64
	// HumanShadowDurS is the mean burst duration (exponential).
	HumanShadowDurS float64
}

// DefaultParams returns the hallway parameters.
func DefaultParams() Params {
	return Params{
		PathLossExponent:    2.19,
		ShadowingSigmaDB:    3.2,
		RefLossDB:           34.2,
		RefDistanceM:        1,
		NoiseFloorMeanDBm:   -95.4,
		NoiseFloorSigmaDB:   0.8,
		InterferenceProb:    0.05,
		InterferenceMeanDB:  6,
		InterferenceSigmaDB: 2.5,
		TemporalSigmaDB:     1.2,
		TemporalTauSeconds:  2.0,
		HumanShadowDistM:    30,
		HumanShadowRatePerS: 0.02,
		HumanShadowMeanDB:   6,
		HumanShadowSigmaDB:  2,
		HumanShadowDurS:     5,
	}
}

// PathLossDB returns the deterministic (mean) path loss at distance d in
// meters: PL(d) = RefLossDB + 10·n·log10(d/d0).
func (p Params) PathLossDB(distM float64) float64 {
	if distM < p.RefDistanceM {
		distM = p.RefDistanceM
	}
	return p.RefLossDB + 10*p.PathLossExponent*math.Log10(distM/p.RefDistanceM)
}

// MeanRSSI returns the expected RSSI (dBm) at distance d for a transmit
// power in dBm, before shadowing.
func (p Params) MeanRSSI(txDBm, distM float64) float64 {
	return txDBm - p.PathLossDB(distM)
}

// MeanSNR returns the expected SNR in dB assuming the mean noise floor.
func (p Params) MeanSNR(txDBm, distM float64) float64 {
	return p.MeanRSSI(txDBm, distM) - p.NoiseFloorMeanDBm
}

// ErrBadDistance is returned for non-positive link distances.
var ErrBadDistance = errors.New("channel: distance must be positive")

// Link is the stochastic state of one sender→receiver link: the
// location-specific shadowing draw plus the time-varying fading, noise and
// human-shadowing processes. A Link is not safe for concurrent use.
type Link struct {
	params Params
	distM  float64
	rng    *rand.Rand

	// pathLossDB caches Params.PathLossDB(distM): the deterministic loss
	// is a pure function of the construction inputs, and computing the
	// log10 once per link (instead of once per RSSI sample) is one of the
	// batch kernel's larger savings.
	pathLossDB float64

	locShadowDB float64 // fixed location shadowing (log-normal draw)
	fadeDB      float64 // AR(1) temporal fading state
	now         float64 // link-local clock, seconds

	shadowActive  bool
	shadowDepthDB float64
	shadowUntil   float64
	nextShadowAt  float64

	// fadeMemo caches the AR(1) step coefficients (rho, innovation sigma)
	// keyed by the exact dt bits. Attempt spacings within a configuration
	// repeat from a handful of timing sums, so the exp+sqrt pair is
	// computed once per distinct spacing instead of once per attempt. The
	// cached values are the same float64s the direct formula produces, so
	// trajectories are bit-identical with and without the memo.
	fadeMemo struct {
		dt, rho, inn [4]float64
		n, next      int
	}
}

// NewLink creates a link at the given distance. The location shadowing is
// drawn once at construction, as in a fixed-position experiment.
func NewLink(p Params, distM float64, rng *rand.Rand) (*Link, error) {
	l := &Link{}
	if err := l.Reset(p, distM, rng); err != nil {
		return nil, err
	}
	return l, nil
}

// Reset re-initialises the link in place, exactly as NewLink constructs a
// fresh one: the same validation and the same construction-time draws from
// rng, in the same order. It exists so arena-style callers (the batch
// simulation kernel) can reuse one Link allocation across configurations
// and still get byte-identical trajectories to a freshly built link.
func (l *Link) Reset(p Params, distM float64, rng *rand.Rand) error {
	if distM <= 0 {
		return ErrBadDistance
	}
	*l = Link{params: p, distM: distM, rng: rng, pathLossDB: p.PathLossDB(distM)}
	l.locShadowDB = rng.NormFloat64() * p.ShadowingSigmaDB
	l.fadeDB = rng.NormFloat64() * p.TemporalSigmaDB
	l.scheduleNextShadow()
	return nil
}

// Distance returns the link distance in meters.
func (l *Link) Distance() float64 { return l.distM }

// Params returns the channel parameters the link was built with.
func (l *Link) Params() Params { return l.params }

// Now returns the link-local clock in seconds.
func (l *Link) Now() float64 { return l.now }

func (l *Link) scheduleNextShadow() {
	if l.params.HumanShadowRatePerS <= 0 || l.distM < l.params.HumanShadowDistM {
		l.nextShadowAt = math.Inf(1)
		return
	}
	l.nextShadowAt = l.now + l.rng.ExpFloat64()/l.params.HumanShadowRatePerS
}

// Advance moves the link-local clock forward by dt seconds, evolving the
// AR(1) fading state and the human-shadowing burst process.
func (l *Link) Advance(dt float64) {
	if dt <= 0 {
		return
	}
	l.now += dt
	// AR(1) / Ornstein-Uhlenbeck update with correlation time tau.
	if l.params.TemporalTauSeconds > 0 && l.params.TemporalSigmaDB > 0 {
		rho, innovation := l.fadeStep(dt)
		l.fadeDB = rho*l.fadeDB + innovation*l.rng.NormFloat64()
	}
	// Human-shadowing bursts.
	if l.shadowActive && l.now >= l.shadowUntil {
		l.shadowActive = false
		l.scheduleNextShadow()
	}
	if !l.shadowActive && l.now >= l.nextShadowAt {
		l.shadowActive = true
		depth := l.params.HumanShadowMeanDB +
			l.params.HumanShadowSigmaDB*l.rng.NormFloat64()
		l.shadowDepthDB = max(0, depth)
		l.shadowUntil = l.now + l.rng.ExpFloat64()*l.params.HumanShadowDurS
	}
}

// fadeStep returns (rho, innovation sigma) for an AR(1) step of dt seconds,
// memoised on the exact dt bits. Cache entries hold the very float64s the
// direct formula yields, so the memo never changes a trajectory.
func (l *Link) fadeStep(dt float64) (rho, inn float64) {
	m := &l.fadeMemo
	for i := 0; i < m.n; i++ {
		if m.dt[i] == dt {
			return m.rho[i], m.inn[i]
		}
	}
	rho = math.Exp(-dt / l.params.TemporalTauSeconds)
	inn = math.Sqrt(1-rho*rho) * l.params.TemporalSigmaDB
	i := m.next
	if m.n < len(m.dt) {
		i = m.n
		m.n++
	} else {
		m.next++
		if m.next == len(m.dt) {
			m.next = 0
		}
	}
	m.dt[i], m.rho[i], m.inn[i] = dt, rho, inn
	return rho, inn
}

// RSSI returns the instantaneous received signal strength in dBm for a
// transmission at txDBm, clamped at the CC2420 sensitivity from below the
// way the chip reports it.
func (l *Link) RSSI(txDBm float64) float64 {
	rssi := (txDBm - l.pathLossDB) + l.locShadowDB + l.fadeDB
	if l.shadowActive {
		rssi -= l.shadowDepthDB
	}
	return max(rssi, phy.SensitivityDBm-3)
}

// NoiseFloorDBm draws one noise-floor sample from the mixture distribution.
func (l *Link) NoiseFloorDBm() float64 {
	p := &l.params
	if l.rng.Float64() < p.InterferenceProb {
		bump := p.InterferenceMeanDB + p.InterferenceSigmaDB*l.rng.NormFloat64()
		return p.NoiseFloorMeanDBm + max(0, bump)
	}
	return p.NoiseFloorMeanDBm + p.NoiseFloorSigmaDB*l.rng.NormFloat64()
}

// SNR returns the instantaneous signal-to-noise ratio in dB: the current
// RSSI against a fresh noise-floor sample.
func (l *Link) SNR(txDBm float64) float64 {
	return l.RSSI(txDBm) - l.NoiseFloorDBm()
}

// Sample returns one coherent (RSSI, SNR) observation: the SNR is the
// returned RSSI against a fresh noise-floor sample. It draws from the RNG in
// the same order as RSSI followed by SNR would, while computing the RSSI
// only once — the simulation kernels use it on first transmission attempts,
// where both readings are recorded.
func (l *Link) Sample(txDBm float64) (rssi, snr float64) {
	rssi = l.RSSI(txDBm)
	return rssi, rssi - l.NoiseFloorDBm()
}

// ConstantNoiseSNR returns the SNR computed against the constant average
// noise floor, the simplification whose error Fig. 5 quantifies.
func (l *Link) ConstantNoiseSNR(txDBm float64) float64 {
	return l.RSSI(txDBm) - l.params.NoiseFloorMeanDBm
}

// Quantize rounds an RSSI reading to the 1 dB register resolution of the
// CC2420 and clamps it to the chip's reporting range.
func Quantize(rssiDBm float64) float64 {
	return units.Clamp(math.Round(rssiDBm), -100, 0)
}
