package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"

	"wsnlink/internal/channel"
	"wsnlink/internal/frame"
	"wsnlink/internal/mac"
	"wsnlink/internal/obs"
	"wsnlink/internal/phy"
	"wsnlink/internal/queue"
	"wsnlink/internal/stack"
)

// PacketRecord is the per-packet metadata both motes logged in the paper's
// campaign (RSSI, LQI, actual transmission count, queue size, timestamps).
type PacketRecord struct {
	ID           int
	GenTime      float64 // application send time
	ServiceStart float64 // handed to the MAC
	ServiceEnd   float64 // ACKed, given up, or dropped
	Tries        int     // actual number of transmissions
	Delivered    bool    // received at least once at the receiver
	Acked        bool    // sender received a link-layer ACK
	QueueDrop    bool    // dropped on queue overflow, never transmitted
	SNR          float64 // at the first transmission attempt
	RSSI         float64
	LQI          int
	QueueLen     int // queue occupancy the packet found on arrival
}

// Counters aggregates a run. Metric computation lives in package metrics;
// the simulator only counts.
type Counters struct {
	Generated          int
	QueueDrops         int
	RadioDrops         int // exhausted N_maxTries without an ACK and undelivered
	Delivered          int // unique packets received
	Duplicates         int // retransmissions received again after an ACK loss
	Acked              int
	TotalTransmissions int
	AckedTransmissions int
	TotalTxBits        int64
	TxEnergyMicroJ     float64
	ListenTimeS        float64 // radio in RX: ACK reception + ACK-wait timeouts
	SumServiceTime     float64 // over packets that entered service
	Serviced           int
	SumDelay           float64 // gen→service-end, over delivered packets
	DeliveredWithDelay int
	SumTriesAcked      float64 // over ACKed packets (the paper's N_tries)
	SumQueueOccupancy  float64 // occupancy seen by arrivals
	ArrivalsSeen       int
	SumSNR, SumSNRSq   float64 // per first transmission attempt
	SumRSSI, SumRSSISq float64
	SNRSamples         int
	MaxQueueOccupancy  int
}

// Result is the outcome of simulating one configuration.
type Result struct {
	Config   stack.Config
	Duration float64 // simulated seconds from first generation to last completion
	Counters Counters
	// Records is populated only when Options.RecordPackets is set.
	Records []PacketRecord
}

// Options configures a simulation run.
type Options struct {
	// Packets is the number of packets the sender generates
	// (paper: 4500 per configuration).
	Packets int
	// Seed drives all randomness (channel, backoffs, losses).
	Seed uint64
	// Engine selects the simulator Simulate dispatches to: the
	// Monte-Carlo fast path (EngineFast, the zero value) or the full
	// event-driven simulator (EngineDES). The explicit entry points
	// (RunContext, RunFastContext, RunBatch) ignore it.
	Engine EngineKind
	// ErrorModel defaults to the paper-calibrated CC2420 model.
	ErrorModel phy.ErrorModel
	// Channel defaults to the hallway parameters.
	Channel *channel.Params
	// RecordPackets keeps the full per-packet log in the Result.
	RecordPackets bool
	// Obs, if non-nil, receives pipeline telemetry: per-stage simulated
	// time (generator → queue → MAC → channel → RX) and the packet
	// counter. nil (the default) adds no overhead beyond a pointer test.
	Obs *obs.Metrics
	// Trace, if non-nil, receives per-packet lifecycle events (enqueue,
	// queue drop, backoff, CCA, TX attempt, ACK timeout, delivery/loss,
	// RX decode) on the simulated clock. nil (the default) costs one
	// pointer test per emission site.
	Trace *obs.SpanContext
}

// Shared defaults: materialized once so the per-run default path performs no
// allocations (boxing a Calibrated into the ErrorModel interface and taking
// the address of fresh Params both allocate). Both values are read-only.
var (
	defaultErrorModel    phy.ErrorModel = phy.NewCalibrated()
	defaultChannelParams                = channel.DefaultParams()
)

func (o Options) withDefaults() Options {
	if o.Packets == 0 {
		o.Packets = 4500
	}
	if o.ErrorModel == nil {
		o.ErrorModel = defaultErrorModel
	}
	if o.Channel == nil {
		o.Channel = &defaultChannelParams
	}
	return o
}

// LinkSim simulates one sender→receiver 802.15.4 link under a fixed stack
// configuration, reproducing the event timeline of the TinyOS CSMA-CA stack
// (SPI load, backoff, frame, ACK / ACK-wait, retry delay).
type LinkSim struct {
	cfg      stack.Config
	opts     Options
	engine   *Engine
	rng      *rand.Rand
	link     *channel.Link
	errModel phy.ErrorModel
	sendQ    *queue.FIFO[*PacketRecord]

	txDBm        float64
	frameBits    int
	energyPerBit float64
	channelAt    float64 // link-local clock shadow

	serverBusy bool
	generated  int
	completed  int
	counters   Counters
	records    []PacketRecord
	lastEnd    float64

	ctx     context.Context  // cancellation, polled between packet generations
	done    <-chan struct{}  // ctx.Done(), read once per run
	stopErr error            // first cancellation error observed
	stages  obs.SimStages    // per-packet stage samples, flushed to obs once
	obs     *obs.Metrics     // optional telemetry sink (nil = disabled)
	trace   *obs.SpanContext // optional lifecycle tracer (nil = disabled)
}

// NewLinkSim validates the configuration and builds a simulator.
func NewLinkSim(cfg stack.Config, opts Options) (*LinkSim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if opts.Packets < 1 {
		return nil, errors.New("sim: Packets must be >= 1")
	}
	rng := rand.New(rand.NewPCG(opts.Seed, opts.Seed^0x9e3779b97f4a7c15))
	link, err := channel.NewLink(*opts.Channel, cfg.DistanceM, rng)
	if err != nil {
		return nil, fmt.Errorf("sim: channel: %w", err)
	}
	q, err := queue.NewFIFO[*PacketRecord](cfg.QueueCap)
	if err != nil {
		return nil, fmt.Errorf("sim: queue: %w", err)
	}
	return &LinkSim{
		cfg:          cfg,
		opts:         opts,
		engine:       NewEngine(),
		rng:          rng,
		link:         link,
		errModel:     opts.ErrorModel,
		sendQ:        q,
		txDBm:        cfg.TxPower.DBm(),
		frameBits:    8 * frame.OnAirBytes(cfg.PayloadBytes),
		energyPerBit: cfg.TxPower.TxEnergyPerBitMicroJ(),
		obs:          opts.Obs,
		trace:        opts.Trace,
	}, nil
}

// recordPacketStages splits one serviced packet's simulated timeline into
// the pipeline stages: queue wait, on-air frame time (channel), receive
// listening (ACK + ACK-wait), and the CSMA-CA remainder (SPI load,
// backoffs, turnaround, retry delays) as MAC. end is the service-end time,
// frameTime one frame's air time. The samples go to the simulator's own
// accumulator, flushed to the hub once per configuration; callers guard on
// the hub being set so the disabled path costs nothing.
func recordPacketStages(a *obs.SimStages, rec *PacketRecord, end, frameTime float64) {
	total := end - rec.ServiceStart
	air := float64(rec.Tries) * frameTime
	var rx float64
	if rec.Acked {
		rx = mac.AckTime + float64(rec.Tries-1)*mac.AckWaitTimeout
	} else {
		rx = float64(rec.Tries) * mac.AckWaitTimeout
	}
	a.Add(obs.StageQueue, rec.ServiceStart-rec.GenTime)
	a.Add(obs.StageChannel, air)
	a.Add(obs.StageRX, rx)
	a.Add(obs.StageMAC, total-air-rx)
}

// Run executes the configured number of packets and returns the result.
// It is the compatibility entry point; see RunContext for cancellation.
func (s *LinkSim) Run() Result {
	res, _ := s.RunContext(context.Background())
	return res
}

// RunContext executes the run, checking ctx between packet generations. On
// cancellation it abandons the run and returns a zero Result with an error
// wrapping ctx.Err(); otherwise the result is identical to Run (the checks
// never touch the RNG, so determinism for a fixed seed is preserved).
func (s *LinkSim) RunContext(ctx context.Context) (Result, error) {
	s.ctx, s.done = ctx, ctx.Done()
	var err error
	if s.cfg.Saturated() {
		err = s.runSaturated(ctx)
	} else {
		s.scheduleGeneration(0)
		s.engine.RunUntilIdle()
		err = s.stopErr
	}
	if s.obs != nil {
		s.stages.Flush(s.obs)
	}
	if err != nil {
		return Result{}, err
	}
	if s.obs != nil {
		s.obs.AddPackets(int64(s.counters.Generated))
	}
	return Result{
		Config:   s.cfg,
		Duration: s.lastEnd,
		Counters: s.counters,
		Records:  s.records,
	}, nil
}

// runSaturated serves packets back to back: the application always has the
// next packet ready, so no queueing and no queue drops occur. This is the
// regime of the paper's maximum-goodput model.
func (s *LinkSim) runSaturated(ctx context.Context) error {
	for i := 0; i < s.opts.Packets; i++ {
		if err := Poll(ctx, s.done); err != nil {
			return fmt.Errorf("sim: run canceled before packet %d of %d: %w",
				i, s.opts.Packets, err)
		}
		rec := &PacketRecord{ID: i, GenTime: s.engine.Now()}
		s.counters.Generated++
		if s.obs != nil {
			s.stages.Add(obs.StageGenerator, 0)
		}
		if s.trace != nil {
			s.trace.Emit(obs.EvEnqueue, rec.GenTime, rec.ID, 0, 0, 0, 0)
		}
		s.startService(rec)
		s.engine.RunUntilIdle()
	}
	return nil
}

func (s *LinkSim) scheduleGeneration(i int) {
	at := float64(i) * s.cfg.PktInterval
	if _, err := s.engine.At(at, func() { s.generate(i) }); err != nil {
		panic("sim: internal scheduling error: " + err.Error())
	}
}

func (s *LinkSim) generate(i int) {
	if err := Poll(s.ctx, s.done); err != nil {
		// Stop generating; the in-flight service drains (bounded work)
		// and RunContext reports the cancellation.
		if s.stopErr == nil {
			s.stopErr = fmt.Errorf("sim: run canceled before packet %d of %d: %w",
				i, s.opts.Packets, err)
		}
		return
	}
	rec := &PacketRecord{ID: i, GenTime: s.engine.Now(), QueueLen: s.sendQ.Len()}
	s.counters.Generated++
	if s.obs != nil {
		s.stages.Add(obs.StageGenerator, 0)
	}
	if s.trace != nil {
		s.trace.Emit(obs.EvEnqueue, rec.GenTime, rec.ID, 0, 0, 0, 0)
	}
	s.counters.SumQueueOccupancy += float64(s.sendQ.Len())
	s.counters.ArrivalsSeen++
	if s.sendQ.Len() > s.counters.MaxQueueOccupancy {
		s.counters.MaxQueueOccupancy = s.sendQ.Len()
	}

	if !s.serverBusy && s.sendQ.Empty() {
		s.startService(rec)
	} else if !s.sendQ.Push(rec) {
		rec.QueueDrop = true
		rec.ServiceEnd = s.engine.Now()
		s.counters.QueueDrops++
		if s.trace != nil {
			s.trace.Emit(obs.EvQueueDrop, rec.ServiceEnd, rec.ID, 0, 0, 0, 0)
		}
		s.finishRecord(rec)
	}
	if i+1 < s.opts.Packets {
		s.scheduleGeneration(i + 1)
	}
}

// advanceChannel moves the stochastic channel state to simulated time t.
func (s *LinkSim) advanceChannel(t float64) {
	if t > s.channelAt {
		s.link.Advance(t - s.channelAt)
		s.channelAt = t
	}
}

// startService walks the packet through the full CSMA-CA attempt sequence.
// Because the link has a single radio and no cross traffic, the whole
// timeline can be computed procedurally and completion scheduled once; the
// channel state is still advanced attempt by attempt so fading is sampled at
// the correct instants.
func (s *LinkSim) startService(rec *PacketRecord) {
	s.serverBusy = true
	now := s.engine.Now()
	rec.ServiceStart = now

	t := now + mac.SPILoadTime(s.cfg.PayloadBytes)
	frameTime := mac.FrameAirTime(s.cfg.PayloadBytes)

	for try := 1; try <= s.cfg.MaxTries; try++ {
		if try > 1 {
			t += s.cfg.RetryDelay + mac.RetrySoftwareOverhead
		}
		if s.trace != nil {
			s.trace.Emit(obs.EvBackoff, t, rec.ID, try, 0, 0, 0)
		}
		t += mac.TurnaroundTime + mac.SampleBackoff(s.rng)
		if s.trace != nil {
			s.trace.Emit(obs.EvCCA, t, rec.ID, try, 0, 0, 0)
		}

		s.advanceChannel(t)
		snr := s.link.SNR(s.txDBm)
		if try == 1 {
			rssi := s.link.RSSI(s.txDBm)
			rec.SNR = snr
			rec.RSSI = channel.Quantize(rssi)
			rec.LQI = phy.LQI(snr)
			s.counters.SumSNR += snr
			s.counters.SumSNRSq += snr * snr
			s.counters.SumRSSI += rssi
			s.counters.SumRSSISq += rssi * rssi
			s.counters.SNRSamples++
		}
		if s.trace != nil {
			s.trace.Emit(obs.EvTxAttempt, t, rec.ID, try, snr, rec.RSSI, rec.LQI)
		}

		t += frameTime
		rec.Tries = try
		s.counters.TotalTransmissions++
		s.counters.TotalTxBits += int64(s.frameBits)
		s.counters.TxEnergyMicroJ += float64(s.frameBits) * s.energyPerBit

		dataOK := s.rng.Float64() >= s.errModel.DataPER(snr, s.cfg.PayloadBytes)
		if dataOK {
			if s.trace != nil {
				s.trace.Emit(obs.EvRxDecode, t, rec.ID, try, 0, 0, 0)
			}
			if rec.Delivered {
				s.counters.Duplicates++
			} else {
				rec.Delivered = true
				s.counters.Delivered++
			}
			ackOK := s.rng.Float64() >= s.errModel.AckPER(snr)
			if ackOK {
				t += mac.AckTime
				s.counters.ListenTimeS += mac.AckTime
				rec.Acked = true
				s.counters.Acked++
				s.counters.AckedTransmissions++
				s.counters.SumTriesAcked += float64(try)
				break
			}
		}
		t += mac.AckWaitTimeout
		s.counters.ListenTimeS += mac.AckWaitTimeout
		if s.trace != nil {
			s.trace.Emit(obs.EvAckTimeout, t, rec.ID, try, 0, 0, 0)
		}
	}

	if !rec.Delivered {
		s.counters.RadioDrops++
	}
	if s.trace != nil {
		kind := obs.EvLost
		if rec.Delivered {
			kind = obs.EvDelivered
		}
		s.trace.Emit(kind, t, rec.ID, rec.Tries, 0, 0, 0)
	}
	if s.obs != nil {
		recordPacketStages(&s.stages, rec, t, frameTime)
	}

	if _, err := s.engine.At(t, func() { s.completeService(rec) }); err != nil {
		panic("sim: internal scheduling error: " + err.Error())
	}
}

func (s *LinkSim) completeService(rec *PacketRecord) {
	now := s.engine.Now()
	rec.ServiceEnd = now
	s.counters.SumServiceTime += now - rec.ServiceStart
	s.counters.Serviced++
	if rec.Delivered {
		s.counters.SumDelay += now - rec.GenTime
		s.counters.DeliveredWithDelay++
	}
	s.finishRecord(rec)

	if next, err := s.sendQ.Pop(); err == nil {
		s.startService(next)
	} else {
		s.serverBusy = false
	}
}

func (s *LinkSim) finishRecord(rec *PacketRecord) {
	s.completed++
	if rec.ServiceEnd > s.lastEnd {
		s.lastEnd = rec.ServiceEnd
	}
	if s.opts.RecordPackets {
		s.records = append(s.records, *rec)
	}
}

// Run is the package-level convenience: build and run in one call. It is a
// compatibility wrapper over RunContext with context.Background().
func Run(cfg stack.Config, opts Options) (Result, error) {
	return RunContext(context.Background(), cfg, opts)
}

// RunContext builds and runs one configuration, honoring ctx cancellation
// and deadline between packet generations.
func RunContext(ctx context.Context, cfg stack.Config, opts Options) (Result, error) {
	s, err := NewLinkSim(cfg, opts)
	if err != nil {
		return Result{}, err
	}
	return s.RunContext(ctx)
}
