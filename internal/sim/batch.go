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
	"wsnlink/internal/stack"
)

// EngineKind selects which simulator services a run. The zero value is the
// Monte-Carlo fast path: it is the campaign default, and the event-driven
// simulator remains available for per-packet timing fidelity.
type EngineKind int

const (
	// EngineFast is the Monte-Carlo fast path (single-server-queue
	// recurrence, mean backoff): statistically equivalent loss behaviour
	// at campaign throughput. The default.
	EngineFast EngineKind = iota
	// EngineDES is the full event-driven simulator with sampled backoffs.
	EngineDES
)

// String implements fmt.Stringer.
func (e EngineKind) String() string {
	switch e {
	case EngineFast:
		return "fast"
	case EngineDES:
		return "des"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(e))
	}
}

// Simulate is the unified entry point: it runs one configuration on the
// engine opts.Engine selects (default EngineFast), honoring ctx between
// packets. Use RunContext/RunFastContext to address an engine explicitly.
func Simulate(ctx context.Context, cfg stack.Config, opts Options) (Result, error) {
	if opts.Engine == EngineDES {
		return RunContext(ctx, cfg, opts)
	}
	return RunFastContext(ctx, cfg, opts)
}

// DeriveSeed returns the deterministic per-configuration seed a campaign
// assigns to index idx under a base seed (SplitMix64 of the index mixed with
// the base). The sweep engine, RunBatch and the validation harness all share
// this derivation, which is what makes seed-paired runs line up.
func DeriveSeed(base uint64, idx int) uint64 {
	z := base + uint64(idx)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// BatchOptions configures RunBatch.
type BatchOptions struct {
	// Packets per configuration (default 4500, as Options).
	Packets int
	// Seeds, when non-nil, gives configuration i its seed explicitly and
	// must have one entry per configuration. When nil, configuration i
	// runs under DeriveSeed(BaseSeed, i).
	Seeds []uint64
	// BaseSeed derives per-configuration seeds when Seeds is nil.
	BaseSeed uint64
	// Channel overrides the hallway parameters.
	Channel *channel.Params
	// ErrorModel overrides the paper-calibrated CC2420 model.
	ErrorModel phy.ErrorModel
	// RecordPackets keeps the full per-packet log in each Result. The log
	// is freshly allocated per configuration (it is handed to the caller),
	// so batches that need zero steady-state allocations must leave this
	// off.
	RecordPackets bool
	// Obs, if non-nil, receives pipeline telemetry, exactly as
	// Options.Obs.
	Obs *obs.Metrics
	// TraceFor, if non-nil, supplies the lifecycle-trace span for
	// configuration i (nil span = untraced). The sweep engine uses it to
	// keep span IDs identical across batch sizes.
	TraceFor func(i int) *obs.SpanContext
	// Arena, if non-nil, supplies reusable per-lane state (RNGs, channel
	// links, scratch buffers, result storage) so steady-state batches
	// allocate nothing. A nil Arena uses a temporary one. The returned
	// results are backed by the arena and remain valid until its next
	// RunBatch call.
	Arena *BatchArena
}

// BatchArena holds the reusable state of a batch-kernel caller — typically
// one arena per sweep worker. It grows to the largest batch it has served
// and thereafter RunBatch performs zero steady-state allocations. An arena
// is not safe for concurrent use.
type BatchArena struct {
	lanes   []*lane
	results []Result
	tables  kernelTables
}

// NewBatchArena returns an empty arena; it grows on first use.
func NewBatchArena() *BatchArena { return &BatchArena{} }

// kernelTables caches per-payload and per-power-level derived constants —
// the service-time and energy lookup tables the kernel reads instead of
// recomputing MAC timing sums and PA-table interpolations per
// configuration. Entries are pure functions of phy/mac constants, so the
// tables never invalidate.
type kernelTables struct {
	payload [frame.MaxPayloadBytes + 1]struct {
		ok        bool
		spiLoad   float64 // mac.SPILoadTime(payload)
		frameTime float64 // mac.FrameAirTime(payload)
		frameBits int     // 8 * frame.OnAirBytes(payload)
	}
	power [32]struct {
		ok           bool
		txDBm        float64 // PowerLevel.DBm()
		energyPerBit float64 // PowerLevel.TxEnergyPerBitMicroJ()
	}
}

func (t *kernelTables) payloadEntry(payloadBytes int) (spiLoad, frameTime float64, frameBits int) {
	e := &t.payload[payloadBytes]
	if !e.ok {
		e.spiLoad = mac.SPILoadTime(payloadBytes)
		e.frameTime = mac.FrameAirTime(payloadBytes)
		e.frameBits = 8 * frame.OnAirBytes(payloadBytes)
		e.ok = true
	}
	return e.spiLoad, e.frameTime, e.frameBits
}

func (t *kernelTables) powerEntry(p phy.PowerLevel) (txDBm, energyPerBit float64) {
	e := &t.power[p]
	if !e.ok {
		e.txDBm = p.DBm()
		e.energyPerBit = p.TxEnergyPerBitMicroJ()
		e.ok = true
	}
	return e.txDBm, e.energyPerBit
}

// lane is the per-configuration slot of a BatchArena: one RNG, one channel
// link and the kernel's scratch state, all reused across configurations so
// the steady state allocates nothing. Long-lived resources (the PCG source,
// the Rand wrapper, the Link) are built once per slot; reset reseeds and
// re-derives everything else in place.
type lane struct {
	src  rand.PCG
	rng  *rand.Rand
	link channel.Link

	cfg       stack.Config
	packets   int
	errModel  phy.ErrorModel
	saturated bool

	// Per-configuration derived constants (from the kernel tables).
	txDBm        float64
	energyPerBit float64
	frameBits    int
	frameEnergy  float64 // frameBits × energyPerBit
	spiLoad      float64
	frameTime    float64
	meanMAC      float64 // mac.MeanMACDelay()
	retryStep    float64 // RetryDelay + mac.RetrySoftwareOverhead

	// Loss-bracket fast path: for phy.NewCalibrated()'s constants the
	// bracket decides the loss draws and evaluates exp only when a draw
	// lands inside it (phy.LossBracket). Every other model is called
	// through the ErrorModel interface. A test pins the bracket to the
	// interface path.
	bracket  *phy.LossBracket
	alphaPay float64 // Alpha × payload bytes

	channelAt float64
	counters  Counters
	lastEnd   float64
	rec       PacketRecord

	departures []float64
	records    []PacketRecord

	recordPackets bool
	stages        obs.SimStages    // per-configuration stage samples, flushed to obs
	obs           *obs.Metrics     // optional telemetry sink (nil = disabled)
	trace         *obs.SpanContext // optional lifecycle tracer (nil = disabled)
}

// lane returns slot i, growing the arena if needed.
func (a *BatchArena) lane(i int) *lane {
	for len(a.lanes) <= i {
		l := &lane{}
		l.rng = rand.New(&l.src)
		a.lanes = append(a.lanes, l)
	}
	return a.lanes[i]
}

// reset re-arms the lane for one configuration. The RNG is reseeded exactly
// as a fresh simulator seeds it, and the link is rebuilt in place with the
// same construction-time draws, so a reused lane is byte-identical to a
// fresh per-config run.
func (l *lane) reset(tables *kernelTables, cfg stack.Config, seed uint64, packets int,
	params *channel.Params, em phy.ErrorModel, recordPackets bool,
	ob *obs.Metrics, tr *obs.SpanContext) error {
	l.src.Seed(seed, seed^0x9e3779b97f4a7c15)
	if err := l.link.Reset(*params, cfg.DistanceM, l.rng); err != nil {
		return fmt.Errorf("sim: channel: %w", err)
	}
	l.cfg = cfg
	l.packets = packets
	l.errModel = em
	l.saturated = cfg.Saturated()
	l.txDBm, l.energyPerBit = tables.powerEntry(cfg.TxPower)
	l.spiLoad, l.frameTime, l.frameBits = tables.payloadEntry(cfg.PayloadBytes)
	l.frameEnergy = float64(l.frameBits) * l.energyPerBit
	l.meanMAC = mac.MeanMACDelay()
	l.retryStep = cfg.RetryDelay + mac.RetrySoftwareOverhead

	l.bracket = nil
	if cm, ok := em.(phy.Calibrated); ok {
		l.bracket = cm.Bracket()
		l.alphaPay = cm.Alpha * float64(cfg.PayloadBytes)
	}

	l.channelAt = 0
	l.counters = Counters{}
	l.lastEnd = 0
	l.departures = l.departures[:0]
	l.records = nil
	l.recordPackets = recordPackets
	l.obs = ob
	l.trace = tr
	return nil
}

func (l *lane) advanceChannel(t float64) {
	if t > l.channelAt {
		l.link.Advance(t - l.channelAt)
		l.channelAt = t
	}
}

// run executes the fast-path recurrence for the lane's configuration. It is
// the kernel both RunFastContext (one lane) and RunBatch (many lanes)
// drive; see RunFast for the model it implements.
func (l *lane) run(ctx context.Context) (Result, error) {
	// departures holds service-end times of accepted, not-yet-finished
	// packets (in service + waiting), oldest first.
	departures := l.departures
	serverFreeAt := 0.0
	done := ctx.Done()

	for i := 0; i < l.packets; i++ {
		if err := Poll(ctx, done); err != nil {
			l.departures = departures
			if l.obs != nil {
				l.stages.Flush(l.obs)
			}
			return Result{}, fmt.Errorf("sim: fast run canceled before packet %d of %d: %w",
				i, l.packets, err)
		}
		arrival := float64(i) * l.cfg.PktInterval
		if l.saturated {
			arrival = serverFreeAt
		}
		// Retire departures that completed by this arrival.
		live := 0
		for _, d := range departures {
			if d > arrival {
				departures[live] = d
				live++
			}
		}
		departures = departures[:live]

		rec := &l.rec
		*rec = PacketRecord{ID: i, GenTime: arrival}
		l.counters.Generated++
		if l.obs != nil {
			l.stages.Add(obs.StageGenerator, 0)
		}
		if l.trace != nil {
			l.trace.Emit(obs.EvEnqueue, arrival, rec.ID, 0, 0, 0, 0)
		}

		waiting := len(departures)
		if waiting > 0 {
			waiting-- // oldest one is in service, not waiting
		}
		rec.QueueLen = waiting
		l.counters.SumQueueOccupancy += float64(waiting)
		l.counters.ArrivalsSeen++
		if waiting > l.counters.MaxQueueOccupancy {
			l.counters.MaxQueueOccupancy = waiting
		}

		if len(departures) > 0 && waiting >= l.cfg.QueueCap {
			rec.QueueDrop = true
			rec.ServiceEnd = arrival
			l.counters.QueueDrops++
			if l.trace != nil {
				l.trace.Emit(obs.EvQueueDrop, arrival, rec.ID, 0, 0, 0, 0)
			}
			l.finish(rec)
			continue
		}

		start := arrival
		if serverFreeAt > start {
			start = serverFreeAt
		}
		end := l.servePacket(rec, start)
		serverFreeAt = end
		departures = append(departures, end)
		l.finish(rec)
	}
	l.departures = departures

	if l.obs != nil {
		l.stages.Flush(l.obs)
		l.obs.AddPackets(int64(l.counters.Generated))
	}
	res := Result{
		Config:   l.cfg,
		Duration: l.lastEnd,
		Counters: l.counters,
		Records:  l.records,
	}
	l.records = nil // ownership moves to the caller
	return res, nil
}

// servePacket mirrors LinkSim.startService with the mean backoff.
func (l *lane) servePacket(rec *PacketRecord, start float64) float64 {
	rec.ServiceStart = start
	t := start + l.spiLoad

	for try := 1; try <= l.cfg.MaxTries; try++ {
		if try > 1 {
			t += l.retryStep
		}
		if l.trace != nil {
			l.trace.Emit(obs.EvBackoff, t, rec.ID, try, 0, 0, 0)
		}
		t += l.meanMAC
		if l.trace != nil {
			l.trace.Emit(obs.EvCCA, t, rec.ID, try, 0, 0, 0)
		}

		l.advanceChannel(t)
		var snr float64
		if try == 1 {
			// First attempt: record a coherent (RSSI, SNR) reading,
			// computing the deterministic RSSI component once.
			var rssi float64
			rssi, snr = l.link.Sample(l.txDBm)
			rec.SNR = snr
			rec.RSSI = channel.Quantize(rssi)
			rec.LQI = phy.LQI(snr)
			l.counters.SumSNR += snr
			l.counters.SumSNRSq += snr * snr
			l.counters.SumRSSI += rssi
			l.counters.SumRSSISq += rssi * rssi
			l.counters.SNRSamples++
		} else {
			snr = l.link.SNR(l.txDBm)
		}
		if l.trace != nil {
			l.trace.Emit(obs.EvTxAttempt, t, rec.ID, try, snr, rec.RSSI, rec.LQI)
		}

		t += l.frameTime
		rec.Tries = try
		l.counters.TotalTransmissions++
		l.counters.TotalTxBits += int64(l.frameBits)
		l.counters.TxEnergyMicroJ += l.frameEnergy

		// Loss draws. The bracket decides the same comparisons as the
		// interface path, so the draws and outcomes match.
		var dataOK bool
		u := l.rng.Float64()
		if l.bracket != nil {
			dataOK = l.bracket.DataOK(u, snr, l.alphaPay)
		} else {
			dataOK = u >= l.errModel.DataPER(snr, l.cfg.PayloadBytes)
		}
		if dataOK {
			if l.trace != nil {
				l.trace.Emit(obs.EvRxDecode, t, rec.ID, try, 0, 0, 0)
			}
			if rec.Delivered {
				l.counters.Duplicates++
			} else {
				rec.Delivered = true
				l.counters.Delivered++
			}
			var ackOK bool
			v := l.rng.Float64()
			if l.bracket != nil {
				ackOK = l.bracket.AckOK(v, snr)
			} else {
				ackOK = v >= l.errModel.AckPER(snr)
			}
			if ackOK {
				t += mac.AckTime
				l.counters.ListenTimeS += mac.AckTime
				rec.Acked = true
				l.counters.Acked++
				l.counters.AckedTransmissions++
				l.counters.SumTriesAcked += float64(try)
				break
			}
		}
		t += mac.AckWaitTimeout
		l.counters.ListenTimeS += mac.AckWaitTimeout
		if l.trace != nil {
			l.trace.Emit(obs.EvAckTimeout, t, rec.ID, try, 0, 0, 0)
		}
	}

	if !rec.Delivered {
		l.counters.RadioDrops++
	}
	if l.trace != nil {
		kind := obs.EvLost
		if rec.Delivered {
			kind = obs.EvDelivered
		}
		l.trace.Emit(kind, t, rec.ID, rec.Tries, 0, 0, 0)
	}
	if l.obs != nil {
		recordPacketStages(&l.stages, rec, t, l.frameTime)
	}
	rec.ServiceEnd = t
	l.counters.SumServiceTime += t - start
	l.counters.Serviced++
	if rec.Delivered {
		l.counters.SumDelay += t - rec.GenTime
		l.counters.DeliveredWithDelay++
	}
	return t
}

func (l *lane) finish(rec *PacketRecord) {
	if rec.ServiceEnd > l.lastEnd {
		l.lastEnd = rec.ServiceEnd
	}
	if l.recordPackets {
		l.records = append(l.records, *rec)
	}
}

// RunBatch simulates many configurations per call on the fast-path batch
// kernel. results[i] corresponds to cfgs[i] and, when opts.Arena is set, is
// backed by the arena (valid until its next RunBatch call).
//
// Per-configuration failures (validation, cancellation mid-batch) are
// reported positionally: errs is nil when every configuration succeeded,
// otherwise errs[i] carries configuration i's error and results[i] is zero.
// The error return is reserved for malformed batch options. Lanes run
// sequentially — parallelism across blocks belongs to the caller (the sweep
// engine runs one arena per worker).
//
// Equivalence: for the same seed, configuration i's Result is identical to
// RunFastContext's — both drive the same kernel, and TestRunBatchMatchesSingle
// pins it.
func RunBatch(ctx context.Context, cfgs []stack.Config, opts BatchOptions) (results []Result, errs []error, err error) {
	if len(cfgs) == 0 {
		return nil, nil, errors.New("sim: RunBatch: no configurations")
	}
	if opts.Seeds != nil && len(opts.Seeds) != len(cfgs) {
		return nil, nil, fmt.Errorf("sim: RunBatch: %d seeds for %d configurations",
			len(opts.Seeds), len(cfgs))
	}
	if opts.Packets == 0 {
		opts.Packets = 4500
	}
	if opts.Packets < 1 {
		return nil, nil, errors.New("sim: Packets must be >= 1")
	}
	if opts.ErrorModel == nil {
		opts.ErrorModel = defaultErrorModel
	}
	if opts.Channel == nil {
		opts.Channel = &defaultChannelParams
	}
	a := opts.Arena
	if a == nil {
		a = NewBatchArena()
	}
	if cap(a.results) < len(cfgs) {
		a.results = make([]Result, len(cfgs))
	}
	results = a.results[:len(cfgs)]

	fail := func(i int, laneErr error) {
		if errs == nil {
			errs = make([]error, len(cfgs))
		}
		errs[i] = laneErr
		results[i] = Result{}
	}

	for i, cfg := range cfgs {
		if cerr := ctx.Err(); cerr != nil {
			fail(i, fmt.Errorf("sim: batch canceled before config %d of %d: %w",
				i, len(cfgs), cerr))
			continue
		}
		if verr := cfg.Validate(); verr != nil {
			fail(i, verr)
			continue
		}
		seed := opts.BaseSeed
		if opts.Seeds != nil {
			seed = opts.Seeds[i]
		} else {
			seed = DeriveSeed(opts.BaseSeed, i)
		}
		var tr *obs.SpanContext
		if opts.TraceFor != nil {
			tr = opts.TraceFor(i)
		}
		l := a.lane(i)
		if rerr := l.reset(&a.tables, cfg, seed, opts.Packets,
			opts.Channel, opts.ErrorModel, opts.RecordPackets, opts.Obs, tr); rerr != nil {
			fail(i, rerr)
			continue
		}
		res, runErr := l.run(ctx)
		if runErr != nil {
			fail(i, runErr)
			continue
		}
		results[i] = res
	}
	return results, errs, nil
}
