package obs

import "sync"

// Per-packet lifecycle tracing.
//
// The paper's motes logged per-packet records (RSSI, LQI, transmission
// count); its companion study argues link dynamics only become explainable
// at packet granularity. The Tracer captures that granularity from the
// simulator: every packet's lifecycle (enqueue, queue drop, CSMA backoff,
// CCA, TX attempt N, ACK timeout, delivery/loss, RX decode) as structured
// events on the simulated clock, bounded by a ring buffer so a multi-hour
// campaign cannot exhaust memory, and exportable as Chrome trace_event JSON
// (Perfetto / chrome://tracing) or streaming NDJSON.
//
// Span identity is deterministic: a packet's span ID derives from
// (campaign fingerprint, configuration index, packet ID) alone, so a
// killed-and-resumed campaign emits byte-identical span IDs for the
// configurations it re-traces. Like *Metrics, the disabled path is a single
// nil-check at each call site and performs no work and no allocation
// (BenchmarkTraceNilOverhead pins it at 0 allocs/op).

// EventKind identifies one step of a packet's lifecycle.
type EventKind uint8

const (
	// EvEnqueue: the application generated the packet and handed it to
	// the stack (accepted into the queue or directly into service).
	EvEnqueue EventKind = iota
	// EvQueueDrop: the bounded send queue was full; the packet was
	// dropped before any transmission. Terminal.
	EvQueueDrop
	// EvBackoff: the CSMA-CA backoff for one attempt started.
	EvBackoff
	// EvCCA: clear-channel assessment at the end of the backoff, just
	// before the frame goes on air.
	EvCCA
	// EvTxAttempt: transmission attempt Try started; SNR is the channel
	// state sampled for this attempt (RSSI/LQI are sampled on try 1, as
	// the motes logged them).
	EvTxAttempt
	// EvRxDecode: the receiver decoded the data frame of this attempt.
	EvRxDecode
	// EvAckTimeout: the ACK-wait window for this attempt expired without
	// a link-layer ACK.
	EvAckTimeout
	// EvDelivered: service ended with the packet delivered. Terminal.
	EvDelivered
	// EvLost: service ended with the retry budget exhausted and the
	// packet never delivered. Terminal.
	EvLost

	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	"enqueue", "queue_drop", "backoff", "cca", "tx_attempt",
	"rx_decode", "ack_timeout", "delivered", "lost",
}

// String returns the stable snake_case name used by both exporters.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Terminal reports whether the kind ends a packet's span.
func (k EventKind) Terminal() bool {
	return k == EvQueueDrop || k == EvDelivered || k == EvLost
}

// Event is one packet-lifecycle step. The struct is fixed-size and free of
// pointers so the ring buffer is a flat preallocated slab: recording an
// event never allocates.
type Event struct {
	// TimeS is the simulated time of the event in seconds.
	TimeS float64
	// Span is the packet's deterministic span ID (see PacketSpanID).
	Span uint64
	// Config is the configuration index within the campaign (0 for a
	// single-link trace).
	Config int32
	// Packet is the packet ID within the configuration.
	Packet int32
	// SNR and RSSI are the channel state of a tx_attempt (dB / dBm);
	// zero for other kinds.
	SNR, RSSI float32
	// LQI is the CC2420 link-quality indicator of a first attempt.
	LQI int16
	// Try is the 1-based attempt number (0 for pre-service events).
	Try uint8
	// Kind is the lifecycle step.
	Kind EventKind
}

// splitmix64 is the finalizer used throughout the repo for seed derivation;
// here it whitens span-ID inputs so IDs are well distributed even though
// (fingerprint, config, packet) triples are highly regular.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// spanBase derives the per-configuration span namespace from the campaign
// fingerprint (the same value the checkpoint sidecar and the run manifest
// record) and the configuration index. It is the configIndex-dependent half
// of PacketSpanID, hoisted so the per-packet derivation is one round.
func spanBase(fingerprint uint64, configIndex int) uint64 {
	return splitmix64(fingerprint ^ splitmix64(uint64(configIndex)))
}

// PacketSpanID is the deterministic span ID of one packet:
// f(campaign fingerprint, configuration index, packet ID) and nothing else,
// so traces are stable across kill-and-resume and across worker counts.
func PacketSpanID(fingerprint uint64, configIndex, packetID int) uint64 {
	return splitmix64(spanBase(fingerprint, configIndex) ^ uint64(packetID))
}

// DefaultTraceCapacity is the ring size CLIs use when none is given:
// 256k events ≈ 16 MiB resident, a few hundred traced configurations.
const DefaultTraceCapacity = 1 << 18

// Tracer is a bounded ring buffer of lifecycle events shared by every
// worker of a campaign. When the ring is full the oldest events are
// overwritten (and counted in Dropped), so memory stays bounded no matter
// how long the campaign runs; size the capacity to the analysis window
// wanted, or sample configurations (sweep.RunOptions.TraceSample) to keep
// whole packet spans intact.
//
// All methods are safe for concurrent use. A nil *Tracer is a valid
// disabled sink: Span returns a nil *SpanContext whose Emit is a single
// nil-check no-op.
type Tracer struct {
	mu      sync.Mutex
	buf     []Event
	next    int    // ring write position
	n       int    // live events (≤ len(buf))
	dropped uint64 // events overwritten after the ring filled
}

// NewTracer creates a tracer holding at most capacity events
// (capacity < 1 falls back to DefaultTraceCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// Span binds the tracer to one configuration's deterministic span
// namespace. A nil tracer yields a nil context, so the call sites the
// engines guard stay a single pointer test.
func (t *Tracer) Span(fingerprint uint64, configIndex int) *SpanContext {
	if t == nil {
		return nil
	}
	return &SpanContext{
		t:      t,
		base:   spanBase(fingerprint, configIndex),
		config: int32(configIndex),
	}
}

// emit appends one event, overwriting the oldest when full.
func (t *Tracer) emit(ev Event) {
	t.mu.Lock()
	t.buf[t.next] = ev
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
	}
	if t.n < len(t.buf) {
		t.n++
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Len returns the number of events currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Dropped returns how many events were overwritten after the ring filled.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns a copy of the retained events in emission order
// (oldest first). Safe to call while workers are still emitting; the copy
// is internally consistent.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, t.n)
	if t.n < len(t.buf) {
		copy(out, t.buf[:t.n])
	} else {
		k := copy(out, t.buf[t.next:])
		copy(out[k:], t.buf[:t.next])
	}
	return out
}

// Stats returns the retained/dropped pair in one lock acquisition — what
// the campaign status page and the run manifest report.
func (t *Tracer) Stats() TraceStats {
	if t == nil {
		return TraceStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return TraceStats{Events: t.n, Dropped: t.dropped, Capacity: len(t.buf)}
}

// TraceStats is a point-in-time summary of a Tracer's ring.
type TraceStats struct {
	Events   int    `json:"events"`
	Dropped  uint64 `json:"dropped"`
	Capacity int    `json:"capacity"`
}

// SpanContext is one configuration's handle into the tracer: it carries the
// span namespace so the per-event derivation is a single xor+mix round. The
// simulator holds it as an optional pointer; nil means tracing disabled and
// every Emit call site is guarded by that one nil-check.
type SpanContext struct {
	t      *Tracer
	base   uint64
	config int32
}

// Emit records one lifecycle event at simulated time timeS. snr/rssi/lqi
// are meaningful for tx_attempt events (rssi/lqi on the first try, as the
// motes sampled them) and zero elsewhere.
func (c *SpanContext) Emit(kind EventKind, timeS float64, packet, try int, snr, rssi float64, lqi int) {
	c.t.emit(Event{
		TimeS:  timeS,
		Span:   splitmix64(c.base ^ uint64(packet)),
		Config: c.config,
		Packet: int32(packet),
		SNR:    float32(snr),
		RSSI:   float32(rssi),
		LQI:    int16(lqi),
		Try:    uint8(try),
		Kind:   kind,
	})
}
