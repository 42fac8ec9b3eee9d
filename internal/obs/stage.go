package obs

import (
	"sync/atomic"
	"time"
)

// Stage identifies one instrumented section of the campaign pipeline.
// The sweep-engine stages account wall-clock time; the simulator-pipeline
// stages account simulated seconds (the DES has no meaningful wall split),
// so the two groups must never be summed together — StageSnapshot.Clock
// labels which clock a stage was measured on.
type Stage uint8

const (
	// Sweep-engine stages (wall clock).

	// StageDispatch is time the dispatcher spends acquiring a window
	// token and handing an index to a worker.
	StageDispatch Stage = iota
	// StageSimulate is the per-configuration simulation wall time.
	StageSimulate
	// StageReorder is time the emitter spends draining the reorder
	// buffer after each completion arrives.
	StageReorder
	// StageYield is time spent inside the caller's yield hook.
	StageYield
	// StageCheckpoint is time spent appending to the checkpoint sidecar.
	StageCheckpoint

	// Simulator-pipeline stages (simulated seconds).

	// StageGenerator counts generated packets (duration is zero: packet
	// generation is instantaneous in simulated time).
	StageGenerator
	// StageQueue is time packets wait in the send queue before service.
	StageQueue
	// StageMAC is CSMA-CA overhead: SPI load, backoff, turnaround,
	// retry delays and software overhead.
	StageMAC
	// StageChannel is on-air frame time.
	StageChannel
	// StageRX is receive-side listening: ACK reception and ACK-wait
	// timeouts.
	StageRX

	numStages
)

var stageNames = [numStages]string{
	"dispatch", "simulate", "reorder", "yield", "checkpoint",
	"generator", "queue", "mac", "channel", "rx",
}

// String returns the stable lower-case stage name used in manifests.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Wall reports whether the stage is measured on the wall clock (as opposed
// to simulated seconds).
func (s Stage) Wall() bool { return s <= StageCheckpoint }

// stageCell accumulates one stage: event count plus total duration in
// nanoseconds (wall stages) or simulated nanoseconds (simulator stages).
type stageCell struct {
	count atomic.Int64
	ns    atomic.Int64
}

// simNanos converts one simulated-seconds sample to the integer
// nanoseconds a stage accumulates (truncating, per sample).
func simNanos(seconds float64) int64 { return int64(seconds * float64(time.Second)) }

// SimStages is a simulator's private accumulator for the simulator-pipeline
// stages (StageGenerator..StageRX). A simulator adds every packet's stage
// samples here and flushes once per configuration, so the shared hub sees
// one update per stage instead of several contended atomics per packet.
// Each sample is truncated to integer nanoseconds before it is summed,
// exactly as StageAddSim does, so the flushed totals are bit-identical to
// recording every sample on the hub. The zero value is empty and ready;
// it is not safe for concurrent use.
type SimStages struct {
	count [numSimStages]int64
	ns    [numSimStages]int64
}

const numSimStages = numStages - StageGenerator

// Add records one sample of a simulator-pipeline stage.
func (a *SimStages) Add(s Stage, seconds float64) {
	i := s - StageGenerator
	a.count[i]++
	a.ns[i] += simNanos(seconds)
}

// Flush moves the accumulated samples into m (a nil m discards them) and
// empties the accumulator.
func (a *SimStages) Flush(m *Metrics) {
	for i, n := range a.count {
		if n != 0 {
			m.StageAddSimN(StageGenerator+Stage(i), n, a.ns[i])
		}
	}
	*a = SimStages{}
}

// StageSnapshot is the captured state of one stage.
type StageSnapshot struct {
	Name    string  `json:"name"`
	Clock   string  `json:"clock"` // "wall" or "sim"
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
}

// stageSnapshots captures all stages in declaration order.
func stageSnapshots(cells *[numStages]stageCell) []StageSnapshot {
	out := make([]StageSnapshot, numStages)
	for i := range cells {
		s := Stage(i)
		clock := "sim"
		if s.Wall() {
			clock = "wall"
		}
		out[i] = StageSnapshot{
			Name:    s.String(),
			Clock:   clock,
			Count:   cells[i].count.Load(),
			Seconds: float64(cells[i].ns.Load()) / float64(time.Second),
		}
	}
	return out
}
