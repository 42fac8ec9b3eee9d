package fabric

import (
	"strconv"

	"wsnlink/internal/obs"
)

// telemetry is the coordinator's metric surface. Built over a nil registry
// every vec resolves to nil no-op handles, so the disabled path costs one
// branch per event — the same contract the serve telemetry follows.
type telemetry struct {
	runnerUp      *obs.GaugeVec   // fabric_runner_up{runner}
	shardsPlanned *obs.CounterVec // fabric_shards_planned_total
	shardsDone    *obs.CounterVec // fabric_shards_completed_total{runner}
	requeues      *obs.CounterVec // fabric_shard_requeues_total{runner,shard}
	rowsMerged    *obs.CounterVec // fabric_rows_merged_total
	runnerRows    *obs.CounterVec // fabric_runner_rows_total{runner}
}

func newTelemetry(reg *obs.Registry) *telemetry {
	return &telemetry{
		runnerUp: reg.Gauge("fabric_runner_up",
			"Whether the runner answered its last readiness probe.", "runner"),
		shardsPlanned: reg.Counter("fabric_shards_planned_total",
			"Shards cut from campaigns by the coordinator."),
		shardsDone: reg.Counter("fabric_shards_completed_total",
			"Shards streamed to completion, by the runner that finished them.", "runner"),
		requeues: reg.Counter("fabric_shard_requeues_total",
			"Shard dispatches abandoned on a failed runner and requeued.", "runner", "shard"),
		rowsMerged: reg.Counter("fabric_rows_merged_total",
			"Rows merged into coordinator campaign streams."),
		runnerRows: reg.Counter("fabric_runner_rows_total",
			"Rows received from each runner.", "runner"),
	}
}

func (t *telemetry) runnerState(url string, alive bool) {
	v := int64(0)
	if alive {
		v = 1
	}
	t.runnerUp.With(url).Set(v)
}

func (t *telemetry) planned(shards int) {
	t.shardsPlanned.With().Add(int64(shards))
}

func (t *telemetry) shardCompleted(url string) {
	t.shardsDone.With(url).Inc()
}

func (t *telemetry) requeued(url string, shard int) {
	t.requeues.With(url, strconv.Itoa(shard)).Inc()
}
