// Package fabric is the distributed campaign coordinator: it splits one
// campaign into contiguous, fingerprint-addressed shards, farms the shards
// out to a fleet of wsnlinkd runner daemons over the ordinary campaign API,
// and merges the runner row streams back into a single in-order stream that
// is byte-identical to a single-daemon run.
//
// The split leans entirely on the engine's sharding contract: a shard is a
// first-class campaign whose spec carries a ShardOffset/ShardCount window,
// per-row seeds derive from the global configuration index, and CRN pairing
// stays anchored at global index 0. Because of that, the coordinator never
// touches row content — it only routes, resumes and concatenates. Runner
// loss is tolerated by requeueing a shard on a surviving runner from the
// coordinator's own checkpoint cursor, using the same ?after= resume
// mechanism any streaming client uses.
package fabric

import (
	"errors"
	"fmt"
	"reflect"

	"wsnlink/internal/serve"
)

// Shard is one contiguous window of a campaign, addressed like any other
// campaign: its Spec is a complete, submittable CampaignSpec and its
// Fingerprint is the content hash runners will key their caches by.
type Shard struct {
	// Index is the shard's position in the plan (0-based, dense). The
	// merge order.
	Index int `json:"index"`
	// Offset/Count locate the shard in the parent space's global row-major
	// enumeration. Offset is absolute: shards of an already-sharded parent
	// compose by carrying the parent's base offset.
	Offset int `json:"offset"`
	Count  int `json:"count"`
	// Spec is the shard's submittable campaign spec (the parent spec with
	// the shard window applied), in normalized form.
	Spec serve.CampaignSpec `json:"spec"`
	// Fingerprint is the shard campaign's identity hash (16 hex digits).
	Fingerprint string `json:"fingerprint"`
}

// Plan is a sharding of one campaign: contiguous shards that exactly cover
// the parent's configuration window, in offset order.
type Plan struct {
	// Campaign is the parent campaign's fingerprint (16 hex digits).
	Campaign string `json:"campaign"`
	// Configs is the number of configurations the plan covers — the sum of
	// the shard counts.
	Configs int     `json:"configs"`
	Shards  []Shard `json:"shards"`
}

// minShardPackets is the fewest simulated packets a shard must carry for
// its fixed cost to stay near a tenth of its simulation time. Each shard
// costs its runner a submit, a spool, a promote and three job records —
// `serve.job_fixed_ms` 1.2–1.7 ms on one daemon in the campaignbench
// ledger — plus its own stream. The kernel behind a daemon simulates about
// 8.3M packets/s (fresh-large: 33.1k rows/s of 250 packets, 2 vCPUs), so
// 100 000 packets are ~12 ms of simulation and 1.2 ms is ~10 % of it.
// Cheaper shards buy no parallelism the runners do not already have.
const minShardPackets = 100_000

// PlanShards cuts spec into at most shards contiguous near-equal windows
// (never more than one row apart in size, never empty), and into fewer when
// the campaign is too small to pay for them: no more than one shard per
// minShardPackets simulated packets (configurations × packets). A
// whole-space spec shards over the full enumeration; a spec that is itself
// a shard is split within its window, with absolute offsets, so plans
// compose. shards < 1 is treated as 1.
func PlanShards(spec serve.CampaignSpec, shards int) (Plan, error) {
	norm, err := spec.Normalized(serve.Limits{})
	if err != nil {
		return Plan{}, err
	}
	pfp, err := norm.Fingerprint()
	if err != nil {
		return Plan{}, err
	}
	base := norm.ShardOffset
	size := norm.ShardCount
	if size == 0 {
		size = norm.Space.Space().Size()
	}
	if paid := int64(size) * int64(norm.Packets) / minShardPackets; int64(shards) > paid {
		shards = int(paid)
	}
	if shards < 1 {
		shards = 1
	}
	if shards > size {
		shards = size
	}
	p := Plan{
		Campaign: formatFingerprint(pfp),
		Configs:  size,
		Shards:   make([]Shard, 0, shards),
	}
	for i := 0; i < shards; i++ {
		lo, hi := i*size/shards, (i+1)*size/shards
		ss := norm
		ss.ShardOffset = base + lo
		ss.ShardCount = hi - lo
		sfp, err := ss.Fingerprint()
		if err != nil {
			return Plan{}, fmt.Errorf("fabric: shard %d: %w", i, err)
		}
		p.Shards = append(p.Shards, Shard{
			Index:       i,
			Offset:      base + lo,
			Count:       hi - lo,
			Spec:        ss,
			Fingerprint: formatFingerprint(sfp),
		})
	}
	return p, nil
}

// Normalize validates a plan (e.g. one decoded off the wire) and rewrites
// it into canonical form: every shard spec fully normalized, Offset/Count
// and Fingerprint recomputed from the spec, indices dense, and the parent
// Campaign fingerprint rederived from the covered window. It rejects plans
// whose shards are not contiguous in offset order, do not share one parent
// campaign identity, or do not normalize. Normalize is idempotent: a
// normalized plan re-normalizes to itself, fingerprints included — the
// property FuzzShardPlanJSON pins.
func (p *Plan) Normalize() error {
	if len(p.Shards) == 0 {
		return errors.New("fabric: plan has no shards")
	}
	var ident serve.CampaignSpec
	for i := range p.Shards {
		sh := &p.Shards[i]
		norm, err := sh.Spec.Normalized(planLimits)
		if err != nil {
			return fmt.Errorf("fabric: shard %d: %w", i, err)
		}
		count := norm.ShardCount
		if count == 0 {
			if len(p.Shards) != 1 {
				return fmt.Errorf("fabric: shard %d covers the whole space in a %d-shard plan",
					i, len(p.Shards))
			}
			count = norm.Space.Space().Size()
		}
		fp, err := norm.Fingerprint()
		if err != nil {
			return fmt.Errorf("fabric: shard %d: %w", i, err)
		}
		sh.Spec = norm
		sh.Index = i
		sh.Offset = norm.ShardOffset
		sh.Count = count
		sh.Fingerprint = formatFingerprint(fp)

		// Stripping the window must leave every shard with the same parent
		// campaign identity.
		flat := norm
		flat.ShardOffset, flat.ShardCount = 0, 0
		if i == 0 {
			ident = flat
		} else if !reflect.DeepEqual(flat, ident) {
			return fmt.Errorf("fabric: shard %d belongs to a different campaign", i)
		}
	}
	next := p.Shards[0].Offset
	for i := range p.Shards {
		if p.Shards[i].Offset != next {
			return fmt.Errorf("fabric: shard %d starts at offset %d, want %d (plan not contiguous)",
				i, p.Shards[i].Offset, next)
		}
		next += p.Shards[i].Count
	}
	p.Configs = next - p.Shards[0].Offset

	parent := p.Shards[0].Spec
	parent.ShardOffset = p.Shards[0].Offset
	parent.ShardCount = p.Configs
	pfp, err := parent.Fingerprint()
	if err != nil {
		return fmt.Errorf("fabric: parent campaign: %w", err)
	}
	p.Campaign = formatFingerprint(pfp)
	return nil
}

// planLimits bounds what a wire-decoded plan may make the coordinator
// materialize: comfortably above the paper's full 53 760-configuration
// campaign, while a hostile plan cannot ask for millions of configurations.
var planLimits = serve.Limits{MaxConfigs: 1 << 17}

// formatFingerprint renders a campaign fingerprint the way job records and
// checkpoint sidecars do: 16 lowercase hex digits.
func formatFingerprint(fp uint64) string {
	return fmt.Sprintf("%016x", fp)
}
