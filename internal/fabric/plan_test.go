package fabric

import (
	"encoding/json"
	"reflect"
	"testing"

	"wsnlink/internal/serve"
)

// planSpec is a 12-configuration campaign (3 distances x 2 powers x
// 2 retry caps), small enough to plan and simulate quickly. Its 100 000
// packets per configuration are minShardPackets: enough that the plan rule
// lets every configuration be a shard of its own, so the geometry tests
// and the multi-runner fabric tests get the shard counts they ask for.
func planSpec() serve.CampaignSpec {
	return serve.CampaignSpec{
		Space: serve.SpaceSpec{
			DistancesM:    []float64{5, 10, 15},
			TxPowers:      []int{3, 31},
			MaxTries:      []int{1, 3},
			RetryDelaysS:  []float64{0.1},
			QueueCaps:     []int{10},
			PktIntervalsS: []float64{0.1},
			PayloadsBytes: []int{50},
		},
		Packets:  minShardPackets,
		BaseSeed: 7,
	}
}

// TestPlanShardsCoversSpace pins the planner geometry: contiguous
// near-equal windows that exactly cover the space, each a first-class
// campaign with its own fingerprint.
func TestPlanShardsCoversSpace(t *testing.T) {
	spec := planSpec()
	p, err := PlanShards(spec, 5)
	if err != nil {
		t.Fatalf("PlanShards: %v", err)
	}
	if len(p.Shards) != 5 || p.Configs != 12 {
		t.Fatalf("plan has %d shards over %d configs, want 5 over 12", len(p.Shards), p.Configs)
	}
	next := 0
	seen := map[string]bool{}
	for i, sh := range p.Shards {
		if sh.Index != i {
			t.Fatalf("shard %d carries index %d", i, sh.Index)
		}
		if sh.Offset != next {
			t.Fatalf("shard %d starts at %d, want %d", i, sh.Offset, next)
		}
		if sh.Count < 2 || sh.Count > 3 {
			t.Fatalf("shard %d covers %d configs, want near-equal 2..3", i, sh.Count)
		}
		if sh.Spec.ShardOffset != sh.Offset || sh.Spec.ShardCount != sh.Count {
			t.Fatalf("shard %d spec window [%d,%d) disagrees with shard [%d,%d)",
				i, sh.Spec.ShardOffset, sh.Spec.ShardOffset+sh.Spec.ShardCount,
				sh.Offset, sh.Offset+sh.Count)
		}
		if seen[sh.Fingerprint] {
			t.Fatalf("shard %d reuses fingerprint %s", i, sh.Fingerprint)
		}
		seen[sh.Fingerprint] = true
		next += sh.Count
	}
	if next != 12 {
		t.Fatalf("shards cover %d configs, want 12", next)
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if p.Campaign != formatFingerprint(fp) {
		t.Fatalf("plan campaign %s, spec fingerprint %s", p.Campaign, formatFingerprint(fp))
	}
}

// TestPlanShardsClamps: more shards than configs degrades to one shard per
// config; zero or negative degrades to a single shard whose fingerprint is
// the campaign's own.
func TestPlanShardsClamps(t *testing.T) {
	spec := planSpec()
	p, err := PlanShards(spec, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Shards) != 12 {
		t.Fatalf("overplanned into %d shards, want 12", len(p.Shards))
	}
	for i, sh := range p.Shards {
		if sh.Count != 1 {
			t.Fatalf("shard %d covers %d configs, want 1", i, sh.Count)
		}
	}
	p1, err := PlanShards(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Shards) != 1 || p1.Shards[0].Count != 12 {
		t.Fatalf("degenerate plan = %+v, want one 12-config shard", p1.Shards)
	}
	if p1.Shards[0].Fingerprint != p1.Campaign {
		t.Fatalf("whole-space shard fingerprint %s != campaign %s",
			p1.Shards[0].Fingerprint, p1.Campaign)
	}
}

// TestPlanShardsPaysForShards pins the plan rule at the shapes it was
// set for: a campaign gets one shard per minShardPackets simulated packets
// at most, so a small job goes whole to one runner, a 1024-config campaign
// of 250 packets (campaignbench's fabric-large) gets one shard per runner,
// and the paper's Table I grid at 4500 packets keeps the full
// ShardsPerRunner × runners.
func TestPlanShardsPaysForShards(t *testing.T) {
	const shardsPerRunner = 2 // the Options default
	small := planSpec()
	small.Space.DistancesM = []float64{5, 10}
	small.Space.MaxTries = []int{1}
	small.Packets = 120
	large := serve.CampaignSpec{
		Space: serve.SpaceSpec{
			DistancesM:    []float64{5, 15, 25, 35},
			TxPowers:      []int{3, 7, 11, 15, 19, 23, 27, 31},
			MaxTries:      []int{1, 3},
			RetryDelaysS:  []float64{0.03},
			QueueCaps:     []int{30},
			PktIntervalsS: []float64{0.03, 0.1},
			PayloadsBytes: []int{5, 20, 35, 50, 65, 80, 95, 110},
		},
		Packets:  250,
		BaseSeed: 7,
	}
	paper := serve.CampaignSpec{Packets: 4500, BaseSeed: 7} // every axis defaults: stack.DefaultSpace
	for _, tc := range []struct {
		name    string
		spec    serve.CampaignSpec
		runners int
		configs int
		want    int
	}{
		{"4 configs", small, 2, 4, 1},
		{"fabric-large", large, 2, 1024, 2},
		{"Table I at 4500 packets", paper, 3, 53760, shardsPerRunner * 3},
	} {
		p, err := PlanShards(tc.spec, shardsPerRunner*tc.runners)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if p.Configs != tc.configs || len(p.Shards) != tc.want {
			t.Errorf("%s: %d configs in %d shards, want %d in %d",
				tc.name, p.Configs, len(p.Shards), tc.configs, tc.want)
		}
	}
}

// TestPlanShardsComposes: planning a spec that is itself a shard splits
// within its window with absolute offsets, so a two-level coordinator tree
// addresses the same global enumeration.
func TestPlanShardsComposes(t *testing.T) {
	parent := planSpec()
	parent.ShardOffset, parent.ShardCount = 2, 8
	p, err := PlanShards(parent, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Configs != 8 || len(p.Shards) != 3 {
		t.Fatalf("plan covers %d configs in %d shards, want 8 in 3", p.Configs, len(p.Shards))
	}
	if p.Shards[0].Offset != 2 {
		t.Fatalf("first shard offset %d, want parent base 2", p.Shards[0].Offset)
	}
	last := p.Shards[len(p.Shards)-1]
	if last.Offset+last.Count != 10 {
		t.Fatalf("plan ends at %d, want 10", last.Offset+last.Count)
	}

	// A sub-plan's shard hashes identically to the same window cut
	// directly from the unsharded campaign: offsets are absolute.
	direct := planSpec()
	direct.ShardOffset, direct.ShardCount = p.Shards[1].Offset, p.Shards[1].Count
	dfp, err := direct.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards[1].Fingerprint != formatFingerprint(dfp) {
		t.Fatalf("composed shard fingerprint %s, direct window %s",
			p.Shards[1].Fingerprint, formatFingerprint(dfp))
	}
}

// TestPlanNormalize pins wire-decoded plan handling: a planner-built plan
// round-trips JSON and normalizes to itself; broken plans are rejected.
func TestPlanNormalize(t *testing.T) {
	p, err := PlanShards(planSpec(), 4)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Plan
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if err := decoded.Normalize(); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if !reflect.DeepEqual(decoded, p) {
		t.Fatalf("normalized decoded plan differs:\n%+v\nvs\n%+v", decoded, p)
	}

	gap := p
	gap.Shards = []Shard{p.Shards[0], p.Shards[2]}
	if err := gap.Normalize(); err == nil {
		t.Fatal("non-contiguous plan accepted")
	}

	mixed := p
	mixed.Shards = append([]Shard(nil), p.Shards...)
	other := planSpec()
	other.BaseSeed = 99
	op, err := PlanShards(other, 4)
	if err != nil {
		t.Fatal(err)
	}
	mixed.Shards[1] = op.Shards[1]
	if err := mixed.Normalize(); err == nil {
		t.Fatal("mixed-campaign plan accepted")
	}

	empty := Plan{}
	if err := empty.Normalize(); err == nil {
		t.Fatal("empty plan accepted")
	}
}
