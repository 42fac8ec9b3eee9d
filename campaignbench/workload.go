package main

import (
	"fmt"
	"math/rand/v2"

	"wsnlink/internal/scenario"
	"wsnlink/internal/serve"
	"wsnlink/internal/sim"
)

// workload is one traffic mix. Every workload is a closed loop: each
// client submits a campaign, streams it to the last row, and only then
// submits the next one, the way `wsnsweep -remote` and scripts use the
// service.
type workload struct {
	name    string
	why     string
	clients int
	// fabric routes submissions to a coordinator over two runners instead
	// of a single daemon.
	fabric bool
	// packets is the per-configuration packet count of the workload's
	// campaigns (the per-layer probes simulate at the same size).
	packets int
}

// The workloads. Their why lines are copied into BENCHMARK.json.
var workloads = []workload{
	{name: "fresh-large", clients: 1, packets: largePackets,
		why: "unique-seed 1024-config link campaigns: kernel, engine and per-row persistence writes do the work"},
	{name: "replay-large", clients: 1, packets: largePackets,
		why: "the same campaign shape answered from the result cache: tail, CSV split, NDJSON encode, HTTP and client decode"},
	{name: "small-mixed", clients: 2, packets: smallPackets,
		why: "4-config jobs, 3/8 cache hits and 1/4 star scenarios: fixed per-job cost and the scenario pipeline"},
	{name: "fabric-large", clients: 1, fabric: true, packets: largePackets,
		why: "fresh-large campaigns through a coordinator over two runners: fabric plan, dispatch and merge"},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	largePackets = 250
	smallPackets = 120
	// replayPool is how many large campaigns replay-large caches during
	// set-up and then resubmits.
	replayPool = 12
	// Hot pool of small-mixed: cached during set-up, drawn by every hit.
	hotLink = 4
	hotStar = 2
	// warmFresh and warmFabric are how many large campaigns fresh-large and
	// fabric-large run during set-up, so the measured window starts on a
	// warm process. A fresh coordinator now and then stalls ~0.2 s in one
	// of its first campaigns; six of them keep that stall a minor part of
	// fabric-large's set-up time.
	warmFresh  = 2
	warmFabric = 6
)

// mix folds values into one 64-bit seed (SplitMix64 chaining), so every
// generated seed is a pure function of its inputs.
func mix(vals ...uint64) uint64 {
	var z uint64 = 0x6a09e667f3bcc909
	for _, v := range vals {
		z = sim.DeriveSeed(z^v, 1)
	}
	return z
}

// tag hashes a short name into a seed component.
func tag(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// largeSpec is a 1024-configuration link campaign (4 distances × 8 powers
// × 2 retry limits × 2 packet intervals × 8 payloads) at 250 packets. The
// 35 m / power 3 corner loses every packet, so the non-finite field
// encoding is exercised on every campaign.
func largeSpec(seed uint64) serve.CampaignSpec {
	return serve.CampaignSpec{
		Space: serve.SpaceSpec{
			DistancesM:    []float64{5, 15, 25, 35},
			TxPowers:      []int{3, 7, 11, 15, 19, 23, 27, 31},
			MaxTries:      []int{1, 3},
			RetryDelaysS:  []float64{0.03},
			QueueCaps:     []int{30},
			PktIntervalsS: []float64{0.03, 0.1},
			PayloadsBytes: []int{5, 20, 35, 50, 65, 80, 95, 110},
		},
		Packets:  largePackets,
		BaseSeed: seed,
	}
}

// smallSpec is the 4-configuration load campaign of the service baseline
// (the wsnload shape) at 120 packets; star selects the 3-node star
// scenario over the same space.
func smallSpec(seed uint64, star bool) serve.CampaignSpec {
	s := serve.CampaignSpec{
		Space: serve.SpaceSpec{
			DistancesM:    []float64{35},
			TxPowers:      []int{31},
			MaxTries:      []int{1, 3},
			RetryDelaysS:  []float64{0.03},
			QueueCaps:     []int{1},
			PktIntervalsS: []float64{0.05},
			PayloadsBytes: []int{20, 110},
		},
		Packets:  smallPackets,
		BaseSeed: seed,
	}
	if star {
		s.Scenario = string(scenario.KindStar)
		s.Star = &scenario.StarParams{Nodes: 3}
	}
	return s
}

// submission is one generated campaign and whether the workload expects
// the service to answer it from the cache.
type submission struct {
	spec serve.CampaignSpec
	hit  bool
}

// warmSpecs returns the campaigns set-up submits before measuring: the
// replay pool, the small-mixed hot pool, or a couple of warm-up campaigns
// from a seed namespace the measured window never uses.
func warmSpecs(w workload, seed uint64) []serve.CampaignSpec {
	wt := tag(w.name)
	var out []serve.CampaignSpec
	switch w.name {
	case "replay-large":
		for k := 0; k < replayPool; k++ {
			out = append(out, largeSpec(mix(seed, wt, tag("pool"), uint64(k))))
		}
	case "small-mixed":
		for k := 0; k < hotLink+hotStar; k++ {
			out = append(out, smallSpec(mix(seed, wt, tag("hot"), uint64(k)), k >= hotLink))
		}
	default:
		n := warmFresh
		if w.fabric {
			n = warmFabric
		}
		for k := 0; k < n; k++ {
			out = append(out, largeSpec(mix(seed, wt, tag("warm"), uint64(k))))
		}
	}
	return out
}

// stream is one client's campaign sequence: a pure function of
// (workload, seed, client), so two runs with the same seed submit exactly
// the same specs in the same order.
type stream struct {
	w      workload
	seed   uint64
	client uint64
	i      uint64
	rng    *rand.Rand
	pool   []serve.CampaignSpec
	block  []int // small-mixed: kinds of the current block of 8
}

func newStream(w workload, seed uint64, client int) *stream {
	c := uint64(client)
	return &stream{
		w:      w,
		seed:   seed,
		client: c,
		rng:    rand.New(rand.NewPCG(mix(seed, tag(w.name), tag("rng"), c), c)),
		pool:   warmSpecs(w, seed),
	}
}

// Kinds of a small-mixed submission. Every block of eight holds three hits
// (two link, one star) and five misses (four link, one star) in a seeded
// order, so the hit share is exactly ⅜ and the star share ¼. (At a hit
// share of exactly ½ the campaign median would sit on the edge between
// the hit and the miss latency modes and flip from run to run.)
const (
	hitLink = iota
	hitStar
	missLink
	missStar
)

var smallBlock = []int{hitLink, hitLink, hitStar, missLink, missLink, missLink, missLink, missStar}

func (s *stream) next() submission {
	i := s.i
	s.i++
	wt := tag(s.w.name)
	switch s.w.name {
	case "replay-large":
		return submission{spec: s.pool[s.rng.IntN(len(s.pool))], hit: true}
	case "small-mixed":
		if len(s.block) == 0 {
			s.block = append([]int(nil), smallBlock...)
			s.rng.Shuffle(len(s.block), func(a, b int) { s.block[a], s.block[b] = s.block[b], s.block[a] })
		}
		kind := s.block[0]
		s.block = s.block[1:]
		switch kind {
		case hitLink:
			return submission{spec: s.pool[s.rng.IntN(hotLink)], hit: true}
		case hitStar:
			return submission{spec: s.pool[hotLink+s.rng.IntN(hotStar)], hit: true}
		default:
			return submission{spec: smallSpec(mix(s.seed, wt, tag("miss"), s.client, i), kind == missStar)}
		}
	default: // fresh-large, fabric-large
		return submission{spec: largeSpec(mix(s.seed, wt, tag("run"), s.client, i))}
	}
}
