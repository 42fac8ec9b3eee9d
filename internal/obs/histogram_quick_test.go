package obs

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"
)

// histogram invariants, property-based (testing/quick). Run under -race via
// `make race` / `make verify` — the concurrency properties only bite there.

// genBounds derives a small strictly increasing bound set from fuzz input.
func genBounds(raw []float64) []float64 {
	if len(raw) == 0 {
		raw = []float64{1}
	}
	if len(raw) > 12 {
		raw = raw[:12]
	}
	bounds := make([]float64, 0, len(raw))
	prev := math.Inf(-1)
	for _, v := range raw {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		v = math.Mod(v, 1e6)
		if v <= prev {
			v = prev + 1
		}
		bounds = append(bounds, v)
		prev = v
	}
	return bounds
}

// clampObs keeps observations finite so Sum arithmetic stays exact enough.
func clampObs(vs []float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[i] = math.Mod(v, 1e9)
	}
	return out
}

func TestHistogramCountConservation(t *testing.T) {
	prop := func(rawBounds, rawObs []float64) bool {
		h := mustHistogram(genBounds(rawBounds))
		obs := clampObs(rawObs)
		for _, v := range obs {
			h.Observe(v)
		}
		s := h.Snapshot()
		var total int64
		for _, c := range s.Counts {
			if c < 0 {
				return false
			}
			total += c
		}
		return total == s.Count && s.Count == int64(len(obs))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramCDFMonotone(t *testing.T) {
	prop := func(rawBounds, rawObs []float64) bool {
		h := mustHistogram(genBounds(rawBounds))
		for _, v := range clampObs(rawObs) {
			h.Observe(v)
		}
		cdf := h.Snapshot().CDF()
		prev := 0.0
		for _, p := range cdf {
			if p < prev || p < 0 || p > 1+1e-12 {
				return false
			}
			prev = p
		}
		if len(rawObs) > 0 && math.Abs(cdf[len(cdf)-1]-1) > 1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestHistogramSnapshotIsolation hammers one histogram from several writer
// goroutines while snapshots are taken concurrently. Every snapshot must be
// internally consistent (count conservation) and bucket counts must be
// monotone from one snapshot to the next; the final snapshot must account
// for every observation. Run with -race to also certify memory safety.
func TestHistogramSnapshotIsolation(t *testing.T) {
	const (
		writers      = 8
		perWriter    = 5000
		snapshotters = 4
	)
	h := mustHistogram(ExpBuckets(1e-3, 4, 10))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
			for i := 0; i < perWriter; i++ {
				h.Observe(rng.Float64() * 10)
			}
		}(uint64(w + 1))
	}
	var snapErr error
	var snapMu sync.Mutex
	var swg sync.WaitGroup
	for s := 0; s < snapshotters; s++ {
		swg.Add(1)
		go func() {
			defer swg.Done()
			var prev HistogramSnapshot
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := h.Snapshot()
				var total int64
				for i, c := range snap.Counts {
					total += c
					if prev.Counts != nil && c < prev.Counts[i] {
						snapMu.Lock()
						snapErr = errBucketRegressed
						snapMu.Unlock()
						return
					}
				}
				if total != snap.Count {
					snapMu.Lock()
					snapErr = errCountMismatch
					snapMu.Unlock()
					return
				}
				prev = snap
			}
		}()
	}
	wg.Wait()
	close(stop)
	swg.Wait()
	if snapErr != nil {
		t.Fatal(snapErr)
	}

	final := h.Snapshot()
	if want := int64(writers * perWriter); final.Count != want {
		t.Fatalf("final count = %d, want %d", final.Count, want)
	}
}

var (
	errBucketRegressed = errorString("bucket count regressed between snapshots")
	errCountMismatch   = errorString("snapshot count != sum of bucket counts")
)

type errorString string

func (e errorString) Error() string { return string(e) }
