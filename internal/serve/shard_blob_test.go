package serve

import (
	"errors"
	"io"
	"reflect"
	"testing"
)

// failingBlobStore rejects every publish — the outage case.
type failingBlobStore struct{}

func (failingBlobStore) Open(string) (io.ReadCloser, error) {
	return nil, errors.New("blob store down")
}
func (failingBlobStore) Publish(string, io.Reader) error {
	return errors.New("blob store down")
}

// TestShardCampaignRowsMatchFullSlice is the service-level sharding proof:
// a shard submission produces exactly the corresponding row slice of the
// full campaign — same canonical records, shifted to local indices — and
// hashes to a distinct fingerprint, so shards are first-class
// content-addressed campaigns.
func TestShardCampaignRowsMatchFullSlice(t *testing.T) {
	s := openServer(t, t.TempDir(), Options{})
	full := quickSpec() // 4 configurations
	fullSt, err := s.Submit(full)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, "full campaign done", func() bool {
		return mustStatus(t, s, fullSt.ID).State == StateDone
	})
	fullLines := collectLines(t, s, fullSt.ID, -1)

	shard := quickSpec()
	shard.ShardOffset, shard.ShardCount = 1, 2
	shardSt, err := s.Submit(shard)
	if err != nil {
		t.Fatalf("Submit shard: %v", err)
	}
	if shardSt.Fingerprint == fullSt.Fingerprint {
		t.Fatal("shard fingerprint equals full-campaign fingerprint")
	}
	if shardSt.Configs != 2 {
		t.Fatalf("shard Configs = %d, want 2", shardSt.Configs)
	}
	waitFor(t, "shard campaign done", func() bool {
		return mustStatus(t, s, shardSt.ID).State == StateDone
	})
	shardLines := collectLines(t, s, shardSt.ID, -1)
	if !reflect.DeepEqual(shardLines, fullLines[1:3]) {
		t.Fatalf("shard rows differ from full campaign slice:\n%v\nvs\n%v",
			shardLines, fullLines[1:3])
	}

	// A whole-space shard at offset 0 is the same campaign: same
	// fingerprint, answered from the cache the full run promoted.
	whole := quickSpec()
	whole.ShardOffset, whole.ShardCount = 0, 4
	wholeSt, err := s.Submit(whole)
	if err != nil {
		t.Fatalf("Submit whole-space shard: %v", err)
	}
	if wholeSt.Fingerprint != fullSt.Fingerprint {
		t.Fatalf("whole-space shard fingerprint %s != full %s",
			wholeSt.Fingerprint, fullSt.Fingerprint)
	}
	if !wholeSt.CacheHit {
		t.Fatal("whole-space shard was not a cache hit")
	}
}

// TestShardValidation pins the shard-window guard rails.
func TestShardValidation(t *testing.T) {
	s := openServer(t, t.TempDir(), Options{Limits: Limits{MaxConfigs: 2}})
	for _, tc := range []struct {
		name          string
		offset, count int
	}{
		{"negative offset", -1, 2},
		{"negative count", 0, -1},
		{"offset without count", 2, 0},
		{"window past end", 3, 2},
	} {
		spec := quickSpec()
		spec.ShardOffset, spec.ShardCount = tc.offset, tc.count
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// MaxConfigs applies to the shard window, not the parent space: the
	// 4-config space is over the limit, a 2-config window is not.
	if _, err := s.Submit(quickSpec()); err == nil {
		t.Error("full space over MaxConfigs accepted")
	}
	spec := quickSpec()
	spec.ShardOffset, spec.ShardCount = 1, 2
	if _, err := s.Submit(spec); err != nil {
		t.Errorf("in-limit shard rejected: %v", err)
	}
}

// TestBlobStoreSharedCacheTier proves the shared tier: a campaign promoted
// by one server is a cache hit on a second server that shares only the
// blob directory — with byte-identical rows — and the fetched dataset lands
// in the second server's local cache.
func TestBlobStoreSharedCacheTier(t *testing.T) {
	blobs, err := NewDirBlobStore(t.TempDir() + "/blobs")
	if err != nil {
		t.Fatalf("NewDirBlobStore: %v", err)
	}
	a := openServer(t, t.TempDir(), Options{Blobs: blobs})
	b := openServer(t, t.TempDir(), Options{Blobs: blobs})

	spec := quickSpec()
	stA, err := a.Submit(spec)
	if err != nil {
		t.Fatalf("Submit to a: %v", err)
	}
	waitFor(t, "campaign done on a", func() bool {
		return mustStatus(t, a, stA.ID).State == StateDone
	})
	published, err := blobs.Open(stA.Fingerprint)
	if err != nil {
		t.Fatalf("promoted dataset was not published to the blob tier: %v", err)
	}
	published.Close()

	stB, err := b.Submit(spec)
	if err != nil {
		t.Fatalf("Submit to b: %v", err)
	}
	if !stB.CacheHit {
		t.Fatal("second server did not answer from the shared tier")
	}
	if !b.Store().HasCache(stB.Fingerprint) {
		t.Fatal("fetched dataset missing from the local cache")
	}
	linesA := collectLines(t, a, stA.ID, -1)
	linesB := collectLines(t, b, stB.ID, -1)
	if !reflect.DeepEqual(linesA, linesB) {
		t.Fatal("rows from the shared tier differ from the origin's")
	}
}

// TestBlobPublishFailureDoesNotFailJob: the blob tier is best-effort — a
// publish error is logged and counted, but the campaign still completes
// and serves from the local cache.
func TestBlobPublishFailureDoesNotFailJob(t *testing.T) {
	s := openServer(t, t.TempDir(), Options{Blobs: failingBlobStore{}})
	st, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, "campaign done", func() bool {
		return mustStatus(t, s, st.ID).State == StateDone
	})
	if got := mustStatus(t, s, st.ID); got.State != StateDone || got.Error != "" {
		t.Fatalf("job state %s (%q), want done with no error", got.State, got.Error)
	}
	if len(collectLines(t, s, st.ID, -1)) != 4 {
		t.Fatal("local rows not served after blob publish failure")
	}
}
