package serve

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"wsnlink/internal/obs"
	"wsnlink/internal/sweep"
)

// countFS is the real filesystem with a tally of directory listings and
// whole-file reads, keyed "readdir <sub>" and "readfile <sub>" by the
// data-directory subdirectory they touch ("cache", "jobs", ...).
type countFS struct {
	osFS
	mu     sync.Mutex
	counts map[string]int
}

func (c *countFS) add(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.counts == nil {
		c.counts = make(map[string]int)
	}
	c.counts[key]++
}

func (c *countFS) count(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[key]
}

func (c *countFS) ReadDir(name string) ([]os.DirEntry, error) {
	c.add("readdir " + filepath.Base(name))
	return c.osFS.ReadDir(name)
}

func (c *countFS) ReadFile(name string) ([]byte, error) {
	c.add("readfile " + filepath.Base(filepath.Dir(name)))
	return c.osFS.ReadFile(name)
}

// scanCache sums the sizes of the files in a data directory's cache/, the
// way an operator's du would.
func scanCache(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// cacheGaugeValue reads wsnlinkd_cache_size_bytes from the exposition.
func cacheGaugeValue(t *testing.T, reg *obs.Registry) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "wsnlinkd_cache_size_bytes "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("gauge line %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatal("no wsnlinkd_cache_size_bytes sample")
	return 0
}

// checkCacheSize asserts the gauge and Store.CacheSize both equal a fresh
// scan of the cache directory.
func checkCacheSize(t *testing.T, when string, s *Server, reg *obs.Registry) {
	t.Helper()
	want := scanCache(t, s.Store().Dir())
	if want == 0 {
		t.Fatalf("%s: empty cache, nothing to compare", when)
	}
	if got := cacheGaugeValue(t, reg); got != want {
		t.Fatalf("%s: wsnlinkd_cache_size_bytes = %d, cache/ holds %d bytes", when, got, want)
	}
	if got := s.Store().CacheSize(); got != want {
		t.Fatalf("%s: CacheSize() = %d, cache/ holds %d bytes", when, got, want)
	}
}

// seededSpec is quickSpec under another base seed: a distinct campaign.
func seededSpec(seed uint64) CampaignSpec {
	spec := quickSpec()
	spec.BaseSeed = seed
	return spec
}

// TestCacheSizeTracksDisk: the tracked cache size (the store's total and
// the wsnlinkd_cache_size_bytes gauge) equals a fresh scan of cache/ after
// concurrent fresh jobs, after a queued duplicate is answered from the
// cache, after a blob-tier fetch and after a restart.
func TestCacheSizeTracksDisk(t *testing.T) {
	blobs, err := NewDirBlobStore(filepath.Join(t.TempDir(), "blobs"))
	if err != nil {
		t.Fatalf("NewDirBlobStore: %v", err)
	}
	dir := t.TempDir()
	reg := obs.NewRegistry()
	// The gate parks the first run at its first row, so its duplicate is
	// queued behind it while the other jobs promote concurrently.
	gate := sweep.NewRowGate(0)
	s := openServer(t, dir, Options{Jobs: 4, Registry: reg, Blobs: blobs, rowGate: gate})

	first, err := s.Submit(seededSpec(100))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	parkedAt(t, gate)
	dup, err := s.Submit(seededSpec(100))
	if err != nil {
		t.Fatalf("Submit duplicate: %v", err)
	}
	var ids []string
	for seed := uint64(101); seed <= 108; seed++ {
		st, err := s.Submit(seededSpec(seed))
		if err != nil {
			t.Fatalf("Submit %d: %v", seed, err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitFor(t, "fresh job done", func() bool { return mustStatus(t, s, id).State == StateDone })
	}
	if st := mustStatus(t, s, dup.ID); st.State != StateQueued {
		t.Fatalf("duplicate is %s, want queued behind the parked run", st.State)
	}
	checkCacheSize(t, "after concurrent fresh jobs", s, reg)

	gate.Release()
	for _, id := range []string{first.ID, dup.ID} {
		waitFor(t, "parked run and duplicate done", func() bool { return mustStatus(t, s, id).State == StateDone })
	}
	if st := mustStatus(t, s, dup.ID); !st.CacheHit {
		t.Fatal("the queued duplicate was not answered from the cache")
	}
	checkCacheSize(t, "after a queued duplicate", s, reg)

	// Another daemon over the same blob tier fetches instead of running.
	regB := obs.NewRegistry()
	b := openServer(t, t.TempDir(), Options{Registry: regB, Blobs: blobs})
	hit, err := b.Submit(seededSpec(104))
	if err != nil {
		t.Fatalf("Submit to the second daemon: %v", err)
	}
	if !hit.CacheHit {
		t.Fatal("second daemon did not answer from the blob tier")
	}
	checkCacheSize(t, "after a blob-tier fetch", b, regB)

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	reg2 := obs.NewRegistry()
	s2 := openServer(t, dir, Options{Registry: reg2})
	checkCacheSize(t, "after a restart", s2, reg2)
}

// TestPromoteDoesNotListCache: once Open has seeded the cache size, fresh
// jobs keep it without a single directory listing of cache/ — the per-job
// cost no longer grows with the cache.
func TestPromoteDoesNotListCache(t *testing.T) {
	fsys := &countFS{}
	reg := obs.NewRegistry()
	s, err := openFS(t.TempDir(), Options{Registry: reg}, fsys)
	if err != nil {
		t.Fatalf("openFS: %v", err)
	}
	t.Cleanup(func() { s.Drain(context.Background()) }) //nolint:errcheck // test cleanup
	opened := fsys.count("readdir cache")
	const n = 5
	for i := 0; i < n; i++ {
		st, err := s.Submit(seededSpec(uint64(200 + i)))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		collectLines(t, s, st.ID, -1)
		if st := mustStatus(t, s, st.ID); st.State != StateDone || st.CacheHit {
			t.Fatalf("job %d: %s, cache hit %v; want a fresh run", i, st.State, st.CacheHit)
		}
	}
	if got := fsys.count("readdir cache") - opened; got != 0 {
		t.Fatalf("%d fresh jobs listed cache/ %d times after Open, want 0", n, got)
	}
	checkCacheSize(t, fmt.Sprintf("after %d fresh jobs", n), s, reg)
}
