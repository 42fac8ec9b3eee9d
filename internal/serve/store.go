package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"wsnlink/internal/obs"
)

// Store is the service's durable state under one data directory:
//
//	<dir>/jobs/<id>.json   job records (atomic rename writes)
//	<dir>/spool/<fp>.csv   in-progress dataset, appended row by row
//	<dir>/spool/<fp>.ckpt  the sweep engine's checkpoint sidecar
//	<dir>/cache/<fp>.csv   completed datasets, keyed by campaign fingerprint
//	<dir>/traces/<id>.trace.json  optional per-job lifecycle traces
//
// Spool files are keyed by fingerprint, not job ID, so a restarted daemon —
// or a resubmission of a failed campaign — resumes from whatever prefix any
// earlier attempt left behind. Completion promotes the spool dataset into
// the cache with an atomic rename; cache presence alone therefore implies a
// complete, validated dataset.
//
// The cache's byte total is tracked rather than rescanned: one directory
// scan at open seeds it, and every rename into cache/ (Promote, a blob-tier
// fetch) adjusts it, so CacheSize is O(1) however large the cache grows.
type Store struct {
	dir string
	fs  fsOps
	// blobs, when set, is the shared cache tier behind the local cache:
	// EnsureCached falls back to it and PublishCache copies into it.
	blobs BlobStore

	// cacheMu serializes renames into cache/ with the accounting of the
	// file each one replaces; cacheBytes is the running total, and
	// cacheGauge (nil-safe) mirrors it for /metrics.
	cacheMu    sync.Mutex
	cacheBytes atomic.Int64
	cacheGauge *obs.Gauge
}

// OpenStore creates (or reopens) the data directory layout.
func OpenStore(dir string) (*Store, error) {
	return openStoreFS(dir, osFS{})
}

// openStoreFS is OpenStore with an injectable filesystem (fault tests).
func openStoreFS(dir string, fsys fsOps) (*Store, error) {
	for _, sub := range []string{"jobs", "spool", "cache", "traces"} {
		if err := fsys.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("serve: open store: %w", err)
		}
	}
	s := &Store{dir: dir, fs: fsys}
	s.cacheBytes.Store(s.scanCacheSize())
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) jobPath(id string) string {
	return filepath.Join(s.dir, "jobs", id+".json")
}

// SpoolCSV returns the in-progress dataset path for a campaign.
func (s *Store) SpoolCSV(fp string) string {
	return filepath.Join(s.dir, "spool", fp+".csv")
}

// SpoolCheckpoint returns the checkpoint sidecar path for a campaign.
func (s *Store) SpoolCheckpoint(fp string) string {
	return filepath.Join(s.dir, "spool", fp+".ckpt")
}

// CachePath returns the completed-dataset path for a campaign fingerprint.
func (s *Store) CachePath(fp string) string {
	return filepath.Join(s.dir, "cache", fp+".csv")
}

// TracePath returns the lifecycle-trace path for a job.
func (s *Store) TracePath(id string) string {
	return filepath.Join(s.dir, "traces", id+".trace.json")
}

// HasCache reports whether a completed dataset exists for the fingerprint.
func (s *Store) HasCache(fp string) bool {
	_, err := s.fs.Stat(s.CachePath(fp))
	return err == nil
}

// CacheSize returns the total on-disk size of the result cache in bytes,
// as tracked since the store opened. Files added to or deleted from cache/
// by hand are not seen until the next open.
func (s *Store) CacheSize() int64 { return s.cacheBytes.Load() }

// scanCacheSize sums the sizes of the files in cache/: the one scan that
// seeds the tracked total at open.
func (s *Store) scanCacheSize() int64 {
	entries, err := s.fs.ReadDir(filepath.Join(s.dir, "cache"))
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

// mirrorCacheSize makes g equal the tracked cache size from now on. It is
// set under the lock that orders the renames, so concurrent promotes
// cannot leave an older total in it.
func (s *Store) mirrorCacheSize(g *obs.Gauge) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	s.cacheGauge = g
	g.Set(s.cacheBytes.Load())
}

// renameIntoCache renames a finished file of size bytes to CachePath(fp)
// and adds it to the tracked total, less whatever file the rename replaces.
func (s *Store) renameIntoCache(src, fp string, size int64) error {
	dst := s.CachePath(fp)
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	var replaced int64
	if info, err := s.fs.Stat(dst); err == nil {
		replaced = info.Size()
	}
	if err := s.fs.Rename(src, dst); err != nil {
		return err
	}
	s.cacheGauge.Set(s.cacheBytes.Add(size - replaced))
	return nil
}

// PutJob persists a job record atomically (temp file + rename), so a crash
// mid-write never leaves a torn record.
func (s *Store) PutJob(j *Job) error {
	data, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encode job %s: %w", j.ID, err)
	}
	path := s.jobPath(j.ID)
	tmp := path + ".tmp"
	if err := s.fs.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("serve: write job %s: %w", j.ID, err)
	}
	if err := s.fs.Rename(tmp, path); err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("serve: write job %s: %w", j.ID, err)
	}
	return nil
}

// GetJob reads one persisted job record. An ID that is not a plain file
// name, or names no readable record, is os.ErrNotExist.
func (s *Store) GetJob(id string) (*Job, error) {
	if id == "" || filepath.Base(id) != id {
		return nil, os.ErrNotExist
	}
	data, err := s.fs.ReadFile(s.jobPath(id))
	if err != nil {
		return nil, err
	}
	var j Job
	if err := json.Unmarshal(data, &j); err != nil || j.ID != id {
		return nil, os.ErrNotExist
	}
	return &j, nil
}

// LoadJobs reads every persisted job record, sorted by submission sequence.
// Unreadable or torn records are skipped (the atomic writes make them
// possible only through external interference), not fatal: the daemon must
// come back up with whatever part of the queue survived.
func (s *Store) LoadJobs() ([]*Job, error) {
	entries, err := s.fs.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("serve: load jobs: %w", err)
	}
	var jobs []*Job
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := s.fs.ReadFile(filepath.Join(s.dir, "jobs", e.Name()))
		if err != nil {
			continue
		}
		var j Job
		if err := json.Unmarshal(data, &j); err != nil || j.ID == "" {
			continue
		}
		jobs = append(jobs, &j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].Seq < jobs[k].Seq })
	return jobs, nil
}

// Promote moves a completed spool dataset into the result cache (atomic
// rename) and drops the now-redundant checkpoint sidecar.
func (s *Store) Promote(fp string) error {
	info, err := s.fs.Stat(s.SpoolCSV(fp))
	if err != nil {
		return fmt.Errorf("serve: promote %s: %w", fp, err)
	}
	if err := s.renameIntoCache(s.SpoolCSV(fp), fp, info.Size()); err != nil {
		return fmt.Errorf("serve: promote %s: %w", fp, err)
	}
	if err := s.fs.Remove(s.SpoolCheckpoint(fp)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("serve: promote %s: %w", fp, err)
	}
	return nil
}

// DropSpool removes a campaign's spool dataset and checkpoint (used when a
// corrupt or mismatched sidecar forces a fresh start).
func (s *Store) DropSpool(fp string) {
	s.fs.Remove(s.SpoolCSV(fp))
	s.fs.Remove(s.SpoolCheckpoint(fp))
}
