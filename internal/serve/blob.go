package serve

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// BlobStore is the shared result-cache tier: a content-addressed object
// store keyed by campaign fingerprint. When a server has one configured,
// every promoted dataset is published into it and every cache lookup falls
// back to it, so any runner in a fleet can answer any campaign another
// runner completed — the property that makes a requeued shard a cache hit
// instead of a re-simulation whenever the lost runner got far enough to
// promote.
//
// Datasets are immutable once published (the fingerprint addresses exact
// byte content), so Publish may be called concurrently by multiple runners
// for the same fingerprint: every writer is writing the same bytes and the
// last atomic rename wins.
type BlobStore interface {
	// Has reports whether a dataset exists for the fingerprint.
	Has(fp string) bool
	// Open returns the dataset for reading; os.ErrNotExist if absent.
	Open(fp string) (io.ReadCloser, error)
	// Publish stores the dataset under the fingerprint, atomically: a
	// concurrent reader sees either nothing or the complete dataset.
	Publish(fp string, r io.Reader) error
}

// DirBlobStore is the filesystem BlobStore: one shared directory (an NFS
// mount, a bind-mounted volume) holding <fp>.csv objects, written with the
// same temp-file-plus-rename discipline the local cache uses. It sits
// behind the fsOps seam so the fault-injection tests can exercise torn
// publishes and failing renames.
type DirBlobStore struct {
	dir string
	fs  fsOps
}

// NewDirBlobStore creates (or reopens) a shared blob directory.
func NewDirBlobStore(dir string) (*DirBlobStore, error) {
	return newDirBlobStoreFS(dir, osFS{})
}

// newDirBlobStoreFS is NewDirBlobStore with an injectable filesystem.
func newDirBlobStoreFS(dir string, fsys fsOps) (*DirBlobStore, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: open blob store: %w", err)
	}
	return &DirBlobStore{dir: dir, fs: fsys}, nil
}

func (b *DirBlobStore) path(fp string) string {
	return filepath.Join(b.dir, fp+".csv")
}

func (b *DirBlobStore) Has(fp string) bool {
	_, err := b.fs.Stat(b.path(fp))
	return err == nil
}

func (b *DirBlobStore) Open(fp string) (io.ReadCloser, error) {
	f, err := b.fs.Open(b.path(fp))
	if err != nil {
		return nil, err
	}
	return readCloser{f}, nil
}

// Publish writes the dataset to a process-unique temp name and renames it
// into place. Concurrent publishers of the same fingerprint are racing
// identical bytes, so whichever rename lands last is as good as the first.
func (b *DirBlobStore) Publish(fp string, r io.Reader) error {
	path := b.path(fp)
	tmp := fmt.Sprintf("%s.tmp-%d", path, os.Getpid())
	f, err := b.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("serve: publish blob %s: %w", fp, err)
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		b.fs.Remove(tmp)
		return fmt.Errorf("serve: publish blob %s: %w", fp, err)
	}
	if err := f.Close(); err != nil {
		b.fs.Remove(tmp)
		return fmt.Errorf("serve: publish blob %s: %w", fp, err)
	}
	if err := b.fs.Rename(tmp, path); err != nil {
		b.fs.Remove(tmp)
		return fmt.Errorf("serve: publish blob %s: %w", fp, err)
	}
	return nil
}

// readCloser adapts the store's file interface to io.ReadCloser.
type readCloser struct{ f file }

func (r readCloser) Read(p []byte) (int, error) { return r.f.Read(p) }
func (r readCloser) Close() error               { return r.f.Close() }

// EnsureCached reports whether a completed dataset is available for the
// fingerprint, fetching it from the shared blob tier into the local cache
// when the local copy is missing (fetched reports that case). After a true
// return, CachePath(fp) is readable — streaming and cache-hit replay never
// touch the blob store on the row path.
func (s *Store) EnsureCached(fp string) (ok, fetched bool) {
	if s.HasCache(fp) {
		return true, false
	}
	if s.blobs == nil || !s.blobs.Has(fp) {
		return false, false
	}
	src, err := s.blobs.Open(fp)
	if err != nil {
		return false, false
	}
	defer src.Close()
	tmp := fmt.Sprintf("%s.tmp-%d", s.CachePath(fp), os.Getpid())
	dst, err := s.fs.Create(tmp)
	if err != nil {
		return false, false
	}
	n, err := io.Copy(dst, src)
	if err != nil {
		dst.Close()
		s.fs.Remove(tmp)
		return false, false
	}
	if err := dst.Close(); err != nil {
		s.fs.Remove(tmp)
		return false, false
	}
	if err := s.renameIntoCache(tmp, fp, n); err != nil {
		s.fs.Remove(tmp)
		return false, false
	}
	return true, true
}

// PublishCache copies a locally cached dataset into the shared blob tier.
// A store without a blob tier publishes nowhere and returns nil.
func (s *Store) PublishCache(fp string) error {
	if s.blobs == nil {
		return nil
	}
	f, err := s.fs.Open(s.CachePath(fp))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("serve: publish %s: dataset not in local cache", fp)
		}
		return err
	}
	defer f.Close()
	return s.blobs.Publish(fp, f)
}
