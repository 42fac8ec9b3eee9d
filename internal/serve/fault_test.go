package serve

// Deterministic fault injection for the durable store. A faultFS sits behind
// the fs seam and fires scripted failures — an error on the Nth matching
// call, a torn write that persists only a prefix of the bytes — so the
// durability claims (a torn spool write cannot corrupt the cache, a failed
// promote stays resumable, a crashed worker requeues and replays
// byte-identically) are proven under injected failures, not just happy-path
// kills.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wsnlink/internal/sweep"
)

var errInjected = errors.New("injected fault")

// fsRule scripts one fault: the first `skip` calls matching (op, substring
// of path) pass through, the next one fires. For op "write", torn is the
// number of bytes actually persisted before the error — a torn write.
type fsRule struct {
	op    string // "create", "open", "writefile", "rename", "remove", "write"
	match string // substring of the path (for rename: either path)
	skip  int    // matching calls to let through before firing
	torn  int    // op "write": bytes persisted before the error
	err   error  // defaults to errInjected
	fired bool
}

// faultFS wraps the real filesystem with scripted fault rules. Zero rules
// means fully transparent, so one instance can open a server, arm a fault,
// and disarm it again between phases of a test.
type faultFS struct {
	osFS
	mu    sync.Mutex
	rules []*fsRule
}

func (f *faultFS) arm(r *fsRule) {
	if r.err == nil {
		r.err = errInjected
	}
	f.mu.Lock()
	f.rules = append(f.rules, r)
	f.mu.Unlock()
}

func (f *faultFS) disarm() {
	f.mu.Lock()
	f.rules = nil
	f.mu.Unlock()
}

// fire returns the rule triggered by this call, or nil to pass through.
func (f *faultFS) fire(op string, paths ...string) *fsRule {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.rules {
		if r.fired || r.op != op {
			continue
		}
		hit := false
		for _, p := range paths {
			if strings.Contains(p, r.match) {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		if r.skip > 0 {
			r.skip--
			return nil
		}
		r.fired = true
		return r
	}
	return nil
}

func (f *faultFS) Create(name string) (file, error) {
	if r := f.fire("create", name); r != nil {
		return nil, r.err
	}
	got, err := f.osFS.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{file: got, fs: f}, nil
}

func (f *faultFS) Open(name string) (file, error) {
	if r := f.fire("open", name); r != nil {
		return nil, r.err
	}
	return f.osFS.Open(name)
}

func (f *faultFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	if r := f.fire("writefile", name); r != nil {
		return r.err
	}
	return f.osFS.WriteFile(name, data, perm)
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	if r := f.fire("rename", oldpath, newpath); r != nil {
		return r.err
	}
	return f.osFS.Rename(oldpath, newpath)
}

func (f *faultFS) Remove(name string) error {
	if r := f.fire("remove", name); r != nil {
		return r.err
	}
	return f.osFS.Remove(name)
}

// faultFile applies "write" rules to a handle created through faultFS.
type faultFile struct {
	file
	fs *faultFS
}

func (f *faultFile) Write(p []byte) (int, error) {
	if r := f.fs.fire("write", f.Name()); r != nil {
		n := r.torn
		if n > len(p) {
			n = len(p)
		}
		if n > 0 {
			f.file.Write(p[:n]) //nolint:errcheck // torn prefix is best-effort
		}
		return n, r.err
	}
	return f.file.Write(p)
}

// openFaultServer opens a server whose store runs on the given faultFS.
func openFaultServer(t *testing.T, dir string, opts Options, fsys *faultFS) *Server {
	t.Helper()
	s, err := openFS(dir, opts, fsys)
	if err != nil {
		t.Fatalf("openFS: %v", err)
	}
	t.Cleanup(func() {
		fsys.disarm() // never let a stale rule break cleanup
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // best-effort test cleanup
	})
	return s
}

func waitTerminal(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	waitFor(t, "job "+id+" terminal", func() bool {
		return mustStatus(t, s, id).State.Terminal()
	})
	return mustStatus(t, s, id)
}

// TestTornSpoolWriteCannotCorruptCache is the core durability proof: a spool
// write torn mid-row fails the job without promoting anything, the cache
// stays empty, and a retry resumes from the checkpoint to a byte-identical
// dataset.
func TestTornSpoolWriteCannotCorruptCache(t *testing.T) {
	fsys := &faultFS{}
	dir := t.TempDir()
	s := openFaultServer(t, dir, Options{}, fsys)
	spec := quickSpec()
	want := refLines(t, spec)

	// Let the header and two row flushes through, then tear the third row
	// mid-write: 7 bytes of it reach the spool, the rest is lost.
	fsys.arm(&fsRule{op: "write", match: string(filepath.Separator) + "spool" + string(filepath.Separator), skip: 3, torn: 7})

	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st = waitTerminal(t, s, st.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "injected fault") {
		t.Fatalf("state = %s (%q), want failed on injected fault", st.State, st.Error)
	}

	// The torn write must not have produced a cache entry — partial data
	// lives only in the spool, which is not an answer source for new jobs.
	if s.Store().HasCache(st.Fingerprint) {
		t.Fatal("torn spool write produced a cache entry")
	}
	entries, err := os.ReadDir(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("cache directory not empty after torn write: %v", entries)
	}

	// Retry with the fault disarmed: the checkpoint admits only fully
	// flushed rows, so the torn tail is discarded and the rerun completes.
	fsys.disarm()
	st2, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	st2 = waitTerminal(t, s, st2.ID)
	if st2.State != StateDone {
		t.Fatalf("retry state = %s (%q), want done", st2.State, st2.Error)
	}
	if got := collectLines(t, s, st2.ID, -1); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("rows after torn-write recovery differ from reference:\n got %d rows\nwant %d rows", len(got), len(want))
	}
	if !s.Store().HasCache(st2.Fingerprint) {
		t.Fatal("retry did not populate the cache")
	}
}

// TestPromoteRenameFailureKeepsSpoolResumable injects a failure into the
// spool→cache rename: the job fails, but the finished spool + checkpoint
// stay, so the retry replays entirely from the checkpoint (zero simulation)
// and produces byte-identical rows.
func TestPromoteRenameFailureKeepsSpoolResumable(t *testing.T) {
	fsys := &faultFS{}
	s := openFaultServer(t, t.TempDir(), Options{}, fsys)
	spec := quickSpec()
	want := refLines(t, spec)

	fsys.arm(&fsRule{op: "rename", match: string(filepath.Separator) + "cache" + string(filepath.Separator)})

	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st = waitTerminal(t, s, st.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "promote") {
		t.Fatalf("state = %s (%q), want failed promote", st.State, st.Error)
	}
	if s.Store().HasCache(st.Fingerprint) {
		t.Fatal("failed promote left a cache entry")
	}
	if _, err := os.Stat(s.Store().SpoolCSV(st.Fingerprint)); err != nil {
		t.Fatalf("spool dataset gone after failed promote: %v", err)
	}

	fsys.disarm()
	st2, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	st2 = waitTerminal(t, s, st2.ID)
	if st2.State != StateDone {
		t.Fatalf("retry state = %s (%q), want done", st2.State, st2.Error)
	}
	if st2.ResumedFrom != len(want) {
		t.Fatalf("retry resumed from %d rows, want the full %d (no re-simulation)", st2.ResumedFrom, len(want))
	}
	if got := collectLines(t, s, st2.ID, -1); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("rows after promote recovery differ from reference")
	}
}

// TestJobRecordWriteFailureSurfacesOnSubmit: a failing job-record write must
// reject the submission cleanly (no ghost queue entry) and roll back the ID
// sequence.
func TestJobRecordWriteFailureSurfacesOnSubmit(t *testing.T) {
	fsys := &faultFS{}
	s := openFaultServer(t, t.TempDir(), Options{}, fsys)

	fsys.arm(&fsRule{op: "writefile", match: string(filepath.Separator) + "jobs" + string(filepath.Separator)})
	if _, err := s.Submit(quickSpec()); err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("Submit = %v, want injected fault", err)
	}
	if got := len(s.List()); got != 0 {
		t.Fatalf("failed submit left %d jobs in the queue", got)
	}

	fsys.disarm()
	st, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatalf("Submit after disarm: %v", err)
	}
	if st.ID != "c000001" {
		t.Fatalf("job ID = %s, want c000001 (sequence rolled back)", st.ID)
	}
	waitTerminal(t, s, st.ID)
}

// TestWorkerKillAtCheckpointRequeuesAndReplays simulates a worker killed at
// a chosen checkpoint: a torn write fails the run mid-campaign, the on-disk
// record is reset to running (exactly what a hard kill leaves), and a fresh
// daemon must requeue the job, resume from the checkpoint, and stream a
// byte-identical dataset.
func TestWorkerKillAtCheckpointRequeuesAndReplays(t *testing.T) {
	fsys := &faultFS{}
	dir := t.TempDir()
	s1, err := openFS(dir, Options{}, fsys)
	if err != nil {
		t.Fatalf("openFS: %v", err)
	}
	spec := quickSpec()
	want := refLines(t, spec)

	fsys.arm(&fsRule{op: "write", match: string(filepath.Separator) + "spool" + string(filepath.Separator), skip: 2, torn: 3})
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, "job terminal", func() bool {
		js, err := s1.Status(st.ID)
		return err == nil && js.State.Terminal()
	})
	fsys.disarm()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	s1.Drain(ctx) //nolint:errcheck // shutting down the first daemon life
	cancel()

	// A hard kill leaves the record in state running; recreate that.
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := store.LoadJobs()
	if err != nil || len(jobs) != 1 {
		t.Fatalf("LoadJobs = %v, %v", jobs, err)
	}
	jobs[0].State = StateRunning
	jobs[0].Error = ""
	jobs[0].FinishedMs = 0
	if err := store.PutJob(jobs[0]); err != nil {
		t.Fatal(err)
	}

	// Second daemon life: plain filesystem, crash-requeue on open.
	s2 := openServer(t, dir, Options{})
	st2 := waitTerminal(t, s2, st.ID)
	if st2.State != StateDone {
		t.Fatalf("requeued job state = %s (%q), want done", st2.State, st2.Error)
	}
	if st2.ResumedFrom <= 0 {
		t.Fatalf("requeued job resumed from %d, want a checkpointed prefix", st2.ResumedFrom)
	}
	if got := collectLines(t, s2, st.ID, -1); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("rows after kill+requeue differ from reference")
	}
}

// TestOpenFailureOnSpoolPrefixStartsFresh: when the checkpoint is valid but
// the spool cannot be reopened, the runner must drop the leftovers and start
// fresh rather than fail — and still end byte-identical.
func TestOpenFailureOnSpoolPrefixStartsFresh(t *testing.T) {
	fsys := &faultFS{}
	gate := sweep.NewRowGate(1)
	s := openFaultServer(t, t.TempDir(), Options{Jobs: 1, RowGate: gate}, fsys)
	spec := slowSpec()
	want := refLines(t, quickSpec())

	// Leave a checkpointed prefix behind by canceling a slow campaign.
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	parkedAt(t, gate)
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	waitTerminal(t, s, st.ID)

	// Resubmit with the spool unreadable at resume time.
	fsys.arm(&fsRule{op: "open", match: string(filepath.Separator) + "spool" + string(filepath.Separator)})
	st2, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	waitFor(t, "restart running fresh", func() bool {
		js := mustStatus(t, s, st2.ID)
		return js.State.Terminal() || js.State == StateRunning && js.ResumedFrom == 0
	})
	if js := mustStatus(t, s, st2.ID); js.State == StateRunning && js.ResumedFrom != 0 {
		t.Fatalf("resumed from %d rows despite unreadable spool", js.ResumedFrom)
	}
	if _, err := s.Cancel(st2.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	waitTerminal(t, s, st2.ID)

	// Sanity: a fast campaign still completes correctly on this store.
	fsys.disarm()
	st3, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatalf("Submit quick: %v", err)
	}
	if got := collectLines(t, s, st3.ID, -1); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("quick campaign rows differ from reference")
	}
}
