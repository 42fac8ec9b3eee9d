package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"

	"wsnlink/internal/obs"
	"wsnlink/internal/sweep"
)

// statusJSON is a job's Status as the API serves it, the form the views
// below compare byte for byte.
func statusJSON(t *testing.T, s *Server, id string) string {
	t.Helper()
	data, err := json.Marshal(mustStatus(t, s, id))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestFinishedJobsLeaveMemory: past the newest finishedInMemory of them,
// finished jobs leave the job table — cache hits and the jobs the server
// ran alike — and every read path still answers them from their durable
// records: Status, Cancel, the row stream (byte-identical), List
// (complete, in submission order) and a restarted server. A ran job's
// Status, metrics included, is the same in memory, after it leaves and
// after a restart, for done, deadline-failed and canceled runs; a job
// that left takes its tailer series with it.
func TestFinishedJobsLeaveMemory(t *testing.T) {
	dir := t.TempDir()

	// First daemon life: a run that fails on its deadline (the gate holds
	// it at row 2 until the deadline fires) and a run that completes.
	gate := sweep.NewRowGate(2)
	s1 := openServer(t, dir, Options{RowGate: gate})
	failSpec := slowSpec()
	failSpec.DeadlineS = 0.05
	failed, err := s1.Submit(failSpec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, "deadline to fail the job", func() bool { return mustStatus(t, s1, failed.ID).State == StateFailed })
	gate.Release() // a slow host may fail the job before row 2
	spec := quickSpec()
	done, err := s1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	want := collectLines(t, s1, done.ID, -1)
	views := map[string]string{
		failed.ID: statusJSON(t, s1, failed.ID),
		done.ID:   statusJSON(t, s1, done.ID),
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// Second life: the first life's runs answer the same after the
	// restart, then a run is canceled at row 2 and many cache hits follow.
	gate2 := sweep.NewRowGate(2)
	reg := obs.NewRegistry()
	s := openServer(t, dir, Options{Registry: reg, RowGate: gate2})
	checkViews := func(s *Server, when string) {
		t.Helper()
		for id, wantJSON := range views {
			if got := statusJSON(t, s, id); got != wantJSON {
				t.Fatalf("%s: status of %s differs from the live one:\n got %s\nwant %s", when, id, got, wantJSON)
			}
		}
	}
	checkViews(s, "after a restart")
	cancelSpec := slowSpec()
	cancelSpec.BaseSeed++
	canceled, err := s.Submit(cancelSpec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	parkedAt(t, gate2)
	if _, err := s.Cancel(canceled.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	waitFor(t, "job canceled", func() bool { return mustStatus(t, s, canceled.ID).State == StateCanceled })
	views[canceled.ID] = statusJSON(t, s, canceled.ID)
	for _, id := range []string{failed.ID, done.ID, canceled.ID} {
		if st := mustStatus(t, s, id); st.Metrics == nil {
			t.Fatalf("ran job %s (%s) has no metrics snapshot", id, st.State)
		}
	}
	if st := mustStatus(t, s, canceled.ID); st.Done == 0 || st.Done >= st.Total {
		t.Fatalf("canceled run reports %d/%d rows, want a partial count", st.Done, st.Total)
	}

	ids := []string{failed.ID, done.ID, canceled.ID}
	for i := 0; i < 2*finishedInMemory+3; i++ {
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("resubmit %d: %v", i, err)
		}
		if !st.CacheHit {
			t.Fatalf("resubmit %d is not a cache hit", i)
		}
		ids = append(ids, st.ID)
		if i == 0 {
			collectLines(t, s, st.ID, -1) // registers its tailer series
		}
	}
	old := ids[3]

	s.mu.Lock()
	inTable := len(s.jobs)
	_, oldKept := s.jobs[old]
	ranKept := 0
	for id := range views {
		if _, ok := s.jobs[id]; ok {
			ranKept++
		}
	}
	s.mu.Unlock()
	if inTable > 2*finishedInMemory || ranKept > 0 || oldKept {
		t.Fatalf("job table: %d entries, %d ran jobs kept, oldest hit kept %v", inTable, ranKept, oldKept)
	}
	checkViews(s, "out of memory")

	st := mustStatus(t, s, old)
	if st.State != StateDone || !st.CacheHit || st.Done != st.Total || st.Fingerprint != done.Fingerprint {
		t.Fatalf("status from the durable record: %+v", st)
	}
	for _, id := range []string{done.ID, old} {
		if got := collectLines(t, s, id, -1); !slices.Equal(got, want) {
			t.Fatalf("replay of %s out of memory differs:\n got %q\nwant %q", id, got, want)
		}
	}
	if c, err := s.Cancel(old); err != nil || c.State != StateDone {
		t.Fatalf("Cancel of a finished job out of memory: %+v, %v", c.Job, err)
	}
	for _, bad := range []string{"../jobs/" + old, "c999999", ""} {
		if _, err := s.Status(bad); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Status(%q) = %v, want ErrNotFound", bad, err)
		}
	}
	var metrics bytes.Buffer
	if err := reg.WriteText(&metrics); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(metrics.String(), `job="`+old+`"`) {
		t.Fatal("a job that left memory kept its tailer series")
	}

	checkList := func(s *Server) {
		t.Helper()
		list := s.List()
		if len(list) != len(ids) {
			t.Fatalf("List: %d jobs, want %d", len(list), len(ids))
		}
		for i, st := range list {
			if st.ID != ids[i] || !st.State.Terminal() {
				t.Fatalf("List[%d] = %s %s, want %s finished", i, st.ID, st.State, ids[i])
			}
		}
	}
	checkList(s)

	// A restart loads every record, then lets the finished ones beyond the
	// newest finishedInMemory go again.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	s3 := openServer(t, dir, Options{})
	s3.mu.Lock()
	inTable = len(s3.jobs)
	s3.mu.Unlock()
	if inTable != finishedInMemory {
		t.Fatalf("restarted job table: %d entries, want %d", inTable, finishedInMemory)
	}
	checkViews(s3, "after a second restart")
	checkList(s3)
	if got := collectLines(t, s3, old, -1); !slices.Equal(got, want) {
		t.Fatal("replay after restart differs")
	}
}

// TestLatestReadsOnlyMemory: the dashboard's pick — the newest unfinished
// job, else the newest job — comes from the job table without reading a
// single job record, even once finished jobs have left memory, while List
// still reads them back and returns every job in submission order.
func TestLatestReadsOnlyMemory(t *testing.T) {
	fsys := &countFS{}
	gate := sweep.NewRowGate(0)
	s, err := openFS(t.TempDir(), Options{Jobs: 2, RowGate: gate}, fsys)
	if err != nil {
		t.Fatalf("openFS: %v", err)
	}
	t.Cleanup(func() { s.Drain(context.Background()) }) //nolint:errcheck // test cleanup

	running, err := s.Submit(slowSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	parkedAt(t, gate)
	ids := []string{running.ID}
	for i := 0; i < 2*finishedInMemory+3; i++ {
		st, err := s.Submit(quickSpec())
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if i == 0 {
			collectLines(t, s, st.ID, -1) // the one run; the rest are hits
		}
		ids = append(ids, st.ID)
	}
	s.mu.Lock()
	evicted := s.evicted
	s.mu.Unlock()
	if !evicted {
		t.Fatal("no finished job left memory")
	}

	before := fsys.count("readfile jobs")
	st, ok := s.Latest()
	if !ok || st.ID != running.ID || st.State != StateRunning {
		t.Fatalf("Latest = %s %s (ok %v), want the running job %s", st.ID, st.State, ok, running.ID)
	}
	if n := fsys.count("readfile jobs") - before; n != 0 {
		t.Fatalf("Latest read %d job records", n)
	}

	list := s.List()
	if len(list) != len(ids) {
		t.Fatalf("List: %d jobs, want %d", len(list), len(ids))
	}
	for i, st := range list {
		if st.ID != ids[i] {
			t.Fatalf("List[%d] = %s, want %s", i, st.ID, ids[i])
		}
	}

	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	waitFor(t, "job canceled", func() bool { return mustStatus(t, s, running.ID).State == StateCanceled })
	before = fsys.count("readfile jobs")
	if st, ok := s.Latest(); !ok || st.ID != ids[len(ids)-1] {
		t.Fatalf("Latest = %s (ok %v), want the newest job %s", st.ID, ok, ids[len(ids)-1])
	}
	if n := fsys.count("readfile jobs") - before; n != 0 {
		t.Fatalf("Latest read %d job records", n)
	}
}
