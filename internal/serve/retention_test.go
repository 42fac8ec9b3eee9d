package serve

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"wsnlink/internal/obs"
)

// TestFinishedJobsLeaveMemory: past the newest finishedInMemory of them,
// finished jobs the server did not run leave the job table, and every read
// path still answers them from their durable records — Status, Cancel, the
// row stream (byte-identical), List (complete, in submission order) and a
// restarted server. The job the server ran keeps its entry and metrics,
// and a job that left takes its tailer series with it.
func TestFinishedJobsLeaveMemory(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s := openServer(t, dir, Options{Registry: reg})
	spec := quickSpec()
	ran, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	want := collectLines(t, s, ran.ID, -1)

	ids := []string{ran.ID}
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
	old := ids[1]

	s.mu.Lock()
	inTable := len(s.jobs)
	_, ranKept := s.jobs[ran.ID]
	_, oldKept := s.jobs[old]
	s.mu.Unlock()
	if inTable > 2*finishedInMemory+1 || !ranKept || oldKept {
		t.Fatalf("job table: %d entries, ran job kept %v, oldest hit kept %v", inTable, ranKept, oldKept)
	}
	if st := mustStatus(t, s, ran.ID); st.Metrics == nil {
		t.Fatal("the job the server ran lost its metrics snapshot")
	}

	st := mustStatus(t, s, old)
	if st.State != StateDone || !st.CacheHit || st.Done != st.Total || st.Fingerprint != ran.Fingerprint {
		t.Fatalf("status from the durable record: %+v", st)
	}
	if got := collectLines(t, s, old, -1); !slices.Equal(got, want) {
		t.Fatalf("replay of a job out of memory differs:\n got %q\nwant %q", got, want)
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
			if st.ID != ids[i] || st.State != StateDone {
				t.Fatalf("List[%d] = %s %s, want %s done", i, st.ID, st.State, ids[i])
			}
		}
	}
	checkList(s)

	// A restart loads every record, then lets the finished ones beyond the
	// newest finishedInMemory go again.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	s2 := openServer(t, dir, Options{})
	s2.mu.Lock()
	inTable = len(s2.jobs)
	s2.mu.Unlock()
	if inTable != finishedInMemory {
		t.Fatalf("restarted job table: %d entries, want %d", inTable, finishedInMemory)
	}
	checkList(s2)
	if got := collectLines(t, s2, old, -1); !slices.Equal(got, want) {
		t.Fatal("replay after restart differs")
	}
}
