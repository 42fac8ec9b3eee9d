package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"strings"
	"time"
)

// StreamRows sends the campaign's rows with index > after, in order, as
// canonical records (see sweep.FieldNames), following the dataset as the
// runner appends to it. It returns once the job is terminal and every
// durable row has been sent, or when ctx is canceled. The bytes sent are
// read from the dataset file itself — live spool or completed cache — so a
// cache-hit replay is byte-identical to the original live stream.
func (s *Server) StreamRows(ctx context.Context, id string, after int, send func(index int, fields []string) error) error {
	s.mu.Lock()
	e, kept := s.entryLocked(id)
	s.mu.Unlock()
	if e == nil {
		return ErrNotFound
	}

	// Tailer accounting and the per-row stream instruments. With telemetry
	// disabled the handles are nil and the hot loop below keeps the plain
	// send — no timing, no wrapper, zero overhead.
	if active, rows, stalls := s.tel.tailerHandles(id, kept); rows != nil {
		if active != nil {
			active.Add(1)
			defer active.Add(-1)
		}
		inner := send
		send = func(index int, fields []string) error {
			start := time.Now()
			err := inner(index, fields)
			if time.Since(start) > tailerStallThreshold {
				stalls.Inc()
			}
			rows.Inc()
			return err
		}
	}

	// Wait until the runner has prepared the spool (which may rewrite a
	// stale file from a previous daemon life) or the job is terminal.
	for {
		s.mu.Lock()
		ready := e.ready
		terminal := e.job.State.Terminal()
		s.mu.Unlock()
		if ready || terminal {
			break
		}
		ch := e.notify.Wait()
		s.mu.Lock()
		ready, terminal = e.ready, e.job.State.Terminal()
		s.mu.Unlock()
		if ready || terminal {
			break
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}

	f, err := openResult(s.store, e.job.Fingerprint)
	if errors.Is(err, os.ErrNotExist) {
		return nil // terminal with no dataset (failed before the first row)
	}
	if err != nil {
		return err
	}
	defer f.Close()

	// Tail the dataset: the runner flushes whole rows and broadcasts per
	// row, so complete lines only ever accumulate. The open fd survives
	// the completion rename into the cache.
	t := lineTailer{f: f}
	lineNo := 0
	drain := func() error {
		for {
			line, ok, err := t.next()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			lineNo++
			if lineNo == 1 {
				continue // header
			}
			idx := lineNo - 2
			if idx <= after {
				continue
			}
			if err := send(idx, strings.Split(line, ",")); err != nil {
				return err
			}
		}
	}
	for {
		// A terminal job's dataset is complete: one drain finishes it,
		// without arming the notifier.
		s.mu.Lock()
		terminal := e.job.State.Terminal()
		s.mu.Unlock()
		if terminal {
			return drain()
		}
		ch := e.notify.Wait()
		if err := drain(); err != nil {
			return err
		}
		s.mu.Lock()
		terminal = e.job.State.Terminal()
		s.mu.Unlock()
		if terminal {
			return drain()
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// openResult opens a campaign's dataset: the live spool while the job runs
// (or after a failure), the cache once promoted.
func openResult(store *Store, fp string) (file, error) {
	f, err := store.fs.Open(store.SpoolCSV(fp))
	if errors.Is(err, os.ErrNotExist) {
		return store.fs.Open(store.CachePath(fp))
	}
	return f, err
}

// lineTailer yields complete newline-terminated lines from a growing file.
// A partial trailing line is carried over until its newline arrives;
// *os.File keeps returning fresh data on reads past a previous EOF.
type lineTailer struct {
	f   file
	buf []byte
}

// next returns the next complete line (without its newline); ok is false
// when no complete line is available yet.
func (t *lineTailer) next() (string, bool, error) {
	for {
		if i := bytes.IndexByte(t.buf, '\n'); i >= 0 {
			line := string(t.buf[:i])
			t.buf = t.buf[i+1:]
			return line, true, nil
		}
		var chunk [32 * 1024]byte
		n, err := t.f.Read(chunk[:])
		if n > 0 {
			t.buf = append(t.buf, chunk[:n]...)
			continue
		}
		if err == nil || err == io.EOF {
			return "", false, nil
		}
		return "", false, err
	}
}
