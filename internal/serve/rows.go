package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"
)

// StreamRows sends the campaign's rows with index > after, in order, as
// canonical records (see sweep.FieldNames), following the dataset as the
// runner appends to it. It returns once the job is terminal and every
// durable row has been sent, or when ctx is canceled. It is an adapter over
// the job's line stream (streamLines), which the HTTP rows endpoint copies
// out as it is: each NDJSON line is scanned back into its fields.
func (s *Server) StreamRows(ctx context.Context, id string, after int, send func(index int, fields []string) error) error {
	return s.streamLines(ctx, id, after, func(lines []byte) error {
		for len(lines) > 0 {
			nl := bytes.IndexByte(lines, '\n')
			index, rec, ok := scanCanonicalRow(lines[:nl])
			if !ok {
				return fmt.Errorf("serve: job %s: dataset line is not a canonical row", id)
			}
			if err := send(index, rec); err != nil {
				return err
			}
			lines = lines[nl+1:]
		}
		return nil
	}, nil)
}

// streamLines follows a campaign's dataset file — the live spool while the
// job runs, the cache once promoted — and hands write the lines of every
// row with index > after, in order: each call gets the whole lines one read
// brought in, as one byte range of the file, never a partial line. A
// cache-hit replay is therefore a byte copy of the file the live stream
// copied. caughtUp, if non-nil, runs each time the stream has sent all
// that the runner committed so far and is about to wait for more: the HTTP
// handler flushes there, once per catch-up rather than once per row.
// streamLines returns once the job is terminal and every whole line is
// sent, or when ctx is canceled.
func (s *Server) streamLines(ctx context.Context, id string, after int, write func(lines []byte) error, caughtUp func()) error {
	s.mu.Lock()
	e, kept := s.entryLocked(id)
	s.mu.Unlock()
	if e == nil {
		return ErrNotFound
	}

	// Tailer accounting and the stream instruments. With telemetry
	// disabled the handles are nil and the loop below keeps the plain
	// write — no timing, no wrapper, zero overhead.
	if active, rows, stalls := s.tel.tailerHandles(id, kept); rows != nil {
		if active != nil {
			active.Add(1)
			defer active.Add(-1)
		}
		inner := write
		write = func(lines []byte) error {
			start := time.Now()
			err := inner(lines)
			if time.Since(start) > tailerStallThreshold {
				stalls.Inc()
			}
			rows.Add(int64(bytes.Count(lines, []byte{'\n'})))
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

	// The runner writes whole lines a group at a time and broadcasts per
	// group, so complete lines only ever accumulate. The open fd survives
	// the completion rename into the cache.
	lc := lineCopier{f: f, skip: after + 1}
	for {
		// A terminal job's dataset is complete: one drain finishes it,
		// without arming the notifier.
		s.mu.Lock()
		terminal := e.job.State.Terminal()
		s.mu.Unlock()
		if terminal {
			return lc.drain(write)
		}
		ch := e.notify.Wait()
		if err := lc.drain(write); err != nil {
			return err
		}
		s.mu.Lock()
		terminal = e.job.State.Terminal()
		s.mu.Unlock()
		if terminal {
			return lc.drain(write)
		}
		if caughtUp != nil {
			caughtUp()
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

// lineCopier reads a growing dataset file and hands out its whole lines:
// it skips the first skip lines, then passes each read's complete lines on
// as one byte range, carrying a partial trailing line over until its
// newline arrives (*os.File keeps returning fresh data on reads past a
// previous EOF).
type lineCopier struct {
	f    file
	skip int
	buf  []byte
	n    int // buf[:n] is a carried-over partial line
}

// lineCopyChunk is the read size: about 90 link rows per read.
const lineCopyChunk = 64 << 10

// drain hands write every whole line the file holds now.
func (c *lineCopier) drain(write func([]byte) error) error {
	if c.buf == nil {
		c.buf = make([]byte, lineCopyChunk)
	}
	for {
		if c.n == len(c.buf) { // one line longer than the buffer
			c.buf = append(c.buf, make([]byte, len(c.buf))...)
		}
		m, err := c.f.Read(c.buf[c.n:])
		if m > 0 {
			data := c.buf[:c.n+m]
			start := 0
			for c.skip > 0 {
				i := bytes.IndexByte(data[start:], '\n')
				if i < 0 {
					break
				}
				start += i + 1
				c.skip--
			}
			end := bytes.LastIndexByte(data, '\n') + 1
			if start < end {
				if werr := write(data[start:end]); werr != nil {
					return werr
				}
			}
			c.n = copy(c.buf, data[end:])
		}
		if err == io.EOF || (err == nil && m == 0) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
