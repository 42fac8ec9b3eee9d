package main

import (
	"context"
	"fmt"
	"sync"
	"syscall"
	"time"

	"wsnlink/internal/serve"
)

// campaign is one submitted campaign as its client saw it.
type campaign struct {
	spec serve.CampaignSpec

	id       string
	cacheHit bool
	configs  int
	rows     int
	digest   uint64
	err      error

	start     time.Time // before Submit
	submitted time.Time // Submit returned
	first     time.Time // first row received
	end       time.Time // last row received

	verify time.Duration // traced runs: time inside the digesting yield
	span   int           // traced runs: the client.stream span
}

func (c *campaign) failed() bool { return c.err != nil || c.rows != c.configs }

// window is one measured stretch of closed-loop traffic.
type window struct {
	campaigns  []*campaign
	start, end time.Time
	cpu        time.Duration // process user+sys CPU over the window
}

func (w *window) wall() time.Duration { return w.end.Sub(w.start) }

func (w *window) rows() int {
	n := 0
	for _, c := range w.campaigns {
		n += c.rows
	}
	return n
}

// windows are slices of one run measured on the same service.
type windows []*window

func (ws windows) campaigns() []*campaign {
	var out []*campaign
	for _, w := range ws {
		out = append(out, w.campaigns...)
	}
	return out
}

func (ws windows) wall() time.Duration {
	var d time.Duration
	for _, w := range ws {
		d += w.wall()
	}
	return d
}

func (ws windows) rows() int {
	n := 0
	for _, w := range ws {
		n += w.rows()
	}
	return n
}

// covers reports whether the instant (Unix milliseconds) falls inside one
// of the windows.
func (ws windows) covers(ms int64) bool {
	for _, w := range ws {
		if ms >= w.start.UnixMilli() && ms <= w.end.UnixMilli() {
			return true
		}
	}
	return false
}

// runWindow drives the service with one closed-loop goroutine per client
// stream until dur has passed; each client finishes the campaign it is in.
// With a tracer, every campaign records its campaign/submit/stream spans.
func runWindow(ctx context.Context, e *env, streams []*stream, dur time.Duration, tr *tracer) *window {
	w := &window{}
	per := make([][]*campaign, len(streams))
	cpu0 := cpuTime()
	w.start = time.Now()
	deadline := w.start.Add(dur)
	var wg sync.WaitGroup
	for ci := range streams {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				sub := streams[ci].next()
				c := &campaign{spec: sub.spec}
				runCampaign(ctx, e.client, c, tr)
				per[ci] = append(per[ci], c)
			}
		}(ci)
	}
	wg.Wait()
	w.end = time.Now()
	w.cpu = cpuTime() - cpu0
	for _, cs := range per {
		w.campaigns = append(w.campaigns, cs...)
	}
	return w
}

// runCampaign submits one campaign and streams it to the last row,
// digesting every row for the oracle.
func runCampaign(ctx context.Context, cl *serve.Client, c *campaign, tr *tracer) {
	c.start = time.Now()
	st, err := cl.Submit(ctx, c.spec)
	c.submitted = time.Now()
	if err != nil {
		c.err = fmt.Errorf("submit: %w", err)
		c.end = c.submitted
		return
	}
	c.id, c.cacheHit, c.configs = st.ID, st.CacheHit, st.Configs
	d := newDigester()
	next := 0
	yield := func(r serve.StreamedRow) error {
		if next == 0 {
			c.first = time.Now()
		}
		if r.Index != next {
			return fmt.Errorf("row %d arrived at position %d", r.Index, next)
		}
		next++
		if tr == nil {
			d.addStreamed(r)
			return nil
		}
		t0 := time.Now()
		d.addStreamed(r)
		c.verify += time.Since(t0)
		return nil
	}
	_, err = cl.StreamRows(ctx, st.ID, -1, yield)
	c.end = time.Now()
	c.rows, c.digest = next, d.sum()
	if err != nil {
		c.err = fmt.Errorf("stream %s: %w", st.ID, err)
	} else if c.rows != c.configs {
		c.err = fmt.Errorf("stream %s: %d of %d rows", st.ID, c.rows, c.configs)
	}
	if tr != nil {
		root := tr.add("campaign", 0, c.id, c.start, c.end)
		tr.add("client.submit", root, c.id, c.start, c.submitted)
		c.span = tr.add("client.stream", root, c.id, c.submitted, c.end)
	}
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB is the process's peak resident set size in MiB.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
