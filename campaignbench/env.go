package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"wsnlink/internal/fabric"
	"wsnlink/internal/obs"
	"wsnlink/internal/serve"
)

// node is one in-process daemon: serve.Open configured as cmd/wsnlinkd
// configures it by default (one job at a time, queue of 64, GOMAXPROCS
// sweep workers, metrics registry on, info-level JSON logs), served on a
// loopback listener.
type node struct {
	srv  *serve.Server
	reg  *obs.Registry
	hs   *http.Server
	url  string
	done chan struct{}
}

func startNode(dir string, logs io.Writer, exec serve.Executor, reg *obs.Registry) (*node, error) {
	srv, err := serve.Open(dir, serve.Options{
		Registry: reg,
		Logger:   obs.NewLogger(logs, slog.LevelInfo),
		Executor: exec,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background()) //nolint:errcheck // nothing is running yet
		return nil, err
	}
	n := &node{
		srv:  srv,
		reg:  reg,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		n.hs.Serve(ln) //nolint:errcheck // ends with ErrServerClosed on stop
	}()
	return n, nil
}

// stop drains the daemon, closes its listener and waits for the server
// goroutine to return.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.srv.Drain(ctx)
	n.hs.Close() //nolint:errcheck // Serve's return is awaited below
	<-n.done
	return err
}

// execCall is one ExecuteCampaign call seen by the timing decorator.
type execCall struct {
	id         string
	start, end time.Time
	rows       int
}

// timedExecutor decorates the coordinator's serve.Executor and records
// every ExecuteCampaign call, so the fabric's share of a job is measured
// at the layer boundary without touching the fabric itself.
type timedExecutor struct {
	inner serve.Executor
	mu    sync.Mutex
	calls []execCall
}

func (t *timedExecutor) ExecuteCampaign(ctx context.Context, job *serve.ExecJob) error {
	start := time.Now()
	err := t.inner.ExecuteCampaign(ctx, job)
	t.mu.Lock()
	t.calls = append(t.calls, execCall{id: job.ID, start: start, end: time.Now(), rows: len(job.Configs) - job.Resume})
	t.mu.Unlock()
	return err
}

func (t *timedExecutor) snapshot() []execCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]execCall(nil), t.calls...)
}

// env is the service under test: one daemon, or a coordinator over two
// runner daemons, all in this process.
type env struct {
	front   *node   // the daemon clients talk to
	runners []*node // fabric mode only
	fab     *fabric.Fabric
	exec    *timedExecutor
	client  *serve.Client
	hc      *http.Client
}

// fabricRunners is the runner count of the fabric workload.
const fabricRunners = 2

// bootEnv starts the service under dir. Logs go to logs, as a daemon's
// stderr would.
func bootEnv(dir string, fabricMode bool, logs io.Writer) (*env, error) {
	e := &env{}
	var exec serve.Executor
	if fabricMode {
		var urls []string
		for i := 0; i < fabricRunners; i++ {
			r, err := startNode(filepath.Join(dir, fmt.Sprintf("runner%d", i)), logs, nil, obs.NewRegistry())
			if err != nil {
				e.close()
				return nil, err
			}
			e.runners = append(e.runners, r)
			urls = append(urls, r.url)
		}
		reg := obs.NewRegistry()
		fab, err := fabric.New(fabric.Options{
			Runners:       urls,
			ProbeInterval: 250 * time.Millisecond,
			Metrics:       reg,
			Logger:        obs.NewLogger(logs, slog.LevelInfo),
		})
		if err != nil {
			e.close()
			return nil, err
		}
		e.fab = fab
		e.exec = &timedExecutor{inner: fab}
		exec = e.exec
		front, err := startNode(filepath.Join(dir, "coordinator"), logs, exec, reg)
		if err != nil {
			e.close()
			return nil, err
		}
		e.front = front
	} else {
		front, err := startNode(filepath.Join(dir, "daemon"), logs, nil, obs.NewRegistry())
		if err != nil {
			return nil, err
		}
		e.front = front
	}
	// At most two connections: the benchmark runs at most two clients.
	e.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2}}
	e.client = serve.NewClient(e.front.url)
	e.client.HTTPClient = e.hc
	return e, nil
}

// ready waits until every daemon answers /readyz and, in fabric mode,
// the coordinator has seen every runner alive.
func (e *env) ready(ctx context.Context) error {
	nodes := append([]*node{e.front}, e.runners...)
	for _, n := range nodes {
		for {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/readyz", nil)
			if err != nil {
				return err
			}
			resp, err := e.hc.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // body is only drained
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if err := sleepCtx(ctx, 2*time.Millisecond); err != nil {
				return err
			}
		}
	}
	if e.fab != nil {
		for {
			alive := 0
			for _, r := range e.fab.Registry().Runners() {
				if r.Alive() {
					alive++
				}
			}
			if alive == len(e.runners) {
				break
			}
			if err := sleepCtx(ctx, 2*time.Millisecond); err != nil {
				return err
			}
		}
	}
	return nil
}

// servers returns every in-process daemon, front first.
func (e *env) servers() []*serve.Server {
	out := []*serve.Server{e.front.srv}
	for _, r := range e.runners {
		out = append(out, r.srv)
	}
	return out
}

// close stops the coordinator, then the fabric's prober, then the runners.
func (e *env) close() error {
	var errs []error
	if e.front != nil {
		errs = append(errs, e.front.stop())
	}
	if e.fab != nil {
		e.fab.Close()
	}
	for _, r := range e.runners {
		errs = append(errs, r.stop())
	}
	if e.hc != nil {
		e.hc.CloseIdleConnections()
	}
	return errors.Join(errs...)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
