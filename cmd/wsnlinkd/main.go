// Command wsnlinkd is the campaign service daemon: a durable job queue and
// fingerprint-keyed result cache over the sweep engine, exposed as an
// HTTP/JSON API.
//
// Campaigns are submitted as JSON specs (POST /v1/campaigns) and simulated
// by a bounded worker pool; results stream back as NDJSON rows
// (GET /v1/campaigns/{id}/rows) with index-based resume, so clients can
// reconnect mid-campaign. All state lives under -data-dir: job records are
// written with atomic renames, in-flight datasets checkpoint row by row, and
// completed datasets are promoted into a content-addressed cache keyed by
// the campaign fingerprint — resubmitting an identical campaign is answered
// from disk without touching the simulator. On SIGINT/SIGTERM the daemon
// drains: running jobs checkpoint, return to the durable queue, and the next
// start resumes them, reproducing the exact bytes an uninterrupted run would
// have produced.
//
// The observability surface rides on the same listener: /metrics
// (Prometheus text exposition of the labeled service metrics), /healthz and
// /readyz (liveness/readiness; readiness flips to 503 during a drain),
// /debug/pprof/*, /debug/vars (expvar, including the "wsnlinkd" service
// counters), the /debug/campaign live dashboard showing the most recent
// active job, and the /debug/daemon service-wide telemetry panel. Lifecycle
// events (submissions, starts, finishes, drain checkpoints) are emitted as
// JSON structured logs on stderr.
//
// Coordinator mode (-coordinator -runners ...) turns the daemon into the
// head of a distributed campaign fabric: submissions arrive on the same API,
// but instead of simulating locally the coordinator cuts each campaign into
// contiguous fingerprint-addressed shards, farms them to the runner daemons,
// and merges the returned streams into one in-order NDJSON stream that is
// byte-identical to a single-daemon run. Runner loss mid-campaign is
// tolerated: the lost shard requeues on a surviving runner and resumes from
// the coordinator's checkpoint cursor. A shared -blob-dir (valid on both
// coordinators and runners) adds a content-addressed cache tier the whole
// fleet reads and publishes.
//
// Usage:
//
//	wsnlinkd -addr localhost:8080 -data-dir /var/lib/wsnlinkd
//	wsnlinkd -addr :0 -data-dir ./data -jobs 2 -job-deadline 2h
//	wsnlinkd -addr :8080 -data-dir ./coord -coordinator \
//	    -runners http://r1:8080,http://r2:8080 -blob-dir /shared/blobs
//	curl -s localhost:8080/v1/campaigns -d '{"space":{"distances_m":[35]}}'
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wsnlink/internal/buildinfo"
	"wsnlink/internal/fabric"
	"wsnlink/internal/obs"
	"wsnlink/internal/serve"
	"wsnlink/internal/sweep"
)

// rowGate parks a local campaign after a given spooled row (tests only; see
// serve.Options.RowGate). It is nil in the daemon.
var rowGate *sweep.RowGate

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "wsnlinkd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("wsnlinkd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "localhost:8080", "HTTP listen address (host:port; ':0' picks a free port)")
		dataDir      = fs.String("data-dir", "wsnlinkd-data", "durable state directory (jobs, spool, cache, traces)")
		jobs         = fs.Int("jobs", 1, "campaigns simulated concurrently")
		jobWorkers   = fs.Int("job-workers", 0, "sweep workers per campaign (0 = GOMAXPROCS)")
		maxQueue     = fs.Int("max-queue", 64, "max queued+running jobs before submissions get 429")
		maxConfigs   = fs.Int("max-configs", 0, "reject campaigns larger than this many configurations (0 = unlimited)")
		maxPackets   = fs.Int("max-packets", 0, "cap packets per configuration (0 = unlimited)")
		jobDeadline  = fs.Duration("job-deadline", 0, "default per-job deadline (0 = none)")
		maxDeadline  = fs.Duration("max-job-deadline", 0, "cap on per-job deadlines (0 = none)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "max time to checkpoint in-flight jobs on shutdown")
		addrFile     = fs.String("addr-file", "", "write the actual listen address to this file once bound (for ':0' scripting)")
		logLevel     = fs.String("log-level", "info", "structured log level (debug, info, warn, error)")
		version      = fs.Bool("version", false, "print version and exit")

		coordinator   = fs.Bool("coordinator", false, "shard campaigns across -runners instead of simulating locally")
		runnersList   = fs.String("runners", "", "comma-separated runner daemon URLs (coordinator mode)")
		probeInterval = fs.Duration("probe-interval", 250*time.Millisecond, "runner liveness probe period (coordinator mode)")
		shardsPer     = fs.Int("shards-per-runner", 2, "shards planned per runner per campaign (coordinator mode)")
		blobDir       = fs.String("blob-dir", "", "shared content-addressed cache directory (fleet-wide result tier)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, "wsnlinkd", buildinfo.Current())
		return nil
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", *logLevel, err)
	}
	logger := obs.NewLogger(stderr, level)
	registry := obs.NewRegistry()

	var runnerURLs []string
	for _, u := range strings.Split(*runnersList, ",") {
		if u = strings.TrimSpace(u); u != "" {
			if !strings.Contains(u, "://") {
				u = "http://" + u
			}
			runnerURLs = append(runnerURLs, u)
		}
	}
	var executor serve.Executor
	if *coordinator {
		if len(runnerURLs) == 0 {
			return fmt.Errorf("-coordinator requires at least one runner URL in -runners")
		}
		fab, err := fabric.New(fabric.Options{
			Runners:         runnerURLs,
			ProbeInterval:   *probeInterval,
			ShardsPerRunner: *shardsPer,
			Metrics:         registry,
			Logger:          logger,
		})
		if err != nil {
			return err
		}
		defer fab.Close()
		executor = fab
	} else if len(runnerURLs) > 0 {
		return fmt.Errorf("-runners is only meaningful with -coordinator")
	}
	var blobs serve.BlobStore
	if *blobDir != "" {
		var err error
		if blobs, err = serve.NewDirBlobStore(*blobDir); err != nil {
			return err
		}
	}

	srv, err := serve.Open(*dataDir, serve.Options{
		Jobs:     *jobs,
		MaxQueue: *maxQueue,
		Limits: serve.Limits{
			MaxConfigs:      *maxConfigs,
			MaxPackets:      *maxPackets,
			MaxWorkers:      *jobWorkers,
			DefaultDeadline: *jobDeadline,
			MaxDeadline:     *maxDeadline,
		},
		Registry: registry,
		Logger:   logger,
		Executor: executor,
		Blobs:    blobs,
		RowGate:  rowGate,
	})
	if err != nil {
		return err
	}
	publishDebug(srv, registry)

	mux := http.NewServeMux()
	// The service handler carries the API plus the operational surface
	// (/healthz, /readyz, /metrics); pprof, expvar and the dashboards
	// register themselves on the default mux and ride the same listener.
	mux.Handle("/", srv.Handler())
	mux.Handle("/debug/", http.DefaultServeMux)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	mode := ""
	if *coordinator {
		mode = fmt.Sprintf(", coordinator over %d runners", len(runnerURLs))
	}
	fmt.Fprintf(stderr, "wsnlinkd %s listening on http://%s (data dir %s%s)\n",
		buildinfo.Current(), ln.Addr(), *dataDir, mode)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("write -addr-file: %w", err)
		}
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("http server: %w", err)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, checkpoint and requeue in-flight
	// campaigns, then cut whatever streams are still attached to requeued
	// (non-terminal) jobs — their clients resume against the next daemon.
	fmt.Fprintln(stderr, "wsnlinkd: shutting down, checkpointing in-flight jobs")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go httpSrv.Shutdown(drainCtx) //nolint:errcheck // superseded by Close below
	drainErr := srv.Drain(drainCtx)
	httpSrv.Close() //nolint:errcheck // listener is already down
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	fmt.Fprintln(stderr, "wsnlinkd: drained; queued jobs resume on next start")
	return nil
}

// debugTarget is the server the process-wide /debug endpoints read from.
// Registration on expvar and the default mux must happen at most once per
// process, so restarts within one process (tests) just swap the target —
// the same pattern obs.PublishExpvar uses.
var (
	debugTarget atomic.Pointer[serve.Server]
	debugOnce   sync.Once
)

// publishDebug exposes the server's counters under the "wsnlinkd" expvar,
// wires the /debug/campaign dashboard to the most recent active job and the
// /debug/daemon panel to the service metrics registry.
func publishDebug(s *serve.Server, reg *obs.Registry) {
	debugTarget.Store(s)
	obs.PublishDaemon(reg)
	debugOnce.Do(func() {
		expvar.Publish("wsnlinkd", expvar.Func(func() any {
			if cur := debugTarget.Load(); cur != nil {
				return cur.Stats()
			}
			return nil
		}))
	})
	obs.PublishCampaign(func() obs.CampaignStatus {
		cur := debugTarget.Load()
		if cur == nil {
			return obs.CampaignStatus{}
		}
		// The most recently submitted unfinished job, else the last job so
		// a finished campaign stays on the dashboard. Latest reads only
		// the in-memory job table, so an SSE tick reads nothing from disk.
		pick, ok := cur.Latest()
		if !ok {
			return obs.CampaignStatus{}
		}
		st := obs.CampaignStatus{
			Campaign: pick.Fingerprint,
			Done:     pick.Done,
			Total:    pick.Total,
			Errors:   pick.Errors,
		}
		if pick.Metrics != nil {
			st.Metrics = *pick.Metrics
		}
		return st
	})
}
