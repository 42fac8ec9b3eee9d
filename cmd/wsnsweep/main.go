// Command wsnsweep regenerates the measurement campaign dataset: it sweeps
// the Table I parameter space (or a scaled subset) and streams one
// aggregated CSV row per configuration — the synthetic counterpart of the
// public dataset the paper released.
//
// Rows are appended to the output as they complete, so memory stays bounded
// regardless of campaign size. With -checkpoint the sweep records its
// progress in a sidecar file; an interrupted run (Ctrl-C, SIGTERM, or a
// crash) can then be continued with -resume and produces a dataset
// byte-identical to an uninterrupted run with the same seed.
//
// Observability: a completed file-backed run writes a JSON run manifest
// (campaign fingerprint, seed, parameter space, row count, wall time and a
// telemetry snapshot) next to the CSV; -metrics-out dumps the telemetry
// snapshot separately (also on interruption), -pprof serves /debug/pprof,
// /debug/vars and the live /debug/campaign dashboard while the campaign
// runs, and -trace-out records per-packet lifecycle events to a Perfetto-
// loadable Chrome trace (or NDJSON, by extension), sampled with
// -trace-sample.
//
// Usage:
//
//	wsnsweep -out dataset.csv                   # scaled default (500 pkts/config)
//	wsnsweep -out full.csv -packets 4500        # paper-scale statistics
//	wsnsweep -out quick.csv -distances 35 -powers 31 -payloads 110 -progress
//	wsnsweep -out full.csv -checkpoint full.ckpt    # restartable campaign
//	wsnsweep -out full.csv -checkpoint full.ckpt -resume   # continue it
//	wsnsweep -out full.csv -pprof localhost:6060    # live profiling/telemetry
//	wsnsweep -out full.csv -trace-out full.trace.json -trace-sample 16
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wsnlink/internal/adaptive"
	"wsnlink/internal/buildinfo"
	"wsnlink/internal/obs"
	"wsnlink/internal/phy"
	"wsnlink/internal/scenario"
	"wsnlink/internal/serve"
	"wsnlink/internal/sim"
	"wsnlink/internal/stack"
	"wsnlink/internal/sweep"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "wsnsweep:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("wsnsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out         = fs.String("out", "dataset.csv", "output CSV path ('-' for stdout)")
		packets     = fs.Int("packets", 500, "packets per configuration (paper: 4500)")
		seed        = fs.Uint64("seed", 1, "base RNG seed")
		fullDES     = fs.Bool("des", false, "use the full event-driven simulator")
		crn         = fs.Bool("crn", false, "common random numbers: run every configuration under the same derived seed")
		workers     = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		batchSize   = fs.Int("batch", 0, "configurations per batch-kernel call on the fast engine (0 = default 64)")
		progress    = fs.Bool("progress", false, "print progress to stderr")
		distances   = fs.String("distances", "", "comma-separated distance subset, e.g. 5,35")
		powers      = fs.String("powers", "", "comma-separated TX power-level subset, e.g. 31")
		payloads    = fs.String("payloads", "", "comma-separated payload-bytes subset, e.g. 20,110")
		checkpoint  = fs.String("checkpoint", "", "checkpoint sidecar path (enables restartable runs)")
		resume      = fs.Bool("resume", false, "continue from the checkpoint (default sidecar: <out>.ckpt)")
		manifest    = fs.String("manifest", "", "run manifest path (default: <out>.manifest.json; 'none' disables)")
		metricsOut  = fs.String("metrics-out", "", "write the final telemetry snapshot JSON to this path")
		pprofAddr   = fs.String("pprof", "", "serve /debug/pprof, /debug/vars and /debug/campaign on this address, e.g. localhost:6060")
		traceOut    = fs.String("trace-out", "", "write per-packet lifecycle trace here (.json = Chrome trace, .ndjson = NDJSON)")
		traceSample = fs.Int("trace-sample", 1, "trace every Nth configuration (with -trace-out)")
		remote      = fs.String("remote", "", "run the campaign on a wsnlinkd daemon at this base URL, e.g. http://localhost:8080")
		version     = fs.Bool("version", false, "print version and exit")

		adaptiveOn   = fs.Bool("adaptive", false, "adaptive campaign: explore the grid under an evaluation budget instead of sweeping it (link scenario only; forces -crn)")
		budget       = fs.Int("budget", 0, "adaptive: maximum configurations to evaluate (0 = max(16, grid/10))")
		tolerance    = fs.Float64("tolerance", 0, "adaptive: relative hypervolume change counted as stable (0 = 0.01)")
		initDesign   = fs.Int("adaptive-initial", 0, "adaptive: seed-design size (0 = max(8, budget/4))")
		roundSize    = fs.Int("round-size", 0, "adaptive: configurations per EI round (0 = max(4, budget/16))")
		stableRounds = fs.Int("stable-rounds", 0, "adaptive: consecutive stable rounds that stop the exploration (0 = 3)")
		strategy     = fs.String("strategy", "", "adaptive: acquisition strategy, ei (default) or halving")
		halvingEta   = fs.Int("halving-eta", 0, "adaptive: successive-halving cohort shrink factor (0 = 2)")

		scenarioKind = fs.String("scenario", "", "campaign scenario: link (default), star, interference, lpl, mobility")
		nodes        = fs.Int("nodes", 0, "star: contending senders (0 = default 2)")
		wakeInterval = fs.Float64("wake-interval", 0, "lpl: receiver wake interval in seconds (0 = default 0.25)")
		interfDuty   = fs.Float64("interference-duty", 0, "interference: interferer ON fraction (0 = default 0.2)")
		interfPower  = fs.Float64("interference-power", 0, "interference: interferer power at the victim in dBm (0 = default -80)")
		speedMax     = fs.Float64("speed-max", 0, "mobility: maximum leg speed in m/s (0 = default 1.5)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, "wsnsweep", buildinfo.Current())
		return nil
	}

	space := stack.DefaultSpace()
	if *distances != "" {
		ds, err := parseFloats(*distances)
		if err != nil {
			return fmt.Errorf("bad -distances: %w", err)
		}
		space.DistancesM = ds
	}
	if *powers != "" {
		ps, err := parseInts(*powers)
		if err != nil {
			return fmt.Errorf("bad -powers: %w", err)
		}
		space.TxPowers = space.TxPowers[:0]
		for _, p := range ps {
			space.TxPowers = append(space.TxPowers, phy.PowerLevel(p))
		}
	}
	if *payloads != "" {
		ls, err := parseInts(*payloads)
		if err != nil {
			return fmt.Errorf("bad -payloads: %w", err)
		}
		space.PayloadsBytes = ls
	}
	if err := space.Validate(); err != nil {
		return err
	}
	cfgs := space.All()

	scn, err := buildScenarioSpec(*scenarioKind, *nodes, *wakeInterval, *interfDuty, *interfPower, *speedMax)
	if err != nil {
		return err
	}

	aParams := adaptive.Params{
		Budget:        *budget,
		InitialDesign: *initDesign,
		RoundSize:     *roundSize,
		Tolerance:     *tolerance,
		StableRounds:  *stableRounds,
		Strategy:      *strategy,
		HalvingEta:    *halvingEta,
	}
	if *adaptiveOn {
		if scn.Kind != scenario.KindLink {
			return fmt.Errorf("-adaptive supports only the link scenario (got %q)", scn.Kind)
		}
		if *traceOut != "" {
			return errors.New("-trace-out is not valid with -adaptive")
		}
		if err := aParams.Normalize(len(cfgs)); err != nil {
			return err
		}
	} else if aParams != (adaptive.Params{}) {
		return errors.New("-budget, -tolerance and the other exploration knobs require -adaptive")
	}

	if *remote != "" {
		// The daemon owns durability and telemetry for remote campaigns:
		// its spool checkpoints every row and its /debug endpoints serve
		// the live metrics, so the local-run observability flags have
		// nothing to attach to.
		if *checkpoint != "" || *resume {
			return errors.New("-checkpoint/-resume are not valid with -remote: the daemon checkpoints server-side and streams resume by row index")
		}
		if *pprofAddr != "" || *metricsOut != "" || *traceOut != "" {
			return errors.New("-pprof, -metrics-out and -trace-out are not valid with -remote: use the daemon's /debug endpoints")
		}
		if *manifest != "" && *manifest != "none" {
			return errors.New("-manifest is not valid with -remote: the daemon keeps the durable job record")
		}
		spec := serve.CampaignSpec{
			Space:     serve.SpaceSpecFor(space),
			Packets:   *packets,
			BaseSeed:  *seed,
			FullDES:   *fullDES,
			CRN:       *crn,
			Workers:   *workers,
			BatchSize: *batchSize,
			Scenario:  string(scn.Kind),
			Star:      scn.Star, Interference: scn.Interference,
			LPL: scn.LPL, Mobility: scn.Mobility,
		}
		if *adaptiveOn {
			spec.Mode = serve.ModeAdaptive
			p := aParams
			spec.Adaptive = &p
		}
		return runRemote(ctx, *remote, spec, scn.Kind, *out, *progress, stdout, stderr)
	}

	if *resume {
		if *out == "-" {
			return errors.New("-resume requires a file output, not stdout")
		}
		if *checkpoint == "" {
			*checkpoint = *out + ".ckpt"
		}
	}
	switch {
	case *manifest == "none":
		*manifest = ""
	case *manifest == "" && *out != "-":
		*manifest = *out + ".manifest.json"
	}

	opts := sweep.RunOptions{
		Packets:     *packets,
		BaseSeed:    *seed,
		CRN:         *crn,
		Workers:     *workers,
		BatchSize:   *batchSize,
		Checkpoint:  *checkpoint,
		Resume:      *resume,
		TraceSample: *traceSample,
	}
	if *fullDES {
		opts.Engine = sim.EngineDES
	}
	aopts := adaptive.Options{
		Params:     aParams,
		Packets:    *packets,
		BaseSeed:   *seed,
		Engine:     opts.Engine,
		Workers:    *workers,
		BatchSize:  *batchSize,
		Checkpoint: *checkpoint,
		Resume:     *resume,
	}

	// Telemetry is armed whenever something consumes it (manifest,
	// snapshot dump, or the live debug endpoint); otherwise the engine
	// runs on the allocation-free nil path. Same for the event tracer:
	// without -trace-out every emission site stays a nil pointer test.
	if *manifest != "" || *metricsOut != "" || *pprofAddr != "" {
		opts.Metrics = obs.New()
	}
	if *traceOut != "" {
		opts.Tracer = obs.NewTracer(obs.DefaultTraceCapacity)
	}
	var prog sweep.Progress
	opts.Progress = &prog
	aopts.Metrics = opts.Metrics
	aopts.Progress = &prog
	if *pprofAddr != "" {
		obs.PublishExpvar("wsnsweep", opts.Metrics)
		fpv := campaignFP(scn, cfgs, opts)
		if *adaptiveOn {
			fpv = adaptive.Fingerprint(cfgs, aopts)
		}
		fp := obs.FormatFingerprint(fpv)
		obs.PublishCampaign(func() obs.CampaignStatus {
			ps := prog.Snapshot()
			return obs.CampaignStatus{
				Campaign: fp,
				Done:     ps.Done,
				Total:    ps.Total,
				Errors:   ps.Errors,
				Metrics:  opts.Metrics.Snapshot(),
				Trace:    opts.Tracer.Stats(),
			}
		})
		dbg, err := obs.ServeDebug(*pprofAddr)
		if err != nil {
			return err
		}
		defer dbg.Close()
		// Release the listener as soon as the run is interrupted, giving
		// in-flight debug requests a short grace instead of holding the
		// port until the sweep's cleanup finishes.
		stopDbg := make(chan struct{})
		defer close(stopDbg)
		go func() {
			select {
			case <-ctx.Done():
				shCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				dbg.Shutdown(shCtx) //nolint:errcheck // best-effort diagnostics teardown
			case <-stopDbg:
			}
		}()
		fmt.Fprintf(stderr, "debug server on http://%s/debug/campaign (pprof: /debug/pprof, telemetry: /debug/vars)\n", dbg.Addr)
	}

	// Open the output and position the codec. On resume, only the
	// checkpointed prefix of the existing CSV is trusted: the file is
	// rewritten to exactly that prefix (a crash can leave a torn extra
	// row), then streaming appends continue after it. The codec picks the
	// dataset schema — legacy 30-column link CSV, byte-for-byte unchanged,
	// or the wider scenario schema for the other kinds.
	codec := newCampaignCodec(scn)
	done := 0
	if *out == "-" {
		codec.Bind(stdout)
		if err := codec.WriteHeader(); err != nil {
			return err
		}
	} else {
		if *resume {
			ck, err := sweep.LoadCheckpoint(*checkpoint)
			if err != nil {
				return fmt.Errorf("load checkpoint: %w", err)
			}
			// Read the trusted prefix before os.Create truncates the file.
			if err := codec.ReadPrefix(*out, ck.Done); err != nil {
				return err
			}
			done = ck.Done
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		codec.Bind(f)
		if err := codec.WriteHeader(); err != nil {
			return err
		}
		if err := codec.WritePrefix(); err != nil {
			return err
		}
	}

	if *adaptiveOn {
		fmt.Fprintf(stderr, "adaptively exploring up to %d of %d configurations x %d packets (strategy %s)",
			aParams.Budget, len(cfgs), *packets, aParams.Strategy)
	} else {
		fmt.Fprintf(stderr, "sweeping %d configurations (%d per distance) x %d packets",
			len(cfgs), space.SettingsPerDistance(), *packets)
	}
	if done > 0 {
		fmt.Fprintf(stderr, " (resuming after %d)", done)
	}
	fmt.Fprintln(stderr)

	if *progress {
		total := len(cfgs)
		if *adaptiveOn {
			total = aParams.Budget
		}
		stopProgress := make(chan struct{})
		defer close(stopProgress)
		go func() {
			t := time.NewTicker(500 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					s := prog.Snapshot()
					fmt.Fprintf(stderr, "\r%d/%d configurations (%d errors)",
						s.Done, total, s.Errors)
				case <-stopProgress:
					return
				}
			}
		}()
	}

	wallStart := time.Now()
	var ares *adaptive.Result
	if *adaptiveOn {
		// The explorer owns the checkpoint and the evaluation order; the
		// link codec only formats rows. The prefix read on -resume replays
		// through the explorer, which verifies every row against the
		// trajectory it re-derives.
		lc := codec.(*linkCodec)
		aopts.ResumeRows = lc.prefix
		ares, err = adaptive.Stream(ctx, space, aopts, func(r sweep.Row) error {
			if err := lc.enc.Encode(r); err != nil {
				return err
			}
			if err := lc.enc.Flush(); err != nil {
				return err
			}
			return rowGate.Pass(ctx, lc.enc.Rows()-1)
		})
	} else {
		err = codec.Stream(ctx, cfgs, opts)
	}
	wall := time.Since(wallStart)
	if *progress {
		fmt.Fprintln(stderr)
	}
	if *metricsOut != "" {
		// Dump telemetry even for an interrupted run — partial campaigns
		// are exactly when the stage breakdown is wanted.
		if werr := writeSnapshot(*metricsOut, opts.Metrics.Snapshot()); werr != nil {
			if err == nil {
				err = werr
			} else {
				fmt.Fprintln(stderr, "wsnsweep:", werr)
			}
		}
	}
	if *traceOut != "" {
		// Same for the lifecycle trace: an interrupted campaign's events
		// are often the reason it is being debugged.
		if werr := writeTraceFile(*traceOut, opts.Tracer, stderr); werr != nil {
			if err == nil {
				err = werr
			} else {
				fmt.Fprintln(stderr, "wsnsweep:", werr)
			}
		}
	}
	if err != nil {
		if errors.Is(err, context.Canceled) && *checkpoint != "" {
			fmt.Fprintf(stderr, "interrupted after %d rows; continue with -resume -checkpoint %s\n",
				codec.Rows(), *checkpoint)
		}
		return err
	}
	fmt.Fprintf(stderr, "wrote %d rows to %s\n", codec.Rows(), *out)
	if ares != nil {
		fmt.Fprintf(stderr, "explored %d of %d configurations in %d rounds (converged=%v, front size %d, hypervolume %.4f)\n",
			ares.Evaluations, ares.GridSize, len(ares.Rounds), ares.Converged, len(ares.Front), ares.Hypervolume)
	}

	if *manifest != "" {
		man := buildManifest(scn, space, cfgs, opts, *resume, done, codec.Rows(), wall, *traceOut)
		if ares != nil {
			// The adaptive campaign identity replaces the exhaustive one:
			// the manifest fingerprint must match the checkpoint sidecar,
			// which the explorer stamped with the adaptive namespace.
			man.Fingerprint = obs.FormatFingerprint(adaptive.Fingerprint(cfgs, aopts))
			man.Adaptive = adaptiveManifestBlock(aParams, ares)
		}
		if err := man.WriteFile(*manifest); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote manifest to %s\n", *manifest)
	}
	return nil
}

// adaptiveManifestBlock renders the exploration summary for the manifest:
// the normalized knobs plus the trajectory's outcome, enough to judge the
// run (budget fraction, convergence, front quality) without the dataset.
func adaptiveManifestBlock(p adaptive.Params, res *adaptive.Result) json.RawMessage {
	blk := struct {
		Params      adaptive.Params `json:"params"`
		GridSize    int             `json:"grid_size"`
		Evaluations int             `json:"evaluations"`
		Rounds      int             `json:"rounds"`
		Converged   bool            `json:"converged"`
		FrontSize   int             `json:"front_size"`
		Hypervolume float64         `json:"hypervolume"`
	}{p, res.GridSize, res.Evaluations, len(res.Rounds), res.Converged, len(res.Front), res.Hypervolume}
	data, err := json.Marshal(blk)
	if err != nil {
		return nil
	}
	return data
}

// runRemote submits the campaign to a wsnlinkd daemon and streams the rows
// into the local output, reconnecting with index-based resume if the
// connection drops. The daemon deduplicates by campaign fingerprint, so an
// identical earlier campaign is served straight from its result cache.
// Link campaigns land in the legacy CSV schema; other scenario kinds land
// in the scenario schema, matching a local run of the same spec.
func runRemote(ctx context.Context, baseURL string, spec serve.CampaignSpec, kind scenario.Kind, out string, progress bool, stdout, stderr io.Writer) error {
	var w io.Writer = stdout
	closeOut := func() error { return nil }
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		closeOut = f.Close
		w = f
	}
	var (
		writeHeader func() error
		encodeRow   func(serve.StreamedRow) error
		flush       func() error
		rows        func() int
	)
	if kind == scenario.KindLink {
		enc := sweep.NewEncoder(w)
		writeHeader = enc.WriteHeader
		encodeRow = func(r serve.StreamedRow) error { return enc.Encode(r.Row) }
		flush, rows = enc.Flush, enc.Rows
	} else {
		enc := sweep.NewScenarioEncoder(w)
		writeHeader = enc.WriteHeader
		encodeRow = func(r serve.StreamedRow) error { return enc.Encode(r.ScenarioRow()) }
		flush, rows = enc.Flush, enc.Rows
	}
	if err := writeHeader(); err != nil {
		closeOut() //nolint:errcheck // the write error wins
		return err
	}

	total := spec.Space.Space().Size()
	fmt.Fprintf(stderr, "submitting %d configurations x %d packets to %s\n", total, spec.Packets, baseURL)
	st, err := serve.NewClient(baseURL).Run(ctx, spec, func(r serve.StreamedRow) error {
		if err := encodeRow(r); err != nil {
			return err
		}
		if progress && (r.Index+1)%100 == 0 {
			fmt.Fprintf(stderr, "\r%d/%d rows", r.Index+1, total)
		}
		return nil
	})
	if progress {
		fmt.Fprintln(stderr)
	}
	if ferr := flush(); err == nil {
		err = ferr
	}
	if cerr := closeOut(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if st.CacheHit {
		fmt.Fprintf(stderr, "served from the daemon's result cache (campaign %s)\n", st.Fingerprint)
	}
	fmt.Fprintf(stderr, "wrote %d rows to %s (job %s, fingerprint %s)\n", rows(), out, st.ID, st.Fingerprint)
	return nil
}

// buildScenarioSpec maps the scenario CLI flags onto a normalized
// scenario.Spec. A parameter block is attached only when one of its flags
// was set, so Normalize both fills the remaining defaults and rejects
// flags that don't belong to the selected kind (e.g. -nodes with
// -scenario lpl).
func buildScenarioSpec(kind string, nodes int, wake, duty, power, speedMax float64) (scenario.Spec, error) {
	s := scenario.Spec{Kind: scenario.Kind(kind)}
	if nodes != 0 {
		s.Star = &scenario.StarParams{Nodes: nodes}
	}
	if wake != 0 {
		s.LPL = &scenario.LPLParams{WakeIntervalS: wake}
	}
	if duty != 0 || power != 0 {
		s.Interference = &scenario.InterferenceParams{DutyCycle: duty, PowerAtVictimDBm: power}
	}
	if speedMax != 0 {
		s.Mobility = &scenario.MobilityParams{SpeedMaxMPS: speedMax}
	}
	if err := s.Normalize(); err != nil {
		return scenario.Spec{}, err
	}
	return s, nil
}

// campaignFP is the scenario-aware campaign identity: link campaigns keep
// the legacy link fingerprint (existing checkpoints and daemon cache
// entries stay valid), other kinds hash the scenario namespace. Either way
// it matches the fingerprint the engine stamps into the checkpoint sidecar.
func campaignFP(scn scenario.Spec, cfgs []stack.Config, opts sweep.RunOptions) uint64 {
	if scn.Kind == scenario.KindLink {
		return sweep.CampaignFingerprint(cfgs, opts)
	}
	fp, err := sweep.ScenarioFingerprint(scn, cfgs, opts)
	if err != nil {
		// scn was normalized at flag parsing and Normalize is idempotent.
		panic("wsnsweep: fingerprint spec: " + err.Error())
	}
	return fp
}

// scenarioParams renders the active parameter block as canonical JSON for
// the manifest; nil for link campaigns, which have no block.
func scenarioParams(scn scenario.Spec) json.RawMessage {
	var v any
	switch {
	case scn.Star != nil:
		v = scn.Star
	case scn.Interference != nil:
		v = scn.Interference
	case scn.LPL != nil:
		v = scn.LPL
	case scn.Mobility != nil:
		v = scn.Mobility
	default:
		return nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	return data
}

// rowGate parks a run after a given written row (tests only; see
// sweep.RowGate).
var rowGate *sweep.RowGate

// campaignCodec abstracts the dataset schema over the two row shapes so
// run() streams, resumes and counts rows without caring which simulator
// family produced them. ReadPrefix must be called before the output file
// is truncated; Bind attaches the destination writer.
type campaignCodec interface {
	Bind(w io.Writer)
	WriteHeader() error
	ReadPrefix(path string, done int) error
	WritePrefix() error
	Stream(ctx context.Context, cfgs []stack.Config, opts sweep.RunOptions) error
	Rows() int
}

// newCampaignCodec picks the schema for the campaign: the link kind keeps
// the legacy CSV (and the legacy checkpoint fingerprint inside
// StreamConfigs); every other kind streams the scenario schema.
func newCampaignCodec(scn scenario.Spec) campaignCodec {
	if scn.Kind == scenario.KindLink {
		return &linkCodec{}
	}
	return &scenarioCodec{spec: scn}
}

// linkCodec streams the legacy 30-column link dataset.
type linkCodec struct {
	enc    *sweep.Encoder
	prefix []sweep.Row
}

func (c *linkCodec) Bind(w io.Writer)   { c.enc = sweep.NewEncoder(w) }
func (c *linkCodec) WriteHeader() error { return c.enc.WriteHeader() }
func (c *linkCodec) Rows() int          { return c.enc.Rows() }

func (c *linkCodec) ReadPrefix(path string, done int) error {
	rows, err := readPrefix(path, done)
	if err != nil {
		return err
	}
	c.prefix = rows
	return nil
}

func (c *linkCodec) WritePrefix() error {
	for _, r := range c.prefix {
		if err := c.enc.Encode(r); err != nil {
			return err
		}
	}
	return c.enc.Flush()
}

func (c *linkCodec) Stream(ctx context.Context, cfgs []stack.Config, opts sweep.RunOptions) error {
	return sweep.StreamConfigs(ctx, cfgs, opts, func(r sweep.Row) error {
		if err := c.enc.Encode(r); err != nil {
			return err
		}
		// Flush before the engine checkpoints the row, so the CSV is
		// always at least as long as the checkpoint says.
		if err := c.enc.Flush(); err != nil {
			return err
		}
		return rowGate.Pass(ctx, c.enc.Rows()-1)
	})
}

// scenarioCodec streams the scenario dataset schema (scenario column, link
// columns, network columns) with the same resume contract as linkCodec.
type scenarioCodec struct {
	spec   scenario.Spec
	enc    *sweep.ScenarioEncoder
	prefix []scenario.Row
}

func (c *scenarioCodec) Bind(w io.Writer)   { c.enc = sweep.NewScenarioEncoder(w) }
func (c *scenarioCodec) WriteHeader() error { return c.enc.WriteHeader() }
func (c *scenarioCodec) Rows() int          { return c.enc.Rows() }

func (c *scenarioCodec) ReadPrefix(path string, done int) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) && done == 0 {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	rows, err := sweep.ReadScenarioCSVHead(f, done)
	if err != nil {
		return fmt.Errorf("existing dataset %s: %w", path, err)
	}
	if len(rows) < done {
		return fmt.Errorf("dataset %s has %d rows but checkpoint records %d; "+
			"delete both to restart", path, len(rows), done)
	}
	c.prefix = rows
	return nil
}

func (c *scenarioCodec) WritePrefix() error {
	for _, r := range c.prefix {
		if err := c.enc.Encode(r); err != nil {
			return err
		}
	}
	return c.enc.Flush()
}

func (c *scenarioCodec) Stream(ctx context.Context, cfgs []stack.Config, opts sweep.RunOptions) error {
	return sweep.StreamScenarios(ctx, c.spec, cfgs, opts, func(r scenario.Row) error {
		if err := c.enc.Encode(r); err != nil {
			return err
		}
		// Same flush-before-checkpoint ordering as the link path.
		if err := c.enc.Flush(); err != nil {
			return err
		}
		return rowGate.Pass(ctx, c.enc.Rows()-1)
	})
}

// buildManifest assembles the run's reproducibility record. The volatile
// fields (wall time, rates inside the metric snapshot) differ between
// runs; the identity fields (fingerprint, seed, space, rows) are what a
// kill-and-resume run must reproduce exactly.
func buildManifest(scn scenario.Spec, space stack.Space, cfgs []stack.Config, opts sweep.RunOptions,
	resumed bool, resumedFrom, rows int, wall time.Duration, tracePath string) obs.Manifest {
	man := obs.Manifest{
		Schema:         obs.ManifestSchema,
		Tool:           "wsnsweep",
		GoVersion:      runtime.Version(),
		Provenance:     buildProvenance(),
		Fingerprint:    obs.FormatFingerprint(campaignFP(scn, cfgs, opts)),
		Scenario:       string(scn.Kind),
		ScenarioParams: scenarioParams(scn),
		BaseSeed:       opts.BaseSeed,
		Packets:        opts.Packets,
		Fast:           opts.Engine == sim.EngineFast,
		Configs:        len(cfgs),
		Rows:           rows,
		Resumed:        resumed,
		ResumedFrom:    resumedFrom,
		Axes:           spaceAxes(space),
		WallTimeS:      wall.Seconds(),
	}
	if opts.Metrics != nil {
		snap := opts.Metrics.Snapshot()
		man.Metrics = &snap
	}
	if opts.Tracer != nil {
		st := opts.Tracer.Stats()
		man.TracePath = tracePath
		man.TraceSample = opts.TraceSample
		man.TraceEvents = st.Events
		man.TraceDropped = st.Dropped
	}
	return man
}

// buildProvenance maps the binary's embedded build info onto the manifest's
// provenance block; nil when nothing beyond the Go version is known (e.g. a
// test binary), so such manifests simply omit the block.
func buildProvenance() *obs.Provenance {
	b := buildinfo.Current()
	if b.Version == "" && b.Revision == "" {
		return nil
	}
	return &obs.Provenance{
		Version:     b.Version,
		VCSRevision: b.Revision,
		VCSTime:     b.Time,
		VCSModified: b.Modified,
	}
}

// writeTraceFile exports the collected lifecycle events, picking the format
// from the path extension (see obs.WriteTrace).
func writeTraceFile(path string, tr *obs.Tracer, stderr io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	events := tr.Events()
	if err := obs.WriteTrace(f, path, events); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if d := tr.Dropped(); d > 0 {
		fmt.Fprintf(stderr, "wrote %d trace events to %s (%d evicted from the ring; raise -trace-sample)\n",
			len(events), path, d)
	} else {
		fmt.Fprintf(stderr, "wrote %d trace events to %s\n", len(events), path)
	}
	return nil
}

// spaceAxes summarizes the swept parameter space for the manifest.
func spaceAxes(s stack.Space) []obs.Axis {
	fs := func(vs []float64) string {
		parts := make([]string, len(vs))
		for i, v := range vs {
			parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		return strings.Join(parts, ",")
	}
	is := func(vs []int) string {
		parts := make([]string, len(vs))
		for i, v := range vs {
			parts[i] = strconv.Itoa(v)
		}
		return strings.Join(parts, ",")
	}
	ps := make([]int, len(s.TxPowers))
	for i, p := range s.TxPowers {
		ps[i] = int(p)
	}
	return []obs.Axis{
		{Name: "distance_m", Count: len(s.DistancesM), Values: fs(s.DistancesM)},
		{Name: "tx_power", Count: len(s.TxPowers), Values: is(ps)},
		{Name: "max_tries", Count: len(s.MaxTries), Values: is(s.MaxTries)},
		{Name: "retry_delay_s", Count: len(s.RetryDelays), Values: fs(s.RetryDelays)},
		{Name: "queue_cap", Count: len(s.QueueCaps), Values: is(s.QueueCaps)},
		{Name: "pkt_interval_s", Count: len(s.PktIntervals), Values: fs(s.PktIntervals)},
		{Name: "payload_bytes", Count: len(s.PayloadsBytes), Values: is(s.PayloadsBytes)},
	}
}

// writeSnapshot dumps a telemetry snapshot as indented JSON.
func writeSnapshot(path string, snap obs.Snapshot) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("encode metrics snapshot: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func parseFloats(csv string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(csv, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return nil, fmt.Errorf("value %q: %w", tok, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("value %q: %w", tok, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// readPrefix returns the first done rows of an existing dataset; a missing
// file is fine when nothing was checkpointed yet.
func readPrefix(path string, done int) ([]sweep.Row, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) && done == 0 {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := sweep.ReadCSVHead(f, done)
	if err != nil {
		return nil, fmt.Errorf("existing dataset %s: %w", path, err)
	}
	if len(rows) < done {
		return nil, fmt.Errorf("dataset %s has %d rows but checkpoint records %d; "+
			"delete both to restart", path, len(rows), done)
	}
	return rows, nil
}
