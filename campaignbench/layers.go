package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"wsnlink/internal/fabric"
	"wsnlink/internal/obs"
	"wsnlink/internal/serve"
	"wsnlink/internal/sim"
	"wsnlink/internal/stack"
	"wsnlink/internal/sweep"
)

// layers gathers the per-layer metrics of a traced run: the ledger of the
// traced window's spans, and probes that call each layer's public
// functions directly, every call recorded as a span.
type layers struct {
	w    workload
	seed uint64
	env  *env
	tr   *tracer
	dir  string
	logs io.Writer
	out  []metric
	// extra are table-only lines (consistency checks, context).
	extra []metric
}

func (l *layers) set(name, unit string, v float64, note string) {
	l.out = append(l.out, metric{name: name, unit: unit, value: v, note: note})
}

func (l *layers) report(res *result) {
	res.metrics = append(res.metrics, l.out...)
	res.extra = append(res.extra, l.extra...)
}

// probeSpan records one probe call as a child of parent.
func (l *layers) probeSpan(name string, parent int, start time.Time) time.Duration {
	end := time.Now()
	l.tr.add(name, parent, "", start, end)
	return end.Sub(start)
}

func (l *layers) collect(ctx context.Context, plain, traced windows) error {
	l.ledger(plain, traced)
	steps := []struct {
		name string
		fn   func(context.Context, int) error
	}{
		{"probe.sim", l.probeSim},
		{"probe.sweep", l.probeSweep},
		{"probe.persist", l.probePersist},
		{"probe.serve", l.probeServe},
		{"probe.fabric", l.probeFabric},
	}
	for _, s := range steps {
		t0 := time.Now()
		id := l.tr.add(s.name, 0, "", t0, t0)
		if err := s.fn(ctx, id); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		l.tr.finish(id)
	}
	return nil
}

// ledger attributes the traced window's client wall time to layers by the
// self time of its spans, adds the service's own job intervals and stage
// timers under them, and reports the tracing overhead.
func (l *layers) ledger(plain, traced windows) {
	front := l.env.front.srv
	execs := make(map[string]execCall)
	if l.env.exec != nil {
		for _, c := range l.env.exec.snapshot() {
			execs[c.id] = c
		}
	}
	var persist, engine, hits, total float64
	var waits []float64
	for _, c := range append(plain.campaigns(), traced.campaigns()...) {
		if c.failed() {
			continue
		}
		total++
		st, err := front.Status(c.id)
		if err != nil {
			continue
		}
		if st.CacheHit {
			hits++
			continue
		}
		waits = append(waits, float64(st.StartedMs-st.CreatedMs))
		if c.span == 0 { // an untraced slice
			continue
		}
		// The service stamps jobs in whole milliseconds; clip its
		// intervals to the stream span they sit under, so the ledger lines
		// partition the client's wall time.
		in := func(ms int64) time.Time { return clampTime(time.UnixMilli(ms), c.submitted, c.end) }
		l.tr.add("serve.queue", c.span, c.id, in(st.CreatedMs), in(st.StartedMs))
		job := l.tr.add("serve.job", c.span, c.id, in(st.StartedMs), in(st.FinishedMs))
		if x, ok := execs[c.id]; ok {
			l.tr.add("fabric.execute", job, c.id, clampTime(x.start, c.submitted, c.end), clampTime(x.end, c.submitted, c.end))
		}
		if m := st.Metrics; m != nil {
			// Only the emitter's stages are on the job's critical path:
			// dispatch runs on its own goroutine and mostly waits for
			// window tokens.
			persist += m.Stage("yield").Seconds + m.Stage("checkpoint").Seconds
			engine += m.Stage("reorder").Seconds
		}
	}
	// Kernel busy time: the simulate stage of every job any in-process
	// daemon started during the traced window (runners included).
	var simS float64
	for _, srv := range l.env.servers() {
		for _, st := range srv.List() {
			if st.Metrics != nil && traced.covers(st.StartedMs) {
				simS += st.Metrics.Stage("simulate").Seconds
			}
		}
	}
	wall := traced.wall().Seconds() * float64(l.w.clients)
	self := selfTimes(l.tr.snapshot())
	share := func(d time.Duration) float64 { return d.Seconds() / wall }
	jobSelf := self["serve.job"].Seconds()
	pShare := min(persist, jobSelf)
	eShare := min(engine, max(jobSelf-pShare, 0))
	var campaigns, verify time.Duration
	for _, c := range traced.campaigns() {
		campaigns += c.end.Sub(c.start)
		verify += c.verify
	}
	l.set("ledger.submit_share", "share", share(self["client.submit"]), "Client.Submit self time")
	l.set("ledger.queue_share", "share", share(self["serve.queue"]), "job created to started")
	l.set("ledger.job_persist_share", "share", pShare/wall, "emitter time in spool encode+flush and checkpoint append")
	l.set("ledger.job_engine_share", "share", eShare/wall, "emitter reorder bookkeeping")
	l.set("ledger.job_kernel_share", "share", (jobSelf-pShare-eShare)/wall, "rest of the job: waiting on the kernel (or the coordinator's spool work)")
	l.set("ledger.fabric_share", "share", share(self["fabric.execute"]), "ExecuteCampaign self time")
	l.set("ledger.stream_share", "share", share(self["client.stream"]), "stream not under the job: tail, wire, client decode, oracle")
	l.set("ledger.campaign_share", "share", share(self["campaign"]), "inside a campaign, outside submit and stream")
	l.set("ledger.remainder_share", "share", 1-campaigns.Seconds()/wall, "client wall outside every campaign span")
	var sum float64
	for _, m := range l.out {
		if strings.HasPrefix(m.name, "ledger.") {
			sum += m.value
		}
	}
	l.extra = append(l.extra, metric{name: "ledger.total_share", unit: "share", value: sum, note: "the lines above sum to the traced window's client wall time"})
	l.extra = append(l.extra, metric{name: "ledger.oracle_share", unit: "share", value: verify.Seconds() / wall, note: "the benchmark's digesting inside the stream (part of the lines above)"})
	l.set("sim.busy_share", "share", simS/(traced.wall().Seconds()*float64(runtime.GOMAXPROCS(0))), "simulate stage / (cores × traced window)")

	sort.Float64s(waits)
	l.set("serve.queue_wait_ms_p50", "ms", percentile(waits, 0.5), fmt.Sprintf("n=%d", len(waits)))
	l.set("serve.queue_wait_ms_p90", "ms", percentile(waits, 0.9), tailNote(len(waits), 0.9))
	l.set("serve.cache_hit_ratio", "share", hits/total, fmt.Sprintf("%.0f of %.0f campaigns", hits, total))
	pr := float64(plain.rows()) / plain.wall().Seconds()
	trr := float64(traced.rows()) / traced.wall().Seconds()
	l.set("trace.overhead_share", "share", 1-trr/pr, fmt.Sprintf("untraced %.0f rows/s, traced %.0f rows/s", pr, trr))
}

func clampTime(t, lo, hi time.Time) time.Time {
	if t.Before(lo) {
		return lo
	}
	if t.After(hi) {
		return hi
	}
	return t
}

// probeConfigs returns the workload's configurations (with their campaign
// seeds) in submission order, n of them.
func (l *layers) probeConfigs(n int) ([]stack.Config, []uint64) {
	s := newStream(l.w, l.seed^tag("probe"), 0)
	var cfgs []stack.Config
	var seeds []uint64
	for len(cfgs) < n {
		spec := s.next().spec
		for i, c := range spec.Space.Space().All() {
			cfgs = append(cfgs, c)
			seeds = append(seeds, sim.DeriveSeed(spec.BaseSeed, i))
		}
	}
	return cfgs[:n], seeds[:n]
}

const (
	simBlock  = 64
	simBlocks = 128
)

// probeSim runs the batch kernel single-threaded over the workload's
// configurations in 64-config blocks.
func (l *layers) probeSim(ctx context.Context, parent int) error {
	cfgs, seeds := l.probeConfigs(simBlock * simBlocks)
	arena := sim.NewBatchArena()
	var blocks []float64
	var busy time.Duration
	for b := 0; b < simBlocks; b++ {
		lo, hi := b*simBlock, (b+1)*simBlock
		t0 := time.Now()
		_, _, err := sim.RunBatch(ctx, cfgs[lo:hi], sim.BatchOptions{Packets: l.w.packets, Seeds: seeds[lo:hi], Arena: arena})
		d := l.probeSpan("sim.RunBatch", parent, t0)
		if err != nil {
			return err
		}
		busy += d
		blocks = append(blocks, us(d))
	}
	sort.Float64s(blocks)
	l.set("sim.configs_per_s", "configs/s", float64(len(cfgs))/busy.Seconds(), fmt.Sprintf("%d configs × %d packets, 1 thread", len(cfgs), l.w.packets))
	l.set("sim.block_us_p50", "us", percentile(blocks, 0.5), fmt.Sprintf("n=%d blocks", len(blocks)))
	l.set("sim.block_us_p90", "us", percentile(blocks, 0.9), tailNote(len(blocks), 0.9))
	return nil
}

// probeSweep streams the workload's configurations through the engine with
// a no-op yield, the daemon's worker count, a checkpoint sidecar and the
// obs stage timers.
func (l *layers) probeSweep(ctx context.Context, parent int) error {
	cfgs, _ := l.probeConfigs(4096)
	m := obs.New()
	opts := sweep.RunOptions{
		Packets:    l.w.packets,
		BaseSeed:   l.seed,
		Workers:    runtime.GOMAXPROCS(0),
		Metrics:    m,
		Checkpoint: filepath.Join(l.dir, "probe-sweep.ckpt"),
	}
	t0 := time.Now()
	err := sweep.StreamConfigs(ctx, cfgs, opts, func(sweep.Row) error { return nil })
	d := l.probeSpan("sweep.StreamConfigs", parent, t0)
	if err != nil {
		return err
	}
	// The same stream without the obs hub: the daemon always passes one,
	// and the kernel then also records its per-packet pipeline stages.
	opts.Metrics = nil
	t0 = time.Now()
	err = sweep.StreamConfigs(ctx, cfgs, opts, func(sweep.Row) error { return nil })
	bare := l.probeSpan("sweep.StreamConfigs(no obs)", parent, t0)
	if err != nil {
		return err
	}
	snap := m.Snapshot()
	n := float64(len(cfgs))
	l.set("sweep.rows_per_s_no_obs", "rows/s", n/bare.Seconds(), "same run without RunOptions.Metrics")
	per := func(stage string) float64 { return snap.Stage(stage).Seconds * 1e6 / n }
	l.set("sweep.rows_per_s", "rows/s", n/d.Seconds(), fmt.Sprintf("%d rows, %d workers", len(cfgs), opts.Workers))
	l.set("sweep.dispatch_us_per_row", "us", per("dispatch"), "includes waiting for window tokens")
	l.set("sweep.reorder_us_per_row", "us", per("reorder"), "")
	l.set("sweep.yield_us_per_row", "us", per("yield"), "")
	l.set("sweep.checkpoint_us_per_row", "us", per("checkpoint"), "")
	l.set("sweep.window_p99", "configs", snap.WindowOcc.Quantile(0.99), "reorder-window occupancy")
	return nil
}

// probePersist times the daemon's per-row write sequence (encode, flush to
// a file, checkpoint append) and its per-job store operations.
func (l *layers) probePersist(ctx context.Context, parent int) error {
	cfgs, _ := l.probeConfigs(1024)
	rows, err := sweep.RunConfigs(ctx, cfgs, sweep.RunOptions{Packets: l.w.packets, BaseSeed: l.seed})
	if err != nil {
		return err
	}
	var enc, flush, ckpt time.Duration
	n := 0
	for pass := 0; pass < 2; pass++ {
		f, err := os.Create(filepath.Join(l.dir, fmt.Sprintf("probe-persist%d.csv", pass)))
		if err != nil {
			return err
		}
		ck, err := sweep.OpenCheckpointWriter(filepath.Join(l.dir, fmt.Sprintf("probe-persist%d.ckpt", pass)), 1, len(rows), false)
		if err != nil {
			f.Close()
			return err
		}
		e := sweep.NewEncoder(f)
		err = e.WriteHeader()
		for i := 0; err == nil && i < len(rows); i++ {
			t0 := time.Now()
			if err = e.Encode(rows[i]); err != nil {
				break
			}
			enc += l.probeSpan("sweep.Encoder.Encode", parent, t0)
			t0 = time.Now()
			if err = e.Flush(); err != nil {
				break
			}
			flush += l.probeSpan("sweep.Encoder.Flush", parent, t0)
			t0 = time.Now()
			if err = ck.Append(i); err != nil {
				break
			}
			ckpt += l.probeSpan("sweep.CheckpointWriter.Append", parent, t0)
			n++
		}
		cerr := ck.Close()
		ferr := f.Close()
		for _, e := range []error{err, cerr, ferr} {
			if e != nil {
				return e
			}
		}
	}
	l.set("persist.encode_us_per_row", "us", us(enc)/float64(n), fmt.Sprintf("n=%d rows", n))
	l.set("persist.flush_us_per_row", "us", us(flush)/float64(n), "flush to a file after every row")
	l.set("persist.ckpt_append_us_per_row", "us", us(ckpt)/float64(n), "")

	store, err := serve.OpenStore(filepath.Join(l.dir, "probe-store"))
	if err != nil {
		return err
	}
	spec, err := newStream(l.w, l.seed, 0).next().spec.Normalized(serve.Limits{})
	if err != nil {
		return err
	}
	var putjob, promote, size []float64
	for i := 1; i <= 200; i++ {
		j := &serve.Job{ID: fmt.Sprintf("p%06d", i), Seq: i, State: serve.StateQueued, Spec: spec,
			Fingerprint: fmt.Sprintf("%016x", i), Configs: spec.Space.Space().Size(), CreatedMs: time.Now().UnixMilli()}
		t0 := time.Now()
		if err := store.PutJob(j); err != nil {
			return err
		}
		putjob = append(putjob, us(l.probeSpan("serve.Store.PutJob", parent, t0)))
	}
	for i := 0; i < 100; i++ {
		fp := fmt.Sprintf("%016x", i)
		if err := os.WriteFile(store.SpoolCSV(fp), []byte("probe\n"), 0o644); err != nil {
			return err
		}
		t0 := time.Now()
		if err := store.Promote(fp); err != nil {
			return err
		}
		promote = append(promote, us(l.probeSpan("serve.Store.Promote", parent, t0)))
	}
	live := l.env.front.srv.Store()
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		live.CacheSize()
		size = append(size, us(l.probeSpan("serve.Store.CacheSize", parent, t0)))
	}
	entries, err := os.ReadDir(filepath.Dir(live.CachePath("x")))
	if err != nil {
		return err
	}
	l.set("persist.putjob_us_p50", "us", median(putjob), "n=200")
	l.set("persist.promote_us_p50", "us", median(promote), "n=100")
	l.set("persist.cachesize_us_p50", "us", median(size), fmt.Sprintf("n=50 at %d entries", len(entries)))
	l.set("persist.cache_entries", "count", float64(len(entries)), "result cache of the measured daemon")
	return nil
}

// fitSpec is a link campaign of exactly n configurations (4, 64 or 1024)
// at the workload's packet count.
func fitSpec(n int, seed uint64, packets int) serve.CampaignSpec {
	s := largeSpec(seed)
	switch n {
	case 4:
		s = smallSpec(seed, false)
	case 64:
		s.Space.PktIntervalsS = []float64{0.03}
		s.Space.PayloadsBytes = []int{20}
	}
	s.Packets = packets
	return s
}

// probeServe measures the service without HTTP (Submit, StreamRows), the
// fixed and per-row cost of a job, and then the same calls over the wire
// and the client's decode on its own.
func (l *layers) probeServe(ctx context.Context, parent int) error {
	srv := l.env.front.srv
	noop := func(int, []string) error { return nil }

	// Fixed vs per-row cost: fresh campaigns of 4, 64 and 1024 configs.
	var xs, ys []float64
	var bigID string
	plan := []struct{ n, reps int }{{4, 16}, {64, 8}, {1024, 3}}
	k := uint64(0)
	for _, p := range plan {
		for r := 0; r < p.reps; r++ {
			k++
			spec := fitSpec(p.n, mix(l.seed, tag("fit"), k), l.w.packets)
			t0 := time.Now()
			st, err := srv.Submit(spec)
			if err != nil {
				return err
			}
			if err := srv.StreamRows(ctx, st.ID, -1, noop); err != nil {
				return err
			}
			xs = append(xs, float64(p.n))
			ys = append(ys, ms(l.probeSpan("serve.Submit+StreamRows", parent, t0)))
			bigID = st.ID
		}
	}
	a, b := fitLine(xs, ys)
	l.set("serve.job_fixed_ms", "ms", a, "fit of cost = a + b·rows over 4/64/1024-config jobs")
	l.set("serve.row_us", "us", b*1000, "")

	// Submit without HTTP, then over HTTP, on already-cached campaigns.
	cached := l.cachedSpecs()
	var sub, wsub []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := srv.Submit(cached[i%len(cached)]); err != nil {
			return err
		}
		sub = append(sub, us(l.probeSpan("serve.Server.Submit", parent, t0)))
	}
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := l.env.client.Submit(ctx, cached[i%len(cached)]); err != nil {
			return err
		}
		wsub = append(wsub, us(l.probeSpan("serve.Client.Submit", parent, t0)))
	}
	l.set("serve.submit_us_p50", "us", median(sub), "Server.Submit of cached campaigns, n=200")
	l.set("wire.submit_overhead_us_p50", "us", median(wsub)-median(sub), "Client.Submit minus Server.Submit p50")

	// Tail, wire and client decode over the cached 1024-row dataset.
	const reps = 10
	var tail, wire time.Duration
	rows := 0
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if err := srv.StreamRows(ctx, bigID, -1, func(int, []string) error { rows++; return nil }); err != nil {
			return err
		}
		tail += l.probeSpan("serve.Server.StreamRows", parent, t0)
		t0 = time.Now()
		if _, err := l.env.client.StreamRows(ctx, bigID, -1, func(serve.StreamedRow) error { return nil }); err != nil {
			return err
		}
		wire += l.probeSpan("serve.Client.StreamRows", parent, t0)
	}
	perRow := func(d time.Duration) float64 { return us(d) / float64(rows) }
	l.set("serve.tail_us_per_row", "us", perRow(tail), fmt.Sprintf("%d rows, no-op send", rows))
	l.set("wire.us_per_row", "us", perRow(wire)-perRow(tail), "Client.StreamRows over HTTP minus the tail")

	body, err := l.rawRows(ctx, bigID)
	if err != nil {
		return err
	}
	l.set("wire.bytes_per_row", "B", float64(len(body))*float64(reps)/float64(rows), "NDJSON")
	dec, n, err := l.decodeOnly(ctx, body, reps, parent)
	if err != nil {
		return err
	}
	l.set("client.decode_us_per_row", "us", us(dec)/float64(n), "Client.StreamRows of a replayed body, no daemon")
	return nil
}

// cachedSpecs returns specs the live daemon has already answered.
func (l *layers) cachedSpecs() []serve.CampaignSpec {
	var out []serve.CampaignSpec
	for _, st := range l.env.front.srv.List() {
		if st.State == serve.StateDone && len(out) < 64 {
			out = append(out, st.Spec)
		}
	}
	return out
}

// rawRows fetches a job's NDJSON body verbatim.
func (l *layers) rawRows(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.env.front.url+"/v1/campaigns/"+id+"/rows", nil)
	if err != nil {
		return nil, err
	}
	resp, err := l.env.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("rows of %s: %s", id, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// decodeOnly streams a captured NDJSON body through serve.Client from a
// loopback handler that replays it verbatim.
func (l *layers) decodeOnly(ctx context.Context, body []byte, reps, parent int) (time.Duration, int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(body) //nolint:errcheck // a failed write shows as a short stream
	}), ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) //nolint:errcheck // ends with ErrServerClosed
	}()
	defer func() { hs.Close(); <-done }() //nolint:errcheck // shutdown of a probe listener

	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	cl := serve.NewClient("http://" + ln.Addr().String())
	cl.HTTPClient = hc
	var total time.Duration
	n := 0
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if _, err := cl.StreamRows(ctx, "replay", -1, func(serve.StreamedRow) error { n++; return nil }); err != nil {
			return 0, 0, err
		}
		total += l.probeSpan("client.StreamRows(replayed body)", parent, t0)
	}
	return total, n, nil
}

// probeFabric plans the workload's campaigns into shards and runs a few
// of them through a coordinator over two runners — the workload's own
// fabric for fabric-large, a probe fabric otherwise.
func (l *layers) probeFabric(ctx context.Context, parent int) error {
	fe := l.env
	if !l.w.fabric {
		var err error
		fe, err = bootEnv(filepath.Join(l.dir, "probe-fabric"), true, l.logs)
		if err != nil {
			return err
		}
		defer fe.close()
		if err := fe.ready(ctx); err != nil {
			return err
		}
	}
	shards := fabricRunners * 2 // fabric.Options.ShardsPerRunner default
	s := newStream(l.w, l.seed^tag("plan"), 0)
	var plans []float64
	nshards := 0
	for i := 0; i < 200; i++ {
		spec, err := s.next().spec.Normalized(serve.Limits{MaxWorkers: runtime.GOMAXPROCS(0)})
		if err != nil {
			return err
		}
		t0 := time.Now()
		p, err := fabric.PlanShards(spec, shards)
		if err != nil {
			return err
		}
		plans = append(plans, us(l.probeSpan("fabric.PlanShards", parent, t0)))
		nshards += len(p.Shards)
	}
	l.set("fabric.plan_us_p50", "us", median(plans), "n=200")
	l.set("fabric.shards_per_campaign", "count", float64(nshards)/200, "")

	// Fresh link campaigns of the workload's shape through the coordinator.
	count, n := 4, 1024
	if l.w.packets == smallPackets {
		count, n = 40, 4
	}
	srv := fe.front.srv
	since := time.Now().UnixMilli()
	ids := make(map[string]bool)
	rows := 0
	for i := 0; i < count; i++ {
		spec := fitSpec(n, mix(l.seed, tag("fabric-probe"), uint64(i)), l.w.packets)
		t0 := time.Now()
		st, err := srv.Submit(spec)
		if err != nil {
			return err
		}
		if err := srv.StreamRows(ctx, st.ID, -1, func(int, []string) error { rows++; return nil }); err != nil {
			return err
		}
		l.probeSpan("coordinator Submit+StreamRows", parent, t0)
		ids[st.ID] = true
	}
	var exec []float64
	var execTotal time.Duration
	for _, c := range fe.exec.snapshot() {
		if ids[c.id] {
			exec = append(exec, ms(c.end.Sub(c.start)))
			execTotal += c.end.Sub(c.start)
		}
	}
	var runnerMs int64
	for _, r := range fe.runners {
		for _, st := range r.srv.List() {
			if st.CreatedMs >= since && st.FinishedMs > 0 && st.StartedMs > 0 {
				runnerMs += st.FinishedMs - st.StartedMs
			}
		}
	}
	coordRow := us(execTotal) / float64(rows)
	runnerRow := float64(runnerMs) * 1000 / float64(rows) / float64(len(fe.runners))
	var requeues int64
	for _, f := range fe.front.reg.Snapshot() {
		if f.Name == "fabric_shard_requeues_total" {
			for _, p := range f.Series {
				requeues += p.Value
			}
		}
	}
	l.set("fabric.execute_ms_p50", "ms", median(exec), fmt.Sprintf("n=%d campaigns of %d configs", len(exec), n))
	l.set("fabric.merge_us_per_row", "us", coordRow-runnerRow,
		fmt.Sprintf("coordinator %.2f us/row minus runners %.2f us/row", coordRow, runnerRow))
	l.set("fabric.requeues", "count", float64(requeues), "must be 0")
	if requeues != 0 {
		return fmt.Errorf("%d shard requeues on a healthy fleet", requeues)
	}
	return nil
}
