// Command campaignbench is the repository's benchmark: it boots the
// campaign service in-process on loopback HTTP (a single daemon, or a
// coordinator over two runners), drives it with closed-loop serve.Client
// traffic for one workload, checks every streamed row against the engine,
// and prints the end-to-end metrics — or, with -trace 1, the per-layer
// metrics of a traced run.
//
// Usage, from the repository root:
//
//	bash campaignbench/run.sh --workload fresh-large --seed 1 --seconds 18 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// See campaignbench/README.md for the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setupRepeats is how many times a run sets the service up; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 5

// tracedSlices is how many untraced/traced slices a traced run divides its
// window into.
const tracedSlices = 8

// stateDir holds each run's data directories, logs and span files,
// relative to the directory the benchmark runs in.
const stateDir = ".bench_build/campaignbench"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload name")
		seed    = fs.Uint64("seed", 1, "workload seed")
		seconds = fs.Int("seconds", 18, "measured seconds")
		trace   = fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "campaignbench: need --workload (one of fresh-large, replay-large, small-mixed, fabric-large), --seconds > 0 and --trace 0|1")
		return 2
	}
	res, err := bench(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	note       string // table only: sample counts, scope
}

// result is what a run prints.
type result struct {
	workload  string
	traced    bool
	correct   bool
	attempted int
	failed    int
	metrics   []metric // the JSON set
	extra     []metric // table-only lines
}

func (r *result) add(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, note: note})
}

func (r *result) addExtra(name, unit string, v float64, note string) {
	r.extra = append(r.extra, metric{name: name, unit: unit, value: v, note: note})
}

// print writes the human table, then the JSON result as the last line. A
// metric that is not a finite number is a benchmark fault and prints no
// result.
func (r *result) print(w io.Writer) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]val)}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	kind := "end-to-end"
	if r.traced {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "campaignbench %s: %s metrics\n", r.workload, kind)
	for _, m := range append(append([]metric(nil), r.metrics...), r.extra...) {
		fmt.Fprintf(w, "  %-34s %14.4f %-8s %s\n", m.name, m.value, m.unit, m.note)
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// bench runs one workload end to end: set-up, measured window(s),
// verification and, when traced, the per-layer probes.
func bench(w workload, seed uint64, dur time.Duration, traced bool) (*result, error) {
	// Past this a run gives up, so that with its shutdown it still ends
	// within three minutes.
	ctx, cancel := context.WithTimeout(context.Background(), 140*time.Second)
	defer cancel()
	runDir := filepath.Join(stateDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	logs, err := os.Create(filepath.Join(runDir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	defer logs.Close()

	streams := make([]*stream, w.clients)
	for c := range streams {
		streams[c] = newStream(w, seed, c)
	}
	res := &result{workload: w.name, traced: traced}
	orc := newOracle()

	// Set up several times back to back and measure on the last set-up.
	var (
		e      *env
		warm   []*campaign
		setups []float64
	)
	for k := 0; k < setupRepeats; k++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(runDir, fmt.Sprintf("setup%d", k))
		t0 := time.Now()
		e, warm, err = setup(ctx, w, seed, dir, logs)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer e.close()

	if !traced {
		win := runWindow(ctx, e, streams, dur, nil)
		rss := rssPeakMB()
		if err := verify(ctx, orc, res, warm, win.campaigns); err != nil {
			return nil, err
		}
		endToEnd(res, w, win, rss, setups)
		return res, nil
	}

	// Traced: untraced and traced slices of the window on the same
	// streams, in Thue–Morse order (P T T P T P P T), so drift with uptime
	// (a growing job list and cache) weighs on both alike; then the layer
	// probes.
	tr := newTracer()
	var plainWins, tracedWins windows
	for k := 0; k < tracedSlices; k++ {
		if bits.OnesCount(uint(k))%2 == 0 {
			plainWins = append(plainWins, runWindow(ctx, e, streams, dur/tracedSlices, nil))
		} else {
			tracedWins = append(tracedWins, runWindow(ctx, e, streams, dur/tracedSlices, tr))
		}
	}
	if err := verify(ctx, orc, res, warm, append(plainWins.campaigns(), tracedWins.campaigns()...)); err != nil {
		return nil, err
	}
	l := &layers{w: w, seed: seed, env: e, tr: tr, dir: runDir, logs: logs}
	if err := l.collect(ctx, plainWins, tracedWins); err != nil {
		return nil, err
	}
	l.report(res)
	spanPath := filepath.Join(stateDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
	if err := tr.write(spanPath); err != nil {
		return nil, err
	}
	res.addExtra("trace.spans_file", "", float64(len(tr.snapshot())), spanPath)
	return res, nil
}

// setup boots the service in dir, waits until it is ready and submits the
// workload's warm-up campaigns (the replay pool and hot pool included).
func setup(ctx context.Context, w workload, seed uint64, dir string, logs io.Writer) (*env, []*campaign, error) {
	e, err := bootEnv(dir, w.fabric, logs)
	if err != nil {
		return nil, nil, err
	}
	if err := e.ready(ctx); err != nil {
		e.close()
		return nil, nil, err
	}
	var warm []*campaign
	for _, spec := range warmSpecs(w, seed) {
		c := &campaign{spec: spec}
		runCampaign(ctx, e.client, c, nil)
		if c.failed() {
			e.close()
			return nil, nil, fmt.Errorf("warm-up campaign: %v", c.err)
		}
		warm = append(warm, c)
	}
	return e, warm, nil
}

// verify checks every campaign's digest against the engine's reference,
// and every replayed campaign against the digest of its first, fresh
// stream. It fills the correctness fields of res.
func verify(ctx context.Context, orc *oracle, res *result, warm, measured []*campaign) error {
	fresh := make(map[string]uint64)
	for _, c := range warm {
		ref, err := orc.reference(ctx, c.spec)
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		if c.digest != ref {
			c.err = fmt.Errorf("warm-up campaign %s: digest %016x, reference %016x", c.id, c.digest, ref)
		}
		fp, _ := c.spec.Fingerprint()
		fresh[fmt.Sprint(fp)] = c.digest
	}
	all := append(append([]*campaign(nil), warm...), measured...)
	for _, c := range measured {
		if c.failed() {
			continue
		}
		ref, err := orc.reference(ctx, c.spec)
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		fp, _ := c.spec.Fingerprint()
		if d, ok := fresh[fmt.Sprint(fp)]; ok && c.digest != d {
			c.err = fmt.Errorf("campaign %s: replay digest %016x differs from its fresh stream %016x", c.id, c.digest, d)
		} else if c.digest != ref {
			c.err = fmt.Errorf("campaign %s: digest %016x, reference %016x", c.id, c.digest, ref)
		}
	}
	res.attempted = len(all)
	for _, c := range all {
		if c.failed() {
			res.failed++
			if res.failed <= 3 {
				fmt.Fprintln(os.Stderr, "campaignbench: failed:", c.err)
			}
		}
	}
	res.correct = res.failed == 0
	return nil
}

// endToEnd fills the end-to-end metrics of an untraced window.
func endToEnd(res *result, w workload, win *window, rss float64, setups []float64) {
	var camp, first, submit []float64
	for _, c := range win.campaigns {
		if c.failed() {
			continue
		}
		camp = append(camp, ms(c.end.Sub(c.start)))
		first = append(first, ms(c.first.Sub(c.start)))
		submit = append(submit, ms(c.submitted.Sub(c.start)))
	}
	sort.Float64s(camp)
	sort.Float64s(first)
	sort.Float64s(submit)
	rows := float64(win.rows())
	wall := win.wall().Seconds()
	n := fmt.Sprintf("n=%d", len(camp))
	res.add("rows_per_s", "rows/s", rows/wall, fmt.Sprintf("%.0f rows in %.2fs", rows, wall))
	res.add("jobs_per_s", "jobs/s", float64(len(win.campaigns))/wall, n)
	res.add("campaign_p50_ms", "ms", percentile(camp, 0.5), n)
	res.add("cpu_ms_per_krow", "ms", ms(win.cpu)/(rows/1000), "process user+sys CPU")
	res.add("rss_peak_mb", "MiB", rss, "")
	res.add("setup_s", "s", median(setups), fmt.Sprintf("median of set-ups %.3f", setups))

	// Table only: the tails (too noisy on a shared host to gate), the
	// submit latencies (bimodal on the large workloads) and the failure
	// share, which the JSON carries as attempted/failed.
	res.addExtra("campaign_p90_ms", "ms", percentile(camp, 0.9), tailNote(len(camp), 0.9))
	res.addExtra("first_row_p50_ms", "ms", percentile(first, 0.5), n)
	res.addExtra("first_row_p90_ms", "ms", percentile(first, 0.9), tailNote(len(first), 0.9))
	res.addExtra("submit_p50_ms", "ms", percentile(submit, 0.5), n)
	res.addExtra("submit_p90_ms", "ms", percentile(submit, 0.9), tailNote(len(submit), 0.9))
	if w.name == "small-mixed" {
		res.addExtra("submit_p99_ms", "ms", percentile(submit, 0.99), tailNote(len(submit), 0.99))
	}
	res.addExtra("failed_share", "", float64(res.failed)/float64(res.attempted),
		fmt.Sprintf("%d of %d campaigns", res.failed, res.attempted))
}

// tailNote states a tail's sample support, flagging a tail with fewer
// than minBeyond samples past it.
func tailNote(n int, q float64) string {
	s := fmt.Sprintf("n=%d, %d beyond", n, beyond(n, q))
	if !tailOK(n, q) {
		s += " (too few samples for this tail)"
	}
	return s
}
