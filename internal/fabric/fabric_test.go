package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsnlink/internal/obs"
	"wsnlink/internal/serve"
	"wsnlink/internal/sweep"
)

// runner is one in-process wsnlinkd runner: a serve.Server behind a real
// HTTP listener that can be killed (connections dropped, port dead) while
// its goroutines are cleaned up at test end.
type runner struct {
	srv *serve.Server
	ts  *httptest.Server
}

func startRunner(t *testing.T, opts serve.Options) *runner {
	t.Helper()
	return startRunnerBehind(t, opts, nil)
}

// startRunnerBehind starts a runner whose handler sits behind front (nil:
// none), which sees every request first.
func startRunnerBehind(t *testing.T, opts serve.Options, front func(http.Handler) http.Handler) *runner {
	t.Helper()
	srv, err := serve.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("open runner: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx) //nolint:errcheck // test cleanup
	})
	h := srv.Handler()
	if front != nil {
		h = front(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return &runner{srv: srv, ts: ts}
}

// kill drops the runner off the network: every open connection is severed
// and new ones are refused. The serve.Server keeps running (as a crashed
// process's kernel would not, but an unreachable peer looks identical to
// the coordinator).
func (r *runner) kill() {
	// Refuse new connections first: a client retrying into the closing
	// window would otherwise hold a request open that Close waits on.
	r.ts.Listener.Close()
	r.ts.CloseClientConnections()
	r.ts.Close()
}

// startCoordinator wires a Fabric over the runner URLs into a fresh
// coordinator daemon and returns the daemon's client.
func startCoordinator(t *testing.T, urls []string, reg *obs.Registry) (*serve.Server, *serve.Client) {
	t.Helper()
	fab, err := New(Options{
		Runners:         urls,
		ProbeInterval:   20 * time.Millisecond,
		ShardsPerRunner: 2,
		AllDeadGrace:    10 * time.Second,
		RetryBase:       5 * time.Millisecond,
		Metrics:         reg,
		Logger:          obs.NopLogger(),
	})
	if err != nil {
		t.Fatalf("fabric.New: %v", err)
	}
	t.Cleanup(fab.Close)
	srv, err := serve.Open(t.TempDir(), serve.Options{Executor: fab, Logger: obs.NopLogger()})
	if err != nil {
		t.Fatalf("open coordinator: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx) //nolint:errcheck // test cleanup
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, serve.NewClient(ts.URL)
}

// rawRows fetches a finished campaign's NDJSON stream as raw bytes — the
// byte-identity oracle.
func rawRows(t *testing.T, baseURL, id string) []byte {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/campaigns/" + id + "/rows")
	if err != nil {
		t.Fatalf("GET rows: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET rows: %s", resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read rows: %v", err)
	}
	return data
}

// referenceRows runs the spec on a plain single daemon and returns its
// NDJSON bytes.
func referenceRows(t *testing.T, spec serve.CampaignSpec) []byte {
	t.Helper()
	ref := startRunner(t, serve.Options{Logger: obs.NopLogger()})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cl := serve.NewClient(ref.ts.URL)
	st, err := cl.Run(ctx, spec, func(serve.StreamedRow) error { return nil })
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return rawRows(t, ref.ts.URL, st.ID)
}

// fleetSpec is planSpec at the fewest packets per configuration that
// still plan it into six two-config shards: two per runner of a
// three-runner fleet, so a lost runner's shards requeue across runners.
func fleetSpec(t *testing.T) serve.CampaignSpec {
	t.Helper()
	spec := planSpec()
	spec.Packets = minShardPackets / 2
	p, err := PlanShards(spec, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Shards) != 6 {
		t.Fatalf("fleet spec plans %d shards, want 6", len(p.Shards))
	}
	return spec
}

// TestFabricMergedStreamByteIdentical is the tentpole proof in miniature:
// a campaign sharded across three runners streams, from the coordinator,
// the exact bytes a single daemon produces for the same spec.
func TestFabricMergedStreamByteIdentical(t *testing.T) {
	spec := fleetSpec(t)
	want := referenceRows(t, spec)

	var urls []string
	for i := 0; i < 3; i++ {
		urls = append(urls, startRunner(t, serve.Options{Logger: obs.NopLogger()}).ts.URL)
	}
	_, cl := startCoordinator(t, urls, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rows := 0
	st, err := cl.Run(ctx, spec, func(r serve.StreamedRow) error {
		if r.Index != rows {
			t.Fatalf("row %d out of order, want %d", r.Index, rows)
		}
		rows++
		return nil
	})
	if err != nil {
		t.Fatalf("coordinator run: %v", err)
	}
	if rows != 12 {
		t.Fatalf("streamed %d rows, want 12", rows)
	}
	got := rawRows(t, cl.BaseURL, st.ID)
	if string(got) != string(want) {
		t.Fatalf("coordinator bytes differ from single-daemon reference:\n%q\nvs\n%q", got, want)
	}
}

// TestFabricRunnerLossRequeues kills one runner mid-campaign: its shards
// requeue on the survivors from the coordinator's cursor, the campaign
// completes, the merged bytes still match a single-daemon run, and the
// requeue is visible in the fabric metrics.
func TestFabricRunnerLossRequeues(t *testing.T) {
	spec := fleetSpec(t)
	spec.Workers = 1
	// One config per kernel call, so a runner's shard job reaches its row
	// 1 as a row of its own. Batch size is not part of the fingerprint.
	spec.BatchSize = 1
	want := referenceRows(t, spec)

	// Every runner parks the first shard job that reaches row 1 — the
	// second and last row of each 2-row shard — so a kill always lands
	// strictly mid-shard, with the shard's stream still open.
	var runners []*runner
	var gates []*sweep.RowGate
	var urls []string
	for i := 0; i < 3; i++ {
		g := sweep.NewRowGate(1)
		r := startRunner(t, serve.Options{Logger: obs.NopLogger(), RowGate: g})
		runners = append(runners, r)
		gates = append(gates, g)
		urls = append(urls, r.ts.URL)
	}
	metrics := obs.NewRegistry()
	srv, cl := startCoordinator(t, urls, metrics)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	// Kill the first runner to park, then let every gate go: the
	// survivors finish their own shards and take over the dead runner's.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		defer func() {
			for _, g := range gates {
				g.Release()
			}
		}()
		cases := make([]reflect.SelectCase, 0, len(gates)+1)
		for _, g := range gates {
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(g.Parked())})
		}
		cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(ctx.Done())})
		i, _, _ := reflect.Select(cases)
		if i == len(gates) {
			t.Error("no runner reached row 1 of a shard")
			return
		}
		runners[i].kill()
	}()

	rows := 0
	if _, err := cl.StreamRows(ctx, st.ID, -1, func(r serve.StreamedRow) error {
		if r.Index != rows {
			t.Fatalf("row %d out of order, want %d", r.Index, rows)
		}
		rows++
		return nil
	}); err != nil {
		t.Fatalf("StreamRows: %v", err)
	}
	if fin, err := srv.Status(st.ID); err != nil || fin.State != serve.StateDone {
		t.Fatalf("job finished %v (err %v), want done", fin.State, err)
	}
	<-killed
	if rows != 12 {
		t.Fatalf("streamed %d rows, want 12", rows)
	}
	got := rawRows(t, cl.BaseURL, st.ID)
	if string(got) != string(want) {
		t.Fatal("merged bytes after runner loss differ from single-daemon reference")
	}

	requeues := int64(0)
	for _, fam := range metrics.Snapshot() {
		if fam.Name == "fabric_shard_requeues_total" {
			for _, s := range fam.Series {
				requeues += s.Value
			}
		}
	}
	if requeues == 0 {
		t.Fatal("no shard requeue recorded after killing a runner")
	}
}

// TestLineFeedHandsRunsInOrder drives one feed from a stream goroutine
// while this goroutine merges: every line arrives once, in order, in runs
// of at most limit rows, and the merge sees the feed closed only after the
// last line.
func TestLineFeedHandsRunsInOrder(t *testing.T) {
	const lines, limit = 5000, 7
	feed := newLineFeed(limit)
	ctx := context.Background()
	go func() {
		defer feed.close()
		for i := 0; i < lines; i++ {
			if err := feed.put(ctx, []byte(strconv.Itoa(i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var run []byte
	next := 0
	for {
		got, rows, closed := feed.take(run)
		run = got[:0]
		if rows > limit {
			t.Fatalf("took a run of %d rows, limit %d", rows, limit)
		}
		for k := 0; k < rows; k++ {
			nl := bytes.IndexByte(got, '\n')
			if string(got[:nl]) != strconv.Itoa(next) {
				t.Fatalf("line %q, want %d", got[:nl], next)
			}
			next++
			got = got[nl+1:]
		}
		if len(got) != 0 {
			t.Fatalf("run holds %q past its %d rows", got, rows)
		}
		if rows == 0 {
			if closed {
				break
			}
			<-feed.ready
		}
	}
	if next != lines {
		t.Fatalf("merged %d lines, want %d", next, lines)
	}
}

// submitLog records, in arrival order, the shard offset of every campaign
// submitted to the handler behind it.
type submitLog struct {
	mu      sync.Mutex
	offsets []int
}

func (l *submitLog) front(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/campaigns" {
			body, err := io.ReadAll(r.Body)
			var spec serve.CampaignSpec
			if err == nil && json.Unmarshal(body, &spec) == nil {
				l.mu.Lock()
				l.offsets = append(l.offsets, spec.ShardOffset)
				l.mu.Unlock()
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		next.ServeHTTP(w, r)
	})
}

// TestFabricSubmitsEachRunnersShardsInPlanOrder: each runner's FIFO queue
// receives its shards in plan order — a later shard's submit never races
// ahead of the earlier one the in-order merge needs first.
func TestFabricSubmitsEachRunnersShardsInPlanOrder(t *testing.T) {
	spec := fleetSpec(t)
	logs := make([]*submitLog, 2)
	var urls []string
	for i := range logs {
		logs[i] = &submitLog{}
		urls = append(urls, startRunnerBehind(t, serve.Options{Logger: obs.NopLogger()}, logs[i].front).ts.URL)
	}
	_, cl := startCoordinator(t, urls, nil) // 2 shards per runner
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for seed := uint64(1); seed <= 3; seed++ {
		spec.BaseSeed = seed
		if _, err := cl.Run(ctx, spec, func(serve.StreamedRow) error { return nil }); err != nil {
			t.Fatalf("coordinator run: %v", err)
		}
	}
	for i, l := range logs {
		l.mu.Lock()
		got := append([]int(nil), l.offsets...)
		l.mu.Unlock()
		if len(got) != 6 {
			t.Fatalf("runner %d got %d submits, want 2 per campaign: %v", i, len(got), got)
		}
		for k := 0; k < len(got); k += 2 {
			if got[k] >= got[k+1] {
				t.Fatalf("runner %d got its shards out of plan order: offsets %v", i, got)
			}
		}
	}
}

// TestRegistryLivenessAndRevival pins the probe loop: a draining runner
// drops out of rotation, a failure report marks a runner down immediately,
// and a runner that comes back is revived without re-registration.
func TestRegistryLivenessAndRevival(t *testing.T) {
	up := atomic.Bool{}
	up.Store(true)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" && up.Load() {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer flaky.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer dead.Close()

	g := NewRegistry([]string{flaky.URL, dead.URL}, 10*time.Millisecond, obs.NopLogger(), nil)
	g.Start()
	defer g.Close()

	r, ok := g.PickAlive(0)
	if !ok || r.URL() != flaky.URL {
		t.Fatalf("PickAlive = %v/%v, want the flaky runner", r, ok)
	}
	if _, ok := g.PickAlive(1); !ok {
		t.Fatal("round-robin scan missed the only live runner")
	}

	g.ReportFailure(r)
	if r.Alive() {
		t.Fatal("runner still alive right after ReportFailure")
	}

	// The prober revives it: /readyz still answers 200.
	deadline := time.Now().Add(5 * time.Second)
	for !r.Alive() {
		if time.Now().After(deadline) {
			t.Fatal("prober never revived the healthy runner")
		}
		time.Sleep(2 * time.Millisecond)
	}

	up.Store(false)
	for r.Alive() {
		if time.Now().After(deadline) {
			t.Fatal("prober never noticed the runner draining")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, ok := g.PickAlive(0); ok {
		t.Fatal("every runner is down yet PickAlive found one")
	}
}
