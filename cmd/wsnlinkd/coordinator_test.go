package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"wsnlink/internal/fabric"
	"wsnlink/internal/serve"
	"wsnlink/internal/sweep"
)

// parkAtEnv, set to a row index in a daemon child's environment, parks the
// child's first local campaign after that row is spooled; the child then
// creates a file named parked in its -data-dir.
const parkAtEnv = "WSNLINKD_TEST_PARK_AT"

// TestMain doubles the test binary as a wsnlinkd executable: with
// WSNLINKD_TEST_DAEMON=1 in the environment it runs the daemon main loop
// instead of the test suite. The coordinator e2e uses this to launch real
// runner processes it can SIGKILL — killing an OS process is the only
// honest simulation of runner loss.
func TestMain(m *testing.M) {
	if os.Getenv("WSNLINKD_TEST_DAEMON") == "1" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if at := os.Getenv(parkAtEnv); at != "" {
			if err := parkFromEnv(at, os.Args[1:]); err != nil {
				fmt.Fprintln(os.Stderr, "wsnlinkd:", err)
				os.Exit(2)
			}
		}
		if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "wsnlinkd:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// parkFromEnv arms rowGate at row at and, once a campaign parks there,
// creates the parked file in the -data-dir named in args.
func parkFromEnv(at string, args []string) error {
	row, err := strconv.Atoi(at)
	if err != nil {
		return fmt.Errorf("%s: %v", parkAtEnv, err)
	}
	dataDir := ""
	for i := 0; i+1 < len(args); i++ {
		if args[i] == "-data-dir" {
			dataDir = args[i+1]
		}
	}
	if dataDir == "" {
		return fmt.Errorf("%s needs -data-dir", parkAtEnv)
	}
	rowGate = sweep.NewRowGate(row)
	go func() {
		<-rowGate.Parked()
		if err := os.WriteFile(filepath.Join(dataDir, "parked"), nil, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "wsnlinkd:", err)
		}
	}()
	return nil
}

// procRunner is one runner daemon in its own OS process.
type procRunner struct {
	cmd *exec.Cmd
	url string
}

// startRunnerProc launches the test binary as a wsnlinkd runner, with env
// added to its environment, and waits for it to publish its listen address
// via -addr-file.
func startRunnerProc(t *testing.T, dir string, env ...string) *procRunner {
	t.Helper()
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(os.Args[0],
		"-addr", "127.0.0.1:0",
		"-data-dir", filepath.Join(dir, "data"),
		"-addr-file", addrFile,
		"-log-level", "error",
	)
	cmd.Env = append(append(os.Environ(), "WSNLINKD_TEST_DAEMON=1"), env...)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatalf("start runner process: %v", err)
	}
	r := &procRunner{cmd: cmd}
	t.Cleanup(func() {
		r.cmd.Process.Kill() //nolint:errcheck // may already be dead
		r.cmd.Wait()         //nolint:errcheck // reap; exit status is irrelevant
	})
	deadline := time.Now().Add(60 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && bytes.Contains(data, []byte("\n")) {
			r.url = "http://" + strings.TrimSpace(string(data))
			return r
		}
		if cmd.ProcessState != nil || time.Now().After(deadline) {
			t.Fatalf("runner process never published its address")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// kill SIGKILLs the runner process — no drain, no checkpoint, the real
// crash the fabric's requeue path exists for.
func (r *procRunner) kill() {
	r.cmd.Process.Kill() //nolint:errcheck // test kill
}

// requeueTotal sums fabric_shard_requeues_total over all label sets from a
// Prometheus text exposition.
func requeueTotal(t *testing.T, metricsText string) float64 {
	t.Helper()
	var total float64
	for _, line := range strings.Split(metricsText, "\n") {
		if !strings.HasPrefix(line, "fabric_shard_requeues_total{") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("unparsable metric line %q: %v", line, err)
		}
		total += v
	}
	return total
}

// TestCoordinatorShardedCampaignSurvivesRunnerKill is the distributed-fabric
// e2e: a campaign submitted to a coordinator daemon is sharded across three
// runner processes; one runner hosting a live shard is SIGKILLed
// mid-campaign; the shard requeues on a survivor from the coordinator's
// checkpoint cursor; and the merged NDJSON stream is byte-identical to the
// same campaign run on a plain single daemon.
func TestCoordinatorShardedCampaignSurvivesRunnerKill(t *testing.T) {
	spec := slowSpec()
	// The kill below counts on runner 0 hosting two of six shards: the
	// spec must carry enough packets for the plan to cut six at the
	// default -shards-per-runner of 2 over three runners.
	if p, err := fabric.PlanShards(spec, 2*3); err != nil || len(p.Shards) != 6 {
		t.Fatalf("slowSpec plans %d shards (err %v), want 6", len(p.Shards), err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	// Reference: uninterrupted single daemon, in-process.
	ref := startDaemon(t, t.TempDir())
	refClient := serve.NewClient(ref.url)
	refSt, err := refClient.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit reference: %v", err)
	}
	waitJob(t, refClient, refSt.ID, func(s serve.JobStatus) bool { return s.State == serve.StateDone }, "reference campaign")
	want := rawRows(t, ref.url, refSt.ID)
	ref.stop()

	// Fleet: three runner processes plus an in-process coordinator. Runner
	// 0 hosts shards 0 and 3 and parks the first of them after spooling its
	// row 1, with row 0 checkpointed: the kill below lands strictly
	// mid-shard, on an open stream, at the same row every run.
	runners := make([]*procRunner, 3)
	urls := make([]string, 3)
	parked := ""
	for i := range runners {
		dir := t.TempDir()
		var env []string
		if i == 0 {
			env = []string{parkAtEnv + "=1"}
			parked = filepath.Join(dir, "data", "parked")
		}
		runners[i] = startRunnerProc(t, dir, env...)
		urls[i] = runners[i].url
	}
	coord := startDaemon(t, t.TempDir(),
		"-coordinator",
		"-runners", strings.Join(urls, ","),
		"-probe-interval", "20ms",
	)
	c := serve.NewClient(coord.url)

	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit to coordinator: %v", err)
	}
	// The parked runner stays parked until killed, so waiting for its file
	// races nothing.
	for {
		if _, err := os.Stat(parked); err == nil {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("runner 0 never parked its shard; no runner was killed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	runners[0].kill()

	rows := 0
	if _, err := c.StreamRows(ctx, st.ID, -1, func(r serve.StreamedRow) error {
		if r.Index != rows {
			t.Fatalf("row %d out of order, want %d", r.Index, rows)
		}
		rows++
		return nil
	}); err != nil {
		t.Fatalf("StreamRows: %v", err)
	}
	fin := waitJob(t, c, st.ID, func(s serve.JobStatus) bool { return s.State.Terminal() }, "sharded campaign")
	if fin.State != serve.StateDone {
		t.Fatalf("campaign finished %q, want done", fin.State)
	}
	if rows != st.Configs {
		t.Fatalf("streamed %d rows, want %d", rows, st.Configs)
	}
	got := rawRows(t, coord.url, st.ID)
	if !bytes.Equal(got, want) {
		t.Fatalf("coordinator bytes differ from single-daemon reference (%d vs %d bytes)",
			len(got), len(want))
	}

	// The requeue is visible on the coordinator's /metrics surface.
	resp, err := http.Get(coord.url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if total := requeueTotal(t, string(body)); total == 0 {
		t.Fatal("no shard requeue recorded after killing a runner")
	}
}

// TestCoordinatorFlagValidation pins the CLI contract: -runners without
// -coordinator and -coordinator without runners are both refused.
func TestCoordinatorFlagValidation(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-coordinator", "-data-dir", t.TempDir()}, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-runners") {
		t.Fatalf("coordinator without runners: err = %v", err)
	}
	err = run(context.Background(), []string{"-runners", "http://localhost:1", "-data-dir", t.TempDir()}, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-coordinator") {
		t.Fatalf("runners without coordinator: err = %v", err)
	}
}
