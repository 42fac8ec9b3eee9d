package serve

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"testing"
	"time"

	"wsnlink/internal/sweep"
)

// TestClientStreamRowsAcrossDaemonRestart kills a daemon outright — server
// drained, HTTP listener closed, connections dropped — and brings a new
// one up on the same address and data directory while a Client.StreamRows
// call is mid-stream. The client must ride through the outage on its
// reconnect budget and deliver the full campaign, byte-identical on the
// NDJSON wire encoding to an uninterrupted single-daemon run. This is the
// whole-process restart case (not just a dropped connection): the resumed
// rows come from a different server instance that recovered the job from
// disk and resumed the sweep from its checkpoint sidecar.
func TestClientStreamRowsAcrossDaemonRestart(t *testing.T) {
	dir := t.TempDir()
	spec := slowSpec() // 24 configs, 1 worker: slow enough to restart under

	// Reference: the same campaign on an untouched server, rendered to
	// wire bytes.
	refSrv := openServer(t, t.TempDir(), Options{})
	refSt, err := refSrv.Submit(spec)
	if err != nil {
		t.Fatalf("Submit reference: %v", err)
	}
	waitFor(t, "reference done", func() bool {
		return mustStatus(t, refSrv, refSt.ID).State == StateDone
	})
	var ref bytes.Buffer
	for i, line := range collectLines(t, refSrv, refSt.ID, -1) {
		ref.Write(appendRowJSON(nil, i, splitFields(line)))
	}

	// The daemon under test: serve.Server + real TCP listener, restartable
	// on a fixed address.
	gate := sweep.NewRowGate(2)
	srv1, err := Open(dir, Options{RowGate: gate})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	hs1 := &http.Server{Handler: srv1.Handler()}
	go hs1.Serve(ln) //nolint:errcheck // closed deliberately below

	cl := NewClient("http://" + addr)
	cl.MaxRetries = 50
	cl.RetryBase = 2 * time.Millisecond
	cl.jitter = func(d time.Duration) time.Duration { return d }

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	var got bytes.Buffer
	rows := 0
	restarted := make(chan struct{})
	go func() {
		defer close(restarted)
		// Kill while the campaign is parked mid-stream.
		select {
		case <-gate.Parked():
		case <-time.After(30 * time.Second):
			t.Error("timed out waiting for first rows")
			return
		}
		dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Second)
		srv1.Drain(dctx) //nolint:errcheck // the restart is the point
		dcancel()
		hs1.Close()

		srv2, err := Open(dir, Options{})
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		t.Cleanup(func() {
			dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer dcancel()
			srv2.Drain(dctx) //nolint:errcheck // test cleanup
		})
		// The freed address can take a moment to rebind.
		var ln2 net.Listener
		deadline := time.Now().Add(10 * time.Second)
		for {
			ln2, err = net.Listen("tcp", addr)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("rebind %s: %v", addr, err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		hs2 := &http.Server{Handler: srv2.Handler()}
		go hs2.Serve(ln2) //nolint:errcheck // closed in cleanup
		t.Cleanup(func() { hs2.Close() })
	}()

	last, err := cl.StreamRows(ctx, st.ID, -1, func(r StreamedRow) error {
		if r.Index != rows {
			t.Fatalf("row %d out of order, want %d", r.Index, rows)
		}
		rows++
		got.Write(appendRowJSON(nil, r.Index, r.Row.Fields()))
		return nil
	})
	if err != nil {
		t.Fatalf("StreamRows: %v", err)
	}
	<-restarted
	if last != 23 || rows != 24 {
		t.Fatalf("stream ended at row %d with %d rows, want 23/24", last, rows)
	}
	if !bytes.Equal(got.Bytes(), ref.Bytes()) {
		t.Fatal("restarted stream bytes differ from uninterrupted reference")
	}
}

// splitFields splits a canonical comma-joined record back into fields.
func splitFields(line string) []string {
	var out []string
	start := 0
	for i := 0; i < len(line); i++ {
		if line[i] == ',' {
			out = append(out, line[start:i])
			start = i + 1
		}
	}
	return append(out, line[start:])
}
