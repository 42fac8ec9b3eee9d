package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"wsnlink/internal/obs"
)

// Client is the typed HTTP client for a wsnlinkd daemon. The zero value is
// not usable; construct with NewClient.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient. Streaming requests rely
	// on it having no overall timeout; use per-call contexts instead.
	HTTPClient *http.Client
	// MaxRetries is the retry budget for idempotent calls (GET, DELETE)
	// hitting connection errors or 5xx answers. Row streams refill the
	// budget whenever a reconnect makes progress, so a long campaign
	// survives any number of spread-out drops while a hard-down daemon
	// still fails promptly. Zero disables retries; NewClient sets 3.
	MaxRetries int
	// RetryBase is the first backoff delay; it doubles per consecutive
	// failure (capped at 5s) with ±50% jitter so a fleet of clients does
	// not reconnect in lockstep. NewClient sets 100ms.
	RetryBase time.Duration

	// jitter overrides the backoff randomization in tests.
	jitter func(time.Duration) time.Duration
}

// NewClient returns a client for the daemon at baseURL with the default
// retry policy (3 retries, 100ms base backoff).
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL:    strings.TrimRight(baseURL, "/"),
		HTTPClient: http.DefaultClient,
		MaxRetries: 3,
		RetryBase:  100 * time.Millisecond,
	}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// backoff sleeps out the attempt'th retry delay (exponential, capped,
// jittered) or returns early with ctx's error.
func (c *Client) backoff(ctx context.Context, attempt int) error {
	base := c.RetryBase
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	d := base
	for i := 0; i < attempt && d < 5*time.Second; i++ {
		d *= 2
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	j := c.jitter
	if j == nil {
		j = func(d time.Duration) time.Duration {
			return d/2 + rand.N(d) // uniform in [0.5d, 1.5d)
		}
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(j(d)):
		return nil
	}
}

// requestCtx ensures ctx carries a correlation ID, minting one when the
// caller brought none. One logical call keeps one ID across every retry
// and reconnect, so the server-side log shows the retries as one story.
func requestCtx(ctx context.Context) context.Context {
	if obs.RequestID(ctx) != "" {
		return ctx
	}
	return obs.WithRequestID(ctx, obs.NewRequestID())
}

// do issues one JSON call, transparently retrying idempotent methods on
// transport errors and 5xx answers within the retry budget. POST is never
// retried: a submit that died mid-flight may have enqueued the job.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	ctx = requestCtx(ctx)
	idempotent := method == http.MethodGet || method == http.MethodDelete
	for attempt := 0; ; attempt++ {
		err := c.doOnce(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		if !idempotent || attempt >= c.MaxRetries || !retryable(err) || ctx.Err() != nil {
			return err
		}
		if berr := c.backoff(ctx, attempt); berr != nil {
			return err
		}
	}
}

// doOnce is one JSON round trip, decoding the response into out (unless
// nil). Non-2xx answers come back as *APIError.
func (c *Client) doOnce(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return permanentError{fmt.Errorf("serve: encode request: %w", err)}
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return permanentError{fmt.Errorf("serve: %w", err)}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if rid := obs.RequestID(ctx); rid != "" {
		req.Header.Set(RequestIDHeader, rid)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return responseError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("serve: decode response: %w", err)
	}
	return nil
}

// APIError is a non-2xx daemon answer: the status code plus the server's
// JSON error message and request correlation ID when they were sent.
type APIError struct {
	StatusCode int
	Status     string
	Message    string
	RequestID  string
}

func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("serve: %s: %s", e.Status, e.Message)
	}
	return fmt.Sprintf("serve: %s", e.Status)
}

// permanentError marks a failure no retry can fix (malformed request).
type permanentError struct{ error }

func (e permanentError) Unwrap() error { return e.error }

// retryable classifies an error from one attempt: transport failures
// (connection refused/reset, daemon restarting, truncated bodies) and 5xx
// answers are worth retrying; 4xx answers and request-side failures are
// not.
func retryable(err error) bool {
	var pe permanentError
	if errors.As(err, &pe) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.StatusCode >= 500
	}
	return true
}

// responseError turns a non-2xx response into an *APIError, preferring the
// server's JSON error envelope.
func responseError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e errorResponse
	ae := &APIError{
		StatusCode: resp.StatusCode,
		Status:     resp.Status,
		RequestID:  resp.Header.Get(RequestIDHeader),
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		ae.Message = e.Error
		if e.RequestID != "" {
			ae.RequestID = e.RequestID
		}
	}
	return ae
}

// Submit submits a campaign and returns its job status (State is
// StateDone with CacheHit set when the result cache already held it).
func (c *Client) Submit(ctx context.Context, spec CampaignSpec) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/campaigns", spec, &st)
	return st, err
}

// Status fetches one job's status.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+id, nil, &st)
	return st, err
}

// Cancel cancels a job.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/campaigns/"+id, nil, &st)
	return st, err
}

// List fetches the server stats and every job.
func (c *Client) List(ctx context.Context) (ListResponse, error) {
	var lr ListResponse
	err := c.do(ctx, http.MethodGet, "/v1/campaigns", nil, &lr)
	return lr, err
}

// StreamRows streams the job's rows with index > after, calling yield per
// row in order. It returns the last index received (or after, when
// nothing arrived) — the value to resume from on reconnect. The server ends
// the stream when the job is terminal and fully sent; check Status to
// distinguish done from failed. It is StreamLines with each line decoded,
// and resumes dropped connections the same way.
func (c *Client) StreamRows(ctx context.Context, id string, after int, yield func(StreamedRow) error) (int, error) {
	return c.StreamLines(ctx, id, after, func(_ int, line []byte) error {
		row, err := parseRowLine(line)
		if err != nil {
			return err
		}
		return yield(row)
	})
}

// StreamLines streams the job's rows with index > after as the NDJSON
// lines the daemon sent, calling yield per row in order with the row's
// index and its line, without the newline. The line is valid only during
// the call. It returns the last index received (or after, when nothing
// arrived) — the value to resume from on reconnect.
//
// Dropped connections are resumed transparently: each reconnect asks for
// rows after the last index already yielded (the same ?after= cursor any
// external client can use), so yield still sees every row exactly once, in
// order. Reconnects draw on the MaxRetries budget, which refills whenever
// an attempt makes progress; a yield error is the caller's and is never
// retried.
func (c *Client) StreamLines(ctx context.Context, id string, after int, yield func(index int, line []byte) error) (int, error) {
	ctx = requestCtx(ctx) // one ID across every reconnect of this stream
	last := after
	budget := c.MaxRetries
	var yieldErr error
	wrapped := func(index int, line []byte) error {
		if err := yield(index, line); err != nil {
			yieldErr = err
			return err
		}
		return nil
	}
	for attempt := 0; ; attempt++ {
		n, err := c.streamOnce(ctx, id, last, wrapped)
		if n > last {
			last = n
			budget = c.MaxRetries // progress refills the reconnect budget
		}
		if err == nil || yieldErr != nil || ctx.Err() != nil {
			return last, err
		}
		if !retryable(err) || budget <= 0 {
			return last, err
		}
		budget--
		if berr := c.backoff(ctx, attempt); berr != nil {
			return last, err
		}
	}
}

// streamOnce is one streaming connection: open, split NDJSON lines, yield.
func (c *Client) streamOnce(ctx context.Context, id string, after int, yield func(int, []byte) error) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/v1/campaigns/"+id+"/rows", nil)
	if err != nil {
		return after, permanentError{fmt.Errorf("serve: %w", err)}
	}
	req.Header.Set(LastRowIndexHeader, strconv.Itoa(after))
	if rid := obs.RequestID(ctx); rid != "" {
		req.Header.Set(RequestIDHeader, rid)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return after, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return after, responseError(resp)
	}
	last := after
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		index, err := rowIndex(line)
		if err != nil {
			return last, permanentError{err}
		}
		if err := yield(index, line); err != nil {
			return last, permanentError{err}
		}
		last = index
	}
	if err := sc.Err(); err != nil {
		return last, err
	}
	return last, nil
}

// Run submits a campaign and streams it to completion, reconnecting with
// index-based resume when the stream drops mid-campaign. yield sees every
// row exactly once, in order. It returns the job's terminal status; a
// failed or canceled job is reported as an error.
func (c *Client) Run(ctx context.Context, spec CampaignSpec, yield func(StreamedRow) error) (JobStatus, error) {
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return st, err
	}
	last := -1
	stalls := 0
	var yieldErr error
	wrapped := func(r StreamedRow) error {
		if err := yield(r); err != nil {
			yieldErr = err
			return err
		}
		return nil
	}
	for {
		n, streamErr := c.StreamRows(ctx, st.ID, last, wrapped)
		if yieldErr != nil {
			return st, yieldErr
		}
		if n > last {
			last = n
			stalls = 0
		}
		if ctx.Err() != nil {
			return st, ctx.Err()
		}
		cur, err := c.Status(ctx, st.ID)
		if err == nil {
			st = cur
			switch {
			case st.State == StateDone && last == st.Configs-1:
				return st, nil
			case st.State == StateFailed || st.State == StateCanceled:
				return st, fmt.Errorf("serve: job %s %s: %s", st.ID, st.State, st.Error)
			}
		}
		// Transient drop (daemon restart, network blip): reconnect and
		// resume after the last row we hold. Give up only when repeated
		// attempts make no progress at all.
		stalls++
		if stalls > 10 {
			if streamErr == nil {
				streamErr = fmt.Errorf("serve: stream stalled at row %d", last)
			}
			return st, fmt.Errorf("serve: job %s: no progress after %d attempts: %w", st.ID, stalls, streamErr)
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}
