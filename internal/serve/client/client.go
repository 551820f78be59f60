// Package client is the Go client for pdede-serve. It sends sequence-
// numbered PDT1 batches, classifies failures by the server's retryable
// flag, and retries with deterministic jittered exponential backoff —
// deterministic because the jitter derives from internal/rng seeded by
// (seed, tenant, seq, attempt), so a replayed load test backs off
// identically and chaos runs are reproducible.
//
// The sequence-number protocol makes retries safe: if an attempt applied
// but its response was lost, the retry is acknowledged as a duplicate with
// the same rolling state, never re-applied.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/isa"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/trace"
)

// Options configures a Client. The zero value of every field except
// BaseURL selects a default.
type Options struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the transport; default http.DefaultClient (deadlines come
	// from the request context, not a client-wide timeout).
	HTTP *http.Client
	// Retries bounds retry attempts per batch beyond the first (default 8).
	Retries int
	// BaseBackoff and MaxBackoff shape the capped exponential backoff
	// (defaults 50ms and 2s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed drives the deterministic jitter.
	Seed uint64
	// Sleep is a test seam; default time.Sleep.
	Sleep func(time.Duration)
	// Fault, when non-nil, returns a fault plan injected into the encoded
	// request body for the given attempt (0-based) — the chaos harness
	// uses it to make a specific attempt stall mid-stream or truncate.
	Fault func(tenant string, seq uint64, attempt int) trace.FaultPlan
}

// Client sends batches to one pdede-serve instance. Methods are safe for
// concurrent use; per-call randomness is derived statelessly.
type Client struct {
	opt Options
}

// New applies defaults and returns a Client.
func New(opt Options) *Client {
	if opt.HTTP == nil {
		opt.HTTP = http.DefaultClient
	}
	if opt.Retries <= 0 {
		opt.Retries = 8
	}
	if opt.BaseBackoff <= 0 {
		opt.BaseBackoff = 50 * time.Millisecond
	}
	if opt.MaxBackoff <= 0 {
		opt.MaxBackoff = 2 * time.Second
	}
	if opt.Sleep == nil {
		opt.Sleep = time.Sleep
	}
	return &Client{opt: opt}
}

// Err is a terminal (non-retried) server response.
type Err struct {
	Status int
	Body   serve.ErrorBody
}

func (e *Err) Error() string {
	return fmt.Sprintf("serve: %d %s: %s", e.Status, e.Body.Code, e.Body.Error)
}

// SendBatch sends one batch and returns its ack, retrying retryable
// failures (transport errors, 429/503/504, truncated uploads) with
// jittered backoff. A *Err return means the server gave a terminal answer.
//
// The batch is encoded once and every fault-free attempt sends those bytes
// with a Content-Length. An attempt with a fault plan streams the encoding
// record by record through the plan instead, so its stalls and cuts reach
// the server partway through the body.
func (c *Client) SendBatch(ctx context.Context, tenant string, seq uint64, recs []isa.Branch) (*serve.BatchAck, error) {
	url := fmt.Sprintf("%s/v1/tenants/%s/batches/%d", c.opt.BaseURL, tenant, seq)
	var encoded []byte
	var lastErr error
	for attempt := 0; ; attempt++ {
		var body io.Reader
		var plan trace.FaultPlan
		if c.opt.Fault != nil {
			plan = c.opt.Fault(tenant, seq, attempt)
		}
		if plan != (trace.FaultPlan{}) {
			src := (&trace.Memory{TraceName: tenant, Records: recs}).Open()
			body = trace.EncodeStream(tenant, &trace.FaultReader{R: src, Plan: plan})
		} else {
			if encoded == nil {
				encoded = trace.Append(nil, tenant, recs)
			}
			body = bytes.NewReader(encoded)
		}
		ack, retryable, wait, err := c.attempt(ctx, url, body)
		if err == nil {
			return ack, nil
		}
		lastErr = err
		if !retryable || attempt >= c.opt.Retries {
			return nil, err
		}
		d := c.backoff(tenant, seq, attempt)
		if wait > d {
			d = wait
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
		}
		c.opt.Sleep(d)
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%w (last attempt: %v)", ctx.Err(), lastErr)
		}
	}
}

// attempt performs one HTTP exchange. wait is the server's Retry-After
// hint (zero when absent); the caller takes the max of hint and backoff.
func (c *Client) attempt(ctx context.Context, url string, upload io.Reader) (ack *serve.BatchAck, retryable bool, wait time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, upload)
	if err != nil {
		return nil, false, 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.opt.HTTP.Do(req)
	if err != nil {
		// Transport failure: the server may or may not have applied the
		// batch; the sequence protocol makes blind retry safe.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, false, 0, err
		}
		return nil, true, 0, err
	}
	defer resp.Body.Close()
	if ra := resp.Header.Get(serve.RetryAfterHeader); ra != "" {
		if secs, perr := strconv.Atoi(ra); perr == nil && secs > 0 {
			wait = time.Duration(secs) * time.Second
		}
	}
	if resp.StatusCode == http.StatusOK {
		var a serve.BatchAck
		if derr := json.NewDecoder(resp.Body).Decode(&a); derr != nil {
			return nil, true, wait, fmt.Errorf("decoding ack: %w", derr)
		}
		return &a, false, 0, nil
	}
	var body serve.ErrorBody
	if derr := json.NewDecoder(resp.Body).Decode(&body); derr != nil {
		body = serve.ErrorBody{Error: resp.Status, Code: serve.CodeInternal, Retryable: resp.StatusCode >= 500}
	}
	return nil, body.Retryable, wait, &Err{Status: resp.StatusCode, Body: body}
}

// Stats fetches a tenant's authoritative rolling state, retrying
// retryable failures like SendBatch does.
func (c *Client) Stats(ctx context.Context, tenant string) (*serve.TenantStats, error) {
	url := fmt.Sprintf("%s/v1/tenants/%s/stats", c.opt.BaseURL, tenant)
	var lastErr error
	for attempt := 0; attempt <= c.opt.Retries; attempt++ {
		st, retryable, err := c.statsAttempt(ctx, url)
		if err == nil {
			return st, nil
		}
		lastErr = err
		if !retryable {
			return nil, err
		}
		c.opt.Sleep(c.backoff(tenant, 0, attempt))
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

func (c *Client) statsAttempt(ctx context.Context, url string) (*serve.TenantStats, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := c.opt.HTTP.Do(req)
	if err != nil {
		retryable := !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
		return nil, retryable, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var st serve.TenantStats
		if derr := json.NewDecoder(resp.Body).Decode(&st); derr != nil {
			return nil, true, fmt.Errorf("decoding stats: %w", derr)
		}
		return &st, false, nil
	}
	var body serve.ErrorBody
	if derr := json.NewDecoder(resp.Body).Decode(&body); derr != nil {
		body = serve.ErrorBody{Error: resp.Status, Code: serve.CodeInternal, Retryable: resp.StatusCode >= 500}
	}
	return nil, body.Retryable, &Err{Status: resp.StatusCode, Body: body}
}

// backoff derives the deterministic jittered delay for one retry: capped
// exponential scaled by a factor in [0.5, 1.0) drawn from a splitmix64
// stream forked on (seed^tenant, seq, attempt).
func (c *Client) backoff(tenant string, seq uint64, attempt int) time.Duration {
	d := c.opt.BaseBackoff << uint(min(attempt, 16))
	if d > c.opt.MaxBackoff || d <= 0 {
		d = c.opt.MaxBackoff
	}
	h := fnv.New64a()
	io.WriteString(h, tenant)
	src := rng.New(c.opt.Seed ^ h.Sum64()).Fork(seq).Fork(uint64(attempt))
	return time.Duration(float64(d) * (0.5 + 0.5*src.Float64()))
}
