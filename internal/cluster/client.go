package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"
)

// Worker endpoints the coordinator speaks to.
const (
	// ShardPath executes one shard spec and returns its raw aggregates.
	ShardPath = "/v1/cluster/shard"
	// HealthPath is the liveness/readiness probe.
	HealthPath = "/v1/healthz"
)

// errKind classifies a failed shard attempt by what it implies about the
// node and what the right recovery is.
type errKind int

const (
	// errTransport: the connection itself failed (refused, reset, timed
	// out). The node may be dead — mark it unhealthy and fail over.
	errTransport errKind = iota
	// errInternal: the node answered but wrongly (5xx other than 503, or
	// an undecodable body). Treated like a transport failure.
	errInternal
	// errShed: the node is alive but refusing load (429/503). Retry after
	// the advertised or backed-off delay; the node is not marked
	// unhealthy — shedding is the overload protection working.
	errShed
	// errFaulted: the node answered 200 but the response is unusable for
	// merging — fault-injected, degraded, or answering the wrong digest.
	// Retryable: injection middleware is typically transient.
	errFaulted
	// errPermanent: the request itself is wrong (other 4xx). No retry
	// anywhere would change the answer.
	errPermanent
)

// shardError is one failed shard attempt, carrying the classification the
// coordinator's retry loop dispatches on.
type shardError struct {
	node       string
	kind       errKind
	status     int           // HTTP status; 0 when the transport failed
	retryAfter time.Duration // parsed Retry-After hint; 0 when absent
	err        error
}

func (e *shardError) Error() string {
	if e.status != 0 {
		return fmt.Sprintf("cluster: %s: http %d: %v", e.node, e.status, e.err)
	}
	return fmt.Sprintf("cluster: %s: %v", e.node, e.err)
}

func (e *shardError) Unwrap() error { return e.err }

// retryable reports whether another attempt could succeed.
func (e *shardError) retryable() bool { return e.kind != errPermanent }

// nodeSuspect reports whether the failure is evidence the node itself is
// broken (vs. shedding load or serving an injected fault).
func (e *shardError) nodeSuspect() bool {
	return e.kind == errTransport || e.kind == errInternal
}

// client is the coordinator's HTTP client: one shard POST or health GET
// per call, classification of every failure, and the backoff schedule —
// exponential with full-ish jitter, overridden by a server-advertised
// Retry-After on 429/503 sheds. Per-attempt deadlines come from the
// caller's timeout, so the http.Client is a plain one.
type client struct {
	hc *http.Client
}

func newClient() *client {
	return &client{hc: &http.Client{}}
}

// postShard executes one shard attempt against node within timeout.
// Failures always come back as *shardError.
func (c *client) postShard(ctx context.Context, node string, req ShardRequest, timeout time.Duration) (*ShardResponse, error) {
	body, err := json.Marshal(req.Spec)
	if err != nil {
		return nil, &shardError{node: node, kind: errPermanent, err: err}
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, node+ShardPath, bytes.NewReader(body))
	if err != nil {
		return nil, &shardError{node: node, kind: errPermanent, err: err}
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hr)
	if err != nil {
		return nil, &shardError{node: node, kind: errTransport, err: err}
	}
	defer resp.Body.Close()

	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		se := &shardError{
			node:   node,
			status: resp.StatusCode,
			err:    fmt.Errorf("%s", bytes.TrimSpace(msg)),
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			se.kind = errShed
			se.retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
		case resp.StatusCode >= 500:
			se.kind = errInternal
		default:
			se.kind = errPermanent
		}
		return nil, se
	}

	var out ShardResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, &shardError{node: node, kind: errInternal, status: resp.StatusCode,
			err: fmt.Errorf("decoding shard response: %w", err)}
	}
	switch {
	case out.Faulted:
		return nil, &shardError{node: node, kind: errFaulted, status: resp.StatusCode,
			err: fmt.Errorf("shard computed under fault injection")}
	case out.Degraded:
		return nil, &shardError{node: node, kind: errFaulted, status: resp.StatusCode,
			err: fmt.Errorf("shard computed by a degraded worker")}
	}
	return &out, nil
}

// health probes node's /v1/healthz, returning the decoded body (best
// effort — an empty Health when the body is unreadable) and HTTP status.
func (c *client) health(ctx context.Context, node string, timeout time.Duration) (Health, int, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, node+HealthPath, nil)
	if err != nil {
		return Health{}, 0, err
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return Health{}, 0, err
	}
	defer resp.Body.Close()
	var h Health
	_ = json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&h)
	return h, resp.StatusCode, nil
}

// backoff returns how long to wait before retry number attempt (1-based).
// A Retry-After hint from the failed attempt wins — the server knows its
// own queue — clamped to max so a pathological header cannot stall the
// shard budget. Without a hint: exponential from base, clamped to max,
// with jitter uniform in [d/2, d) so a pool of retrying shards does not
// re-converge on the worker in lockstep.
func (c *client) backoff(attempt int, base, max, hint time.Duration) time.Duration {
	if hint > 0 {
		if hint > max {
			return max
		}
		return hint
	}
	d := base << (attempt - 1)
	if d > max || d <= 0 {
		d = max
	}
	// The jitter is scheduling-only and never affects results, so it
	// draws from the shared, concurrency-safe top-level generator.
	return d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
}

// parseRetryAfter reads a Retry-After header in either HTTP form:
// delta-seconds or an HTTP-date. 0 means absent or unparseable.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}
