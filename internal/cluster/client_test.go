package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hitl/internal/scenario"
	_ "hitl/internal/scenario/all"
)

func testSpec() scenario.Spec {
	return scenario.Spec{Scenario: "phishing-study", N: 50, Seed: 1,
		Params: map[string]any{"warning": "firefox-active"}}
}

func TestBackoffHonorsRetryAfter(t *testing.T) {
	c := newClient()
	base, max := 100*time.Millisecond, 5*time.Second

	// Header present: the server's hint wins over the schedule.
	if d := c.backoff(1, base, max, 3*time.Second); d != 3*time.Second {
		t.Errorf("hinted backoff = %v, want the 3s Retry-After", d)
	}
	// A pathological hint is clamped so it cannot stall the shard budget.
	if d := c.backoff(1, base, max, time.Hour); d != max {
		t.Errorf("oversized hint = %v, want clamp to %v", d, max)
	}
	// Header absent: exponential with jitter in [d/2, d].
	for attempt := 1; attempt <= 4; attempt++ {
		want := base << (attempt - 1)
		for i := 0; i < 20; i++ {
			d := c.backoff(attempt, base, max, 0)
			if d < want/2 || d > want {
				t.Fatalf("attempt %d backoff %v outside [%v, %v]", attempt, d, want/2, want)
			}
		}
	}
	// Deep attempts clamp to max.
	if d := c.backoff(30, base, max, 0); d < max/2 || d > max {
		t.Errorf("deep-attempt backoff %v outside [%v, %v]", d, max/2, max)
	}
}

func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter(""); d != 0 {
		t.Errorf("absent header = %v, want 0", d)
	}
	if d := parseRetryAfter("7"); d != 7*time.Second {
		t.Errorf("seconds form = %v, want 7s", d)
	}
	if d := parseRetryAfter("-3"); d != 0 {
		t.Errorf("negative seconds = %v, want 0", d)
	}
	if d := parseRetryAfter("garbage"); d != 0 {
		t.Errorf("unparseable = %v, want 0", d)
	}
	future := time.Now().Add(30 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(future); d < 20*time.Second || d > 30*time.Second {
		t.Errorf("http-date form = %v, want ~30s", d)
	}
}

func TestPostShardClassifiesFailures(t *testing.T) {
	cases := []struct {
		name    string
		handler http.HandlerFunc
		kind    errKind
		after   time.Duration
	}{
		{"shed-with-retry-after", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
		}, errShed, 2 * time.Second},
		{"shed-without-retry-after", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusServiceUnavailable)
		}, errShed, 0},
		{"internal", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusInternalServerError)
		}, errInternal, 0},
		{"permanent", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusBadRequest)
		}, errPermanent, 0},
		{"undecodable-body", func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("not json"))
		}, errInternal, 0},
		{"faulted-response", func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(ShardResponse{Digest: "x", Faulted: true})
		}, errFaulted, 0},
		{"degraded-response", func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(ShardResponse{Digest: "x", Degraded: true})
		}, errFaulted, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(tc.handler)
			defer ts.Close()
			c := newClient()
			_, err := c.postShard(context.Background(), ts.URL, ShardRequest{Spec: testSpec()}, time.Second)
			se, ok := err.(*shardError)
			if !ok {
				t.Fatalf("error %v (%T), want *shardError", err, err)
			}
			if se.kind != tc.kind {
				t.Errorf("kind = %d, want %d", se.kind, tc.kind)
			}
			if se.retryAfter != tc.after {
				t.Errorf("retryAfter = %v, want %v", se.retryAfter, tc.after)
			}
		})
	}

	// Transport failure: nobody listening.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	c := newClient()
	_, err := c.postShard(context.Background(), dead.URL, ShardRequest{Spec: testSpec()}, time.Second)
	if se, ok := err.(*shardError); !ok || se.kind != errTransport || !se.nodeSuspect() {
		t.Errorf("dead node error = %v, want transport-kind shardError", err)
	}
}

func TestRetryBudgetCapsAttempts(t *testing.T) {
	// A worker that sheds forever must cost exactly MaxAttempts requests,
	// each after the advertised Retry-After, and then fail the shard.
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != ShardPath {
			w.WriteHeader(http.StatusOK)
			return
		}
		hits.Add(1)
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	coord, err := New(Config{
		Workers:       []string{ts.URL},
		MaxAttempts:   3,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    2 * time.Millisecond,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	_, stats, err := coord.Run(context.Background(), testSpec(), RunOptions{Shards: 1})
	if err == nil {
		t.Fatal("permanently shedding worker: want error")
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("worker saw %d attempts, want exactly the budget of 3", got)
	}
	if stats.Retries != 2 {
		t.Errorf("stats.Retries = %d, want 2 (attempts 2 and 3)", stats.Retries)
	}
}
