package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"hitl/internal/scenario"
)

// outcome is what one op produced: its timed interval and the answer the
// untimed checks inspect.
type outcome struct {
	lat time.Duration
	// answer is the bytes a repeat must reproduce exactly: the response
	// body (serve-sync, serve-cluster), the result body (serve-jobs), or
	// the rendered tables of every spec (batch-corpus).
	answer []byte
	// engine is the engine path the answer reports.
	engine string
	// cached reports a cache answer: X-Cache: hit on serve-sync, a
	// submission answered without new work on serve-jobs.
	cached bool
	// results are batch-corpus's in-process results, one per spec.
	results []*scenario.Result
	// etag and stream are serve-jobs' result ETag and job event stream.
	etag   string
	stream []byte
	err    error
}

// post sends one JSON request and reads the whole answer.
func (r *runner) post(path string, body []byte) (*http.Response, []byte, error) {
	resp, err := r.sut.client.Post(r.sut.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	return readAll(resp)
}

func (r *runner) get(path string) (*http.Response, []byte, error) {
	resp, err := r.sut.client.Get(r.sut.base + path)
	if err != nil {
		return nil, nil, err
	}
	return readAll(resp)
}

func readAll(resp *http.Response) (*http.Response, []byte, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp, b, err
}

// wantStatus fails an answer whose status is not one of want; a shed
// (429) or any other status is a failed op.
func wantStatus(resp *http.Response, body []byte, want ...int) error {
	for _, w := range want {
		if resp.StatusCode == w {
			return nil
		}
	}
	return fmt.Errorf("%s %s: status %d: %s", resp.Request.Method, resp.Request.URL.Path,
		resp.StatusCode, strings.TrimSpace(string(body)))
}

// do runs op and times it. With a tracer, every request is a span under
// the op's span; the spans are recorded outside the timed work they
// bracket only by their own clock reads.
func (r *runner) do(op Op) outcome {
	var out outcome
	root := r.tr.start("op", -1, op.ID, 0)
	t0 := time.Now()
	switch r.workload {
	case "batch-corpus":
		out = r.doBatch(op)
	case "serve-sync":
		out = r.doSync(op, root, "/v1/scenarios/run")
	case "serve-cluster":
		out = r.doSync(op, root, "/v1/cluster/run")
	case "serve-jobs":
		out = r.doJobs(op, root)
	}
	out.lat = time.Since(t0)
	r.tr.end(root)
	return out
}

func (r *runner) doBatch(op Op) outcome {
	var out outcome
	var text bytes.Buffer
	for _, sp := range op.Specs {
		norm, err := scenario.Normalize(sp)
		if err != nil {
			out.err = err
			return out
		}
		res, err := scenario.Run(context.Background(), norm)
		if err != nil {
			out.err = err
			return out
		}
		if err := res.Table().WriteText(&text); err != nil {
			out.err = err
			return out
		}
		out.results = append(out.results, res)
	}
	out.answer = text.Bytes()
	return out
}

func (r *runner) doSync(op Op, root int, path string) outcome {
	var out outcome
	sp := r.tr.start("http.run", root, op.ID, 0)
	resp, body, err := r.post(path, op.Bodies[0])
	r.tr.end(sp)
	if err == nil {
		err = wantStatus(resp, body, http.StatusOK)
	}
	if err != nil {
		out.err = err
		return out
	}
	out.answer = body
	out.cached = resp.Header.Get("X-Cache") == "hit"
	out.engine = resp.Header.Get("X-Engine")
	return out
}

func (r *runner) doJobs(op Op, root int) outcome {
	var out outcome
	sp := r.tr.start("http.submit", root, op.ID, 0)
	resp, body, err := r.post("/v1/jobs", op.Bodies[0])
	r.tr.end(sp)
	if err == nil {
		err = wantStatus(resp, body, http.StatusAccepted, http.StatusOK)
	}
	if err != nil {
		out.err = err
		return out
	}
	var sub struct {
		ID      string `json:"id"`
		Created bool   `json:"created"`
	}
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		out.err = fmt.Errorf("POST /v1/jobs: undecodable answer: %v", err)
		return out
	}
	out.cached = !sub.Created

	sp = r.tr.start("http.stream", root, op.ID, 0)
	resp, out.stream, err = r.get("/v1/jobs/" + sub.ID + "/stream")
	r.tr.end(sp)
	if err == nil {
		err = wantStatus(resp, out.stream, http.StatusOK)
	}
	if err != nil {
		out.err = err
		return out
	}

	sp = r.tr.start("http.result", root, op.ID, 0)
	resp, body, err = r.get("/v1/jobs/" + sub.ID + "/result")
	r.tr.end(sp)
	if err == nil {
		err = wantStatus(resp, body, http.StatusOK)
	}
	if err != nil {
		out.err = err
		return out
	}
	out.answer = body
	out.etag = resp.Header.Get("ETag")
	return out
}

// answer is the part of a serve-* response body the checks compare with
// an in-process run.
type answer struct {
	Engine  string          `json:"engine"`
	Points  json.RawMessage `json:"points"`
	Metrics json.RawMessage `json:"metrics"`
	Text    string          `json:"text"`
}

// sameResult reports how body's points, metrics and text differ from an
// in-process result, or nil when they are equal.
func sameResult(body []byte, ref *scenario.Result) (answer, error) {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return a, fmt.Errorf("undecodable answer: %w", err)
	}
	want, err := encodeResult(ref)
	if err != nil {
		return a, err
	}
	for _, f := range []struct {
		name      string
		got, want []byte
	}{{"points", a.Points, want.Points}, {"metrics", a.Metrics, want.Metrics}} {
		var c bytes.Buffer
		if err := json.Compact(&c, f.got); err != nil {
			return a, fmt.Errorf("%s: %w", f.name, err)
		}
		if !bytes.Equal(c.Bytes(), f.want) {
			return a, fmt.Errorf("%s differ from the in-process run", f.name)
		}
	}
	if a.Text != want.Text {
		return a, errors.New("text differs from the in-process run")
	}
	return a, nil
}

// encodeResult is a result's points and metrics in compact JSON and its
// rendered table.
func encodeResult(res *scenario.Result) (answer, error) {
	var a answer
	var err error
	if a.Points, err = json.Marshal(res.Points); err != nil {
		return a, err
	}
	if a.Metrics, err = json.Marshal(res.Metrics()); err != nil {
		return a, err
	}
	var t strings.Builder
	if err := res.Table().WriteText(&t); err != nil {
		return a, err
	}
	a.Text = t.String()
	a.Engine = res.EnginePath
	return a, nil
}

// simulated counts the subjects results actually simulated; analytic
// points simulate none.
func simulated(results ...*scenario.Result) int {
	n := 0
	for _, res := range results {
		for _, p := range res.Points {
			if p.Run != nil {
				n += p.Run.Completed
			}
		}
	}
	return n
}

// check verifies op's answer outside the timed interval and returns the
// subjects the engine simulated to produce it. A non-nil error fails the
// op.
func (r *runner) check(op Op, out *outcome) (int, error) {
	if out.err != nil {
		return 0, out.err
	}
	if op.Class == Repeat {
		first, ok := r.first[op.Of]
		if !ok {
			return 0, fmt.Errorf("repeat of %d: no first answer kept", op.Of)
		}
		if !bytes.Equal(out.answer, first.body) {
			return 0, fmt.Errorf("repeat of %d: answer differs from the first answer", op.Of)
		}
		if r.workload == "serve-jobs" {
			if err := checkJob(out); err != nil {
				return 0, err
			}
			var a answer
			if err := json.Unmarshal(out.answer, &a); err != nil {
				return 0, fmt.Errorf("undecodable answer: %w", err)
			}
			out.engine = a.Engine
		}
		// batch-corpus has no result cache and a serve-cluster repeat's
		// shards have left the worker caches, so both run the engine
		// again; serve-sync answers a repeat from its LRU and serve-jobs
		// from its store.
		switch r.workload {
		case "batch-corpus":
			return simulated(out.results...), nil
		case "serve-cluster":
			return first.subjects, nil
		}
		return 0, nil
	}

	subjects := 0
	switch r.workload {
	case "batch-corpus":
		for _, res := range out.results {
			if len(res.Points) == 0 {
				return 0, fmt.Errorf("%s: no points", res.Scenario)
			}
		}
		subjects = simulated(out.results...)
		if !r.interpChecked {
			r.interpChecked = true
			if err := checkInterpreted(op, out.results); err != nil {
				return 0, err
			}
		}
	default:
		// Results are bit-identical at any worker count, so the reference
		// run uses every core whatever the spec asks.
		sp := op.Specs[0]
		sp.Workers = 0
		ref, err := scenario.Run(context.Background(), sp)
		if err != nil {
			return 0, fmt.Errorf("in-process run: %w", err)
		}
		a, err := sameResult(out.answer, ref)
		if err != nil {
			return 0, err
		}
		if out.engine == "" {
			out.engine = a.Engine
		}
		if r.workload == "serve-jobs" {
			if err := checkJob(out); err != nil {
				return 0, err
			}
		}
		subjects = simulated(ref)
	}
	r.keepFirst(op, firstAnswer{out.answer, subjects})
	return subjects, nil
}

// checkJob verifies a job answer's integrity: the result body hashes to
// its ETag, and the event stream ends with a done line naming that ETag.
// It also requires jobTraceSample trace events in the stream, the
// recorder size the traced replay attaches, so the replay stays the job
// manager's path if its default changes.
func checkJob(out *outcome) error {
	sum := sha256.Sum256(out.answer)
	if want := `"` + hex.EncodeToString(sum[:]) + `"`; out.etag != want {
		return fmt.Errorf("result ETag %s is not the body's sha256 %s", out.etag, want)
	}
	type event struct {
		Type string `json:"type"`
		ETag string `json:"etag"`
	}
	var last event
	traces := 0
	for _, line := range bytes.Split(bytes.TrimSpace(out.stream), []byte("\n")) {
		last = event{}
		if err := json.Unmarshal(line, &last); err != nil {
			return fmt.Errorf("job stream: undecodable event: %w", err)
		}
		if last.Type == "trace" {
			traces++
		}
	}
	if last.Type != "done" || last.ETag != out.etag {
		return fmt.Errorf("job stream does not end with done for ETag %s", out.etag)
	}
	if traces != jobTraceSample {
		return fmt.Errorf("job stream has %d trace events; the traced replay attaches a %d-trace recorder", traces, jobTraceSample)
	}
	return nil
}

// checkInterpreted re-runs a pass with the interpreter forced and
// requires every result to equal the auto-path result. Specs auto answers
// analytically are skipped: the closed form is equal in law to Monte
// Carlo, not bit-identical to it.
func checkInterpreted(op Op, auto []*scenario.Result) error {
	ctx := scenario.WithEngine(context.Background(), scenario.EngineInterpreted)
	for i, sp := range op.Specs {
		if auto[i].EnginePath == string(scenario.EngineAnalytic) {
			continue
		}
		res, err := scenario.Run(ctx, sp)
		if err != nil {
			return fmt.Errorf("interpreted %s: %w", sp.Scenario, err)
		}
		got, err := encodeResult(res)
		if err != nil {
			return err
		}
		want, err := encodeResult(auto[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(got.Points, want.Points) || !bytes.Equal(got.Metrics, want.Metrics) || got.Text != want.Text {
			return fmt.Errorf("%s (seed %d): interpreted differs from auto (%s)", sp.Scenario, sp.Seed, auto[i].EnginePath)
		}
	}
	return nil
}

// keepFirst records a fresh op's answer for the repeats that may replay
// it, dropping answers the generator can no longer repeat.
func (r *runner) keepFirst(op Op, a firstAnswer) {
	if r.gen.pool != nil && op.Of >= 0 {
		return // repeats replay only the pre-filled pool
	}
	r.first[op.Of] = a
	if op.Of < 0 {
		return
	}
	r.kept = append(r.kept, op.Of)
	if len(r.kept) > 2*recentWindow {
		delete(r.first, r.kept[0])
		r.kept = r.kept[1:]
	}
}
